"""Finite-difference laboratory for viscous Hamilton-Jacobi problems.

Modules:
  geometry   domains, metrics, grids, quadrature, boundary curvature
  fields     nodal fields and metric-aware discrete calculus
  hjb        damped-Newton solver for the stationary equations
  bernstein  gradient-bound machinery: Bochner identities, level sets,
             pointwise inequality audits
  estimates  scaling sweeps, Sobolev/Calderon-Zygmund constant probes
  mfg        stationary mean field games with mollified coupling
  cli        configuration files, reports, plots, command line
  _kernels   SciPy's compiled FFT, BLAS and LAPACK modules, loaded
             without importing SciPy's packages
"""

__version__ = "0.1.0"

from . import bernstein, estimates, fields, geometry, hjb, mfg  # noqa: F401
