"""Finite-difference laboratory for viscous Hamilton-Jacobi problems.

Modules:
  geometry   domains, the conformal exponent phi, grids, quadrature, boundary curvature
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

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "bernstein", "cli", "config", "estimates", "fields", "geometry", "hjb", "mfg", "stencils", "svg", "_kernels",
)


def __getattr__(name):
    # hjblab.<module> loads that module on first use (PEP 562), so importing
    # one module, say the config parser, loads only what it imports
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
