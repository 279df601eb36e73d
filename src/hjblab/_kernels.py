"""SciPy's three compiled modules that hjblab calls, loaded without scipy.

The solver and the mollifier call pocketfft (`pypocketfft`) and the
double-precision BLAS and LAPACK wrappers (`_fblas`, `_flapack`) that
SciPy builds.  Reaching them through `scipy.fft` and `scipy.linalg` also
imports SciPy's array-API layer, `scipy.special` and every `scipy.linalg`
decomposition, about 0.3 s per process and more than half of most
default-config CLI runs.  So each extension module is loaded here
straight from SciPy's package directory, found with
`importlib.util.find_spec` (which imports nothing), under a name of
hjblab's own.  No module is ever registered under SciPy's names, so a
later `import scipy.fft` in the same process loads SciPy's own copies as
usual.

The functions are the ones `get_blas_funcs`, `get_lapack_funcs` and the
`scipy.fft` transforms call; callers pass the arguments SciPy's wrappers
would pass (the norm codes 0 for a forward and 2 for a backward
transform), and every transform runs one pocketfft worker: on a 2-vCPU
host a second worker made the benchmark's game and sweep passes slower.
A SciPy that moves one of these files fails at import, with an
`ImportError` naming the file.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os


def load(package_dir: str, subdir: str, stem: str):
    """The extension module `stem` from package_dir/subdir, loaded as
    hjblab._kernels.<stem>."""
    paths = [os.path.join(package_dir, subdir, stem + suffix) for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError("SciPy's compiled module %s is missing: no file %s" % (stem, paths[0]))
    spec = importlib.util.spec_from_file_location(__name__ + "." + stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_scipy_spec = importlib.util.find_spec("scipy")
if _scipy_spec is None or not _scipy_spec.submodule_search_locations:
    raise ImportError("hjblab needs SciPy: the package scipy is not installed")
_SCIPY_DIR = _scipy_spec.submodule_search_locations[0]

pocketfft = load(_SCIPY_DIR, os.path.join("fft", "_pocketfft"), "pypocketfft")
fblas = load(_SCIPY_DIR, "linalg", "_fblas")
flapack = load(_SCIPY_DIR, "linalg", "_flapack")
