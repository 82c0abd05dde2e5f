"""The six compiled routines the solvers call, bound straight from two of
scipy's extension files.

LAPACK ``dpttrf``/``dpttrs`` factor and solve the 1-D IMEX step's and the
frame march's SPD tridiagonal systems, ``dgtsv`` takes the wave solver's
Newton steps and ``dtbtrs`` runs ``solve_v``'s kernel recurrences; with a
unit diagonal it skips its singularity scan and calls BLAS ``dtbsv``, the
kernel inside scipy's OpenBLAS, on the same operands.  sparsetools'
``csr_matvec``/``csc_matvec`` apply the 2-D red-black blocks.
scipy.linalg and scipy.sparse hand out these very objects, but their
package initializers also build scipy's array-API namespace, which imports
numpy.f2py, numpy.testing, numpy.ma, numpy.random and more: about 0.15 s
and 20 MB per process that the package never uses.  So the two extension
files those packages' own ``linalg/lapack.py`` and ``sparse/_compressed.py``
import, ``scipy/linalg/_flapack`` and ``scipy/sparse/_sparsetools``, are
loaded here from scipy's directory, which ``find_spec`` locates without
importing scipy.  The same compiled code runs on the same operands as
through scipy's wrappers, bit for bit.  A missing file is an
``ImportError`` that names it and the scipy version.
"""

import importlib.machinery
import importlib.util
from pathlib import Path


def _extension(name: str):
    """scipy's extension module ``name`` (e.g. ``linalg._flapack``), loaded
    from its file without running any scipy package initializer."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("wavemotil needs scipy, which is not installed")
    stem = Path(spec.submodule_search_locations[0], *name.split("."))
    suffixes = importlib.machinery.EXTENSION_SUFFIXES
    path = next((p for s in suffixes if (p := Path(f"{stem}{s}")).is_file()), None)
    if path is None:
        from importlib.metadata import version

        raise ImportError(f"scipy {version('scipy')} has no {stem}{suffixes[0]}")
    spec = importlib.util.spec_from_file_location(f"scipy.{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _extension("linalg._flapack")
_sparsetools = _extension("sparse._sparsetools")
dpttrf, dpttrs, dgtsv = _flapack.dpttrf, _flapack.dpttrs, _flapack.dgtsv
dtbtrs = _flapack.dtbtrs
csr_matvec, csc_matvec = _sparsetools.csr_matvec, _sparsetools.csc_matvec
