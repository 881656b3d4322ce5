"""Every eigendecomposition of kare, and every dense linear-algebra call of
a sweep, in SciPy's BLAS and LAPACK.

NumPy and SciPy each load their own OpenBLAS, and each library's thread
pool busy-waits after its calls, so a sweep that alternates the two slows
both.  A NumPy eigendecomposition also slows the SciPy calls after it: on
a 2-core VM, 60 SciPy ``dposv`` solves (40 x 40, 30 right-hand sides) in a
fresh process took a median 3.9 ms (2.3-60 ms, 12 processes) after one
``np.linalg.eigh`` of a 40 x 40 matrix, against 2.3 ms (1.8-6.4 ms) after
this module's ``eigh`` or with no eigh at all.  So this is the one module
of kare that imports SciPy, every eigendecomposition of kare (the sweep's,
the Monte Carlo draws' and ``spectral.decompose``'s) runs here, and the
sweep's modules (``cli``, ``estimators``, ``krr``, ``kernels``, ``data``)
make their products and solves through it too.  Each routine returns the
bits of the NumPy expression it stands for, because it calls the same BLAS
or LAPACK routine on the same memory layout that NumPy passes it:

- ``eigh(A)`` is ``np.linalg.eigh(A)``, decomposed in A's own buffer;
- ``eigvalsh(A)`` is ``np.linalg.eigvalsh(A)``, also in A's buffer;
- ``matvec(A, x)`` is ``A @ x``, so ``matvec(A.T, x)`` is ``A.T @ x``;
- ``dot(x, y)`` is ``x @ y``;
- ``dposv`` is LAPACK's Cholesky factor-and-solve, for ``krr.ridge_solve``,
  and ``LinAlgError`` is the error ``eigh`` raises.

What stays on NumPy, measured on the same VM: the Monte Carlo draws'
products and the QR of their ``scores``, and the validation suites' dense
``np.linalg.solve`` reference, which stays an independent route.  SciPy's
dgeqrf + dorgqr gave the draws' QR bits, but with the draws' products still
on NumPy the thm6 suite went from 0.47-0.71 s to 2.8-3.1 s; SciPy dgemm and
dsyrk for every product also kept the bits, but thm6 took 0.59-0.62 s
against 0.47-0.54 s, and bayes 0.05-0.10 s against 0.04 s.

kare loads only SciPy's two compiled wrappers, ``scipy.linalg._flapack``
and ``scipy.linalg._fblas``, and runs neither the ``scipy.linalg`` nor the
``scipy`` package ``__init__``: the first loads SciPy's array-API layer,
and with it ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``, which took
about half of ``import kare``; the second loads ``subprocess``, SciPy's
test utilities and its C-callback layer.  Without the second, a fresh
``import kare, kare.cli, kare.validation`` peaked at 39.6 MB resident
against 41.1 MB and took a median 0.176 s against 0.191 s (20 alternating
processes each, 2-core VM).  The two modules are registered under their
own names, so a later ``import scipy.linalg`` uses the same objects and
the same OpenBLAS.
"""

from __future__ import annotations

import os
import sys
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg re-exports


def _scipy_extension(name: str):
    """SciPy's compiled ``scipy.linalg.<name>``, loaded and registered in
    ``sys.modules`` without running the ``scipy`` or ``scipy.linalg``
    package ``__init__``.  Where that load fails, as where a platform's
    SciPy makes its libraries findable in ``scipy/__init__`` (the Windows
    wheels add their DLL directory there), the package is imported and the
    module loaded once more.  Raises ImportError naming the module when
    neither route finds it."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = find_spec("scipy")  # finds the package without executing it
    try:
        module = _load(full, spec.submodule_search_locations if spec else [])
    except ImportError:
        try:
            import scipy
        except ImportError:
            raise ImportError(f"kare needs SciPy's compiled {full}, and SciPy "
                              f"does not import", name=full) from None
        module = _load(full, scipy.__path__)
    sys.modules[full] = module
    return module


def _load(full: str, scipy_path):
    """Execute the compiled module ``full`` found under the directories of
    the ``scipy`` package, or raise ImportError naming it."""
    spec = PathFinder.find_spec(full, [os.path.join(path, "linalg") for path in scipy_path])
    if spec is None:
        raise ImportError(f"kare needs SciPy's compiled {full}, which the installed "
                          f"SciPy does not have", name=full)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _scipy_extension("_flapack")
_blas = _scipy_extension("_fblas")
_dsyevd, _dsyevd_lwork = _flapack.dsyevd, _flapack.dsyevd_lwork
dposv = _flapack.dposv

# SciPy's LAPACK counts in 32-bit integers, and dsyevd's workspace for
# eigenvectors is 1 + 6n + 2n^2 floats: at n >= 32,767 SciPy's workspace
# query wraps without an error.
_MAX_WORKSPACE = 2**31 - 1

# NumPy's x @ y calls ddot on at most this many entries at a time.
_DOT_CHUNK = 2**30


def check_order(n: int) -> int:
    """n, or ValueError naming n when an n x n ``eigh`` needs a LAPACK
    workspace beyond SciPy's 32-bit sizes (n >= 32,767)."""
    if 1 + 6 * n + 2 * n * n > _MAX_WORKSPACE:
        raise ValueError(f"an eigendecomposition of order {n} needs a LAPACK workspace of "
                         f"more than 2**31 - 1 floats; the order must be at most 32766")
    return n


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(A)``: the ascending eigenvalues and the C-order
    eigenvectors of the symmetric matrix whose lower triangle is A's, with
    NumPy's bits, decomposed in A's own buffer.

    A must be a Fortran-contiguous n x n float64 array that the caller no
    longer reads: LAPACK's dsyevd overwrites it with the eigenvectors.  NumPy
    runs the same dsyevd on a Fortran-order copy of A, so this holds one n x n
    array fewer (a C-order symmetric G is passed as ``G.T``).  The vectors are
    returned as a C-order copy, as NumPy returns them: ``matvec`` on a
    Fortran-order matrix would call the other gemv kernel, whose bits differ.
    Raises ValueError for another layout and when ``check_order`` does, and
    LinAlgError when LAPACK reports a failure.
    """
    check_order(A.shape[0])
    eigenvalues, vectors = _syevd(A, compute_v=1)
    return eigenvalues, np.ascontiguousarray(vectors)


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(A)``, with its bits: the values-only dsyevd
    (dsytrd, then dsterf) that NumPy runs on a Fortran-order copy of A, run
    here in A's own buffer, which it overwrites.  A must be a
    Fortran-contiguous n x n float64 array; the workspace grows with n, so
    ``check_order`` does not apply.  Raises as ``eigh`` does.
    """
    return _syevd(A, compute_v=0)[0]


def _syevd(A: np.ndarray, compute_v: int) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's dsyevd on the lower triangle of A, in A's buffer."""
    n = A.shape[0]
    if A.dtype != np.float64 or A.shape != (n, n) or not A.flags.f_contiguous:
        raise ValueError(f"expected a Fortran-contiguous square float64 array, "
                         f"got {A.dtype} with shape {A.shape}")
    # The workspace size sets dsytrd's blocking, so NumPy's bits need the
    # size LAPACK asks for, as NumPy and scipy.linalg.eigh pass it.
    work, iwork, info = _dsyevd_lwork(n=n, compute_v=compute_v, lower=1)
    if info:
        raise LinAlgError(f"dsyevd's workspace query for order {n} failed (info {info})")
    eigenvalues, vectors, info = _dsyevd(A, compute_v=compute_v, lower=1, lwork=int(work),
                                         liwork=iwork, overwrite_a=1)
    if info:
        raise LinAlgError(f"dsyevd failed on an eigendecomposition of order {n} (info {info})")
    return eigenvalues, vectors


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x``, with its bits, for a 2-D A and a 1-D x.

    NumPy's matmul hands a one-row A to its ddot, and a C- or
    Fortran-contiguous float64 A with two or more columns to its dgemv,
    with the transpose flag that reads A in place; SciPy's routines get the
    same calls here.  Any other A is ``A @ x`` itself.
    """
    m, n = A.shape
    if m == 1:
        return np.array([dot(A[0], x)])
    if (m and n > 1 and x.shape == (n,) and A.dtype == x.dtype == np.float64
            and x.flags.c_contiguous):
        if A.flags.c_contiguous:
            return _blas.dgemv(1.0, A.T, x, trans=1)
        if A.flags.f_contiguous:
            return _blas.dgemv(1.0, A, x, trans=0)
    return A @ x


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y`` for 1-D x and y, with its bits: SciPy's ddot where both are
    contiguous float64 vectors, as NumPy calls its own, and ``x @ y``
    itself otherwise."""
    if (0 < x.size < _DOT_CHUNK and x.shape == y.shape and x.dtype == y.dtype == np.float64
            and x.flags.c_contiguous and y.flags.c_contiguous):
        return 0.0 + _blas.ddot(x, y)  # NumPy adds the ddot to a sum that starts at 0.0
    return float(x @ y)
