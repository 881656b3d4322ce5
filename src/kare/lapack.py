"""The four BLAS and LAPACK routines of kare, called in SciPy's OpenBLAS.

``dsyevd`` makes every eigendecomposition of kare, ``dposv`` every
Cholesky solve of ``krr``, and ``dgemv`` and ``ddot`` the products of a
sweep, so that a sweep runs on one OpenBLAS and its one thread pool.  They
are ctypes foreign functions with the Fortran LP64 ABI: every argument by
reference, 32-bit integers, and each character argument's length as a
trailing hidden ``size_t``.

One loader binds them, by one of two lookups.  On a SciPy wheel, the
symbols of the OpenBLAS it bundles, ``scipy.libs/libscipy_openblas*.so``
beside the ``scipy`` package, found with ``find_spec`` and loaded without
importing any SciPy module.  Where SciPy bundles no such library (conda,
distribution, Windows and macOS builds), the ``_cpointer`` capsules of
SciPy's compiled wrappers ``scipy.linalg._flapack`` and ``_fblas``, which
a plain import loads.  ``LIBRARY`` names the file bound, or "f2py
capsules".

Each routine has the bits of the NumPy or SciPy call it stands for, since
it runs the same routine of the same library on the same memory layout:

- ``eigh(A)`` is ``np.linalg.eigh(A)``, decomposed in A's own buffer, which
  then holds the C-order eigenvectors, transposed in place;
- ``eigvalsh(A)`` is ``np.linalg.eigvalsh(A)``, also in A's buffer;
- ``matvec(A, x)`` is ``A @ x``, so ``matvec(A.T, x)`` is ``A.T @ x``;
- ``dot(x, y)`` is ``x @ y``;
- ``dposv(A, b)`` is SciPy's ``dposv(A, b, lower=1, overwrite_a=1)``.
"""

from __future__ import annotations

import ctypes
import os
import sys
from ctypes import CFUNCTYPE, byref, c_double, c_int, c_size_t, c_void_p
from importlib.util import find_spec

import numpy as np
from numpy.linalg import LinAlgError  # the class scipy.linalg re-exports


# routine -> (its result type, the SciPy wrapper module that holds it)
_ROUTINES = {"dsyevd": (None, "_flapack"), "dposv": (None, "_flapack"),
             "dgemv": (None, "_fblas"), "ddot": (c_double, "_fblas")}


def _bundled_library() -> str | None:
    """The path of ``scipy.libs/libscipy_openblas*.so`` beside the
    ``scipy`` package, or None where there is none."""
    spec = find_spec("scipy")
    for package in (spec.submodule_search_locations or []) if spec else []:
        directory = os.path.join(os.path.dirname(package), "scipy.libs")
        if os.path.isdir(directory):
            for name in sorted(os.listdir(directory)):
                if name.startswith("libscipy_openblas") and name.endswith(".so"):
                    return os.path.join(directory, name)
    return None


def _capsule_address(capsule) -> int:
    """The function pointer an f2py ``_cpointer`` capsule holds."""
    api = ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer = ctypes.PYFUNCTYPE(c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))
    return pointer(capsule, name(capsule))


def _bind() -> tuple[list, str]:
    """The foreign functions of ``_ROUTINES``, in order, and ``LIBRARY``:
    the bundled library's symbols and file name, or else the wrappers'
    capsules and "f2py capsules".  Raises ImportError naming
    ``scipy.linalg._flapack`` where neither lookup can run."""
    path = _bundled_library()
    if path:  # ctypes never unloads a library, so its addresses stay valid
        library = ctypes.CDLL(path)
        addresses = [ctypes.cast(getattr(library, f"scipy_{routine}_"), c_void_p).value
                     for routine in _ROUTINES]
        source = os.path.basename(path)
    else:
        try:
            from scipy.linalg import _fblas, _flapack
        except ImportError:
            raise ImportError("kare needs SciPy's compiled scipy.linalg._flapack, and SciPy "
                              "does not import", name="scipy.linalg._flapack") from None
        modules = {"_flapack": _flapack, "_fblas": _fblas}
        addresses = [_capsule_address(getattr(modules[module], routine)._cpointer)
                     for routine, (_, module) in _ROUTINES.items()]
        source = "f2py capsules"
    # No argtypes: each argument is built below as a C pointer, bytes or
    # size_t, after the Python checks of the routine's sizes, dtype and
    # layout, and declaring them cost ddot 0.4 us more per call.
    return [CFUNCTYPE(restype)(address)
            for (restype, _), address in zip(_ROUTINES.values(), addresses)], source


(_dsyevd, _dposv, _dgemv, _ddot), LIBRARY = _bind()

_FLOAT64 = np.dtype(np.float64)

# ``_data(a)`` is the data pointer of the array a, as a c_void_p for a
# foreign function; the caller holds a until the call returns.  NumPy's
# array object holds that pointer right after the object header
# (PyArrayObject_fields), where NumPy's compiled extensions read it through
# PyArray_DATA, and reading it there took 0.1 us against 1.1 us for
# ``a.ctypes.data``.  Where id() is not an address (another Python than
# CPython) or the probe disagrees, the array interface gives the pointer.
_DATA_OFFSET = object.__basicsize__
_probe = np.empty(1)
if (sys.implementation.name == "cpython" and c_void_p.from_address(
        id(_probe) + _DATA_OFFSET).value == _probe.__array_interface__["data"][0]):
    def _data(a: np.ndarray) -> c_void_p:
        return c_void_p.from_address(id(a) + _DATA_OFFSET)
else:
    def _data(a: np.ndarray) -> c_void_p:
        return c_void_p(a.__array_interface__["data"][0])
del _probe


def _int(value: int):
    """A reference to a new C int holding value, for a size or increment
    that the routine reads and never writes; each call makes a fresh one."""
    return byref(c_int(value))


_ONE, _QUERY = _int(1), _int(-1)
_ALPHA, _BETA = byref(c_double(1.0)), byref(c_double(0.0))
_CHAR = c_size_t(1)  # the hidden length of each character argument

# SciPy's LAPACK counts in 32-bit integers, and dsyevd's workspace for
# eigenvectors is 1 + 6n + 2n^2 floats: at n >= 32,767 LAPACK's workspace
# query wraps without an error.
_MAX_WORKSPACE = 2**31 - 1

# NumPy's x @ y calls ddot on at most this many entries at a time.
_DOT_CHUNK = 2**30

# Side of the square tiles in which ``eigh`` transposes its eigenvectors:
# a 64 x 64 tile is 32 KB.
_TILE = 64


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
    runs the same dsyevd on a Fortran-order copy of A, and then copies the
    vectors to C order; here the vectors are transposed in A's buffer, in
    square tiles, and returned as a C-order view of it, so A ends up holding
    ``vectors.T`` and the only n x n array the call allocates is LAPACK's
    workspace, freed before it returns (a C-order symmetric G is passed as
    ``G.T``, and then G holds ``vectors``).  The vectors must be in C order,
    as NumPy returns them: ``matvec`` on a Fortran-order matrix would call
    the other gemv kernel, whose bits differ.  Raises ValueError for another
    layout and when ``check_order`` does, and LinAlgError when LAPACK
    reports a failure.
    """
    check_order(A.shape[0])
    eigenvalues = _syevd(A, b"V")
    return eigenvalues, _transpose_in_place(A).T


def _transpose_in_place(A: np.ndarray) -> np.ndarray:
    """A, a square array, overwritten with A.T: each pair of mirrored
    _TILE x _TILE tiles is swapped through one reused tile, and each
    diagonal tile transposed through it."""
    n = A.shape[0]
    scratch = np.empty((min(n, _TILE),) * 2)
    for i in range(0, n, _TILE):
        diagonal = A[i:i + _TILE, i:i + _TILE]
        tile = scratch[:diagonal.shape[0], :diagonal.shape[0]]
        np.copyto(tile, diagonal.T)
        np.copyto(diagonal, tile)
        for j in range(i + _TILE, n, _TILE):
            upper, lower = A[i:i + _TILE, j:j + _TILE], A[j:j + _TILE, i:i + _TILE]
            tile = scratch[:upper.shape[0], :upper.shape[1]]
            np.copyto(tile, upper)
            np.copyto(upper, lower.T)
            np.copyto(lower, tile.T)
    return A


def eigvalsh(A: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(A)``, with its bits: the values-only dsyevd
    (dsytrd, then dsterf) that NumPy runs on a Fortran-order copy of A, run
    here in A's own buffer, which it overwrites.  A must be a
    Fortran-contiguous n x n float64 array; the workspace grows with n, so
    ``check_order`` does not apply.  Raises as ``eigh`` does.
    """
    return _syevd(A, b"N")


def _check_square(A: np.ndarray) -> int:
    """A's order, or ValueError unless A is a Fortran-contiguous square
    float64 array, which LAPACK can overwrite in place."""
    n = A.shape[0]
    if A.dtype != _FLOAT64 or A.shape != (n, n) or not A.flags.f_contiguous:
        raise ValueError(f"expected a Fortran-contiguous square float64 array, "
                         f"got {A.dtype} with shape {A.shape}")
    return n


def _workspace(n: int, jobz: bytes) -> tuple[int, int]:
    """dsyevd's workspace sizes (lwork, liwork) for order n, from one
    LAPACK workspace query per call, as NumPy and scipy.linalg.eigh make
    one per decomposition.  The size sets dsytrd's blocking, so NumPy's
    bits need the size LAPACK asks for."""
    work, iwork, info = c_double(), c_int(), c_int()
    _dsyevd(jobz, b"L", _int(n), None, _int(max(n, 1)), None, byref(work), _QUERY,
            byref(iwork), _QUERY, byref(info), _CHAR, _CHAR)
    if info.value:
        raise LinAlgError(f"dsyevd's workspace query for order {n} failed (info {info.value})")
    return int(work.value), iwork.value


def _syevd(A: np.ndarray, jobz: bytes) -> np.ndarray:
    """The eigenvalues from LAPACK's dsyevd on the lower triangle of A, in
    A's buffer, which holds the eigenvectors after ``jobz`` b"V": a
    workspace query, then the decomposition."""
    n = _check_square(A)
    lwork, liwork = _workspace(n, jobz)
    eigenvalues, work, iwork = np.empty(n), np.empty(lwork), np.empty(liwork, np.intc)
    info = c_int()
    _dsyevd(jobz, b"L", _int(n), _data(A), _int(max(n, 1)), _data(eigenvalues), _data(work),
            _int(lwork), _data(iwork), _int(liwork), byref(info), _CHAR, _CHAR)
    if info.value:
        raise LinAlgError(f"dsyevd failed on an eigendecomposition of order {n} "
                          f"(info {info.value})")
    return eigenvalues


def dposv(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """LAPACK's Cholesky factor-and-solve of A x = b on A's lower triangle,
    as ``(x, info)``, with the bits of SciPy's
    ``dposv(A, b, lower=1, overwrite_a=1)``.

    A must be a Fortran-contiguous n x n float64 array: it is overwritten
    with its Cholesky factor.  b, of n rows and one or two dimensions, is
    left as it is; x is a Fortran-order copy of it holding the solution.
    A nonzero info means A is not positive definite (or an argument is
    wrong), and x is then not a solution.  Raises ValueError for another
    layout of A and for a b of another number of rows.
    """
    n = _check_square(A)
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"expected a right-hand side of {n} rows, got shape {b.shape}")
    x = np.array(b, dtype=np.float64, order="F")
    info = c_int()
    _dposv(b"L", _int(n), _int(1 if b.ndim == 1 else b.shape[1]), _data(A), _int(max(n, 1)),
           _data(x), _int(max(n, 1)), byref(info), _CHAR)
    return x, info.value


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x``, with its bits, for a 2-D A and a 1-D x.

    NumPy's matmul hands a one-row A to its ddot, and a C- or
    Fortran-contiguous float64 A with two or more columns to its dgemv,
    with the transpose flag that reads A in place; the same calls are made
    here.  Any other A is ``A @ x`` itself.
    """
    m, n = A.shape
    if m == 1:
        return np.array([dot(A[0], x)])
    if (m and n > 1 and x.shape == (n,) and A.dtype == x.dtype == _FLOAT64
            and x.flags.c_contiguous):
        flags = A.flags
        if flags.c_contiguous:  # A.T is Fortran-order n x m
            trans, rows, cols = b"T", n, m
        elif flags.f_contiguous:
            trans, rows, cols = b"N", m, n
        else:
            return A @ x
        y = np.zeros(m)
        lda = _int(rows)
        _dgemv(trans, lda, _int(cols), _ALPHA, _data(A), lda, _data(x), _ONE, _BETA,
               _data(y), _ONE, _CHAR)
        return y
    return A @ x


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """``x @ y`` for 1-D x and y, with its bits: ddot where both are
    contiguous float64 vectors, as NumPy calls its own, and ``x @ y``
    itself otherwise."""
    if (x.dtype == y.dtype == _FLOAT64 and x.shape == y.shape and 0 < x.size < _DOT_CHUNK
            and x.flags.c_contiguous and y.flags.c_contiguous):
        # NumPy adds the ddot to a sum that starts at 0.0
        return 0.0 + _ddot(_int(x.size), _data(x), _ONE, _data(y), _ONE)
    return float(x @ y)
