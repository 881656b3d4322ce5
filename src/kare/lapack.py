"""SciPy OpenBLAS's dsyevd, dposv, dgemv and ddot as ctypes foreign
functions (Fortran LP64 ABI), so that kare's eigendecompositions and a
sweep's products and solves run on one OpenBLAS.  ``LIBRARY`` names the
file bound, or "f2py capsules".  Each routine has the bits of the NumPy or
SciPy call its docstring names.
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
    """The path of ``scipy.libs/libscipy_openblas*.so`` beside ``scipy``, or None."""
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
    """The foreign functions of ``_ROUTINES``, in order, and ``LIBRARY``.
    Raises ImportError naming ``scipy.linalg._flapack`` where neither the
    bundled library nor SciPy's f2py wrappers load."""
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
    # No argtypes: the callers below check and build every argument.
    return [CFUNCTYPE(restype)(address)
            for (restype, _), address in zip(_ROUTINES.values(), addresses)], source


(_dsyevd, _dposv, _dgemv, _ddot), LIBRARY = _bind()

_FLOAT64 = np.dtype(np.float64)

# ``_data(a)`` is a's data pointer; the caller holds a until the call returns.
# It is read after the object header (PyArrayObject_fields); the probe checks
# that layout at import, else the array interface gives the pointer.
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
    """A reference to a new C int holding value, which the routine only reads."""
    return byref(c_int(value))


_ONE, _QUERY = _int(1), _int(-1)
_ALPHA, _BETA = byref(c_double(1.0)), byref(c_double(0.0))
_CHAR = c_size_t(1)  # the hidden length of each character argument

# dsyevd's eigenvector workspace, 1 + 6n + 2n^2 floats, must fit SciPy's
# 32-bit integers: LAPACK's query wraps without an error.
_MAX_WORKSPACE = 2**31 - 1

# NumPy's x @ y calls ddot on at most this many entries at a time.
_DOT_CHUNK = 2**30

# Side of the square tiles in which ``eigh`` transposes its eigenvectors.
_TILE = 64


def check_order(n: int) -> int:
    """n; raises ValueError naming n when n >= 32,767, whose ``eigh``
    workspace exceeds SciPy's 32-bit sizes."""
    if 1 + 6 * n + 2 * n * n > _MAX_WORKSPACE:
        raise ValueError(f"an eigendecomposition of order {n} needs a LAPACK workspace of "
                         f"more than 2**31 - 1 floats; the order must be at most 32766")
    return n


def eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(A)``, with its bits: the ascending eigenvalues and the
    C-order eigenvectors of the symmetric matrix whose lower triangle is A's.

    A, a Fortran-contiguous n x n float64 array, is overwritten: it ends up
    holding ``vectors.T``, and ``vectors`` is a C-order view of it (C order,
    since ``matvec`` on Fortran order calls a gemv kernel with other bits).
    Raises ValueError for another layout and when ``check_order`` does, and
    LinAlgError when LAPACK reports a failure.
    """
    check_order(A.shape[0])
    eigenvalues = _syevd(A, b"V")
    return eigenvalues, _transpose_in_place(A).T


def _transpose_in_place(A: np.ndarray) -> np.ndarray:
    """A, a square array, overwritten with A.T, tile by tile."""
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
    """``np.linalg.eigvalsh(A)``, with its bits.  A, a Fortran-contiguous
    n x n float64 array, is overwritten.  Raises as ``eigh`` does, except
    that ``check_order`` does not apply.
    """
    return _syevd(A, b"N")


def _check_square(A: np.ndarray) -> int:
    """A's order; raises ValueError unless A is a Fortran-contiguous square float64 array."""
    n = A.shape[0]
    if A.dtype != _FLOAT64 or A.shape != (n, n) or not A.flags.f_contiguous:
        raise ValueError(f"expected a Fortran-contiguous square float64 array, "
                         f"got {A.dtype} with shape {A.shape}")
    return n


def _workspace(n: int, jobz: bytes) -> tuple[int, int]:
    """dsyevd's workspace sizes (lwork, liwork) for order n, from LAPACK's
    query: the size sets dsytrd's blocking, so NumPy's bits need it."""
    work, iwork, info = c_double(), c_int(), c_int()
    _dsyevd(jobz, b"L", _int(n), None, _int(max(n, 1)), None, byref(work), _QUERY,
            byref(iwork), _QUERY, byref(info), _CHAR, _CHAR)
    if info.value:
        raise LinAlgError(f"dsyevd's workspace query for order {n} failed (info {info.value})")
    return int(work.value), iwork.value


def _syevd(A: np.ndarray, jobz: bytes) -> np.ndarray:
    """The eigenvalues of dsyevd on A's lower triangle; with ``jobz`` b"V"
    A then holds the eigenvectors."""
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
    """``(x, info)`` of the Cholesky solve of A x = b on A's lower triangle,
    with the bits of SciPy's ``dposv(A, b, lower=1, overwrite_a=1)``.

    A, a Fortran-contiguous n x n float64 array, is overwritten with its
    factor; b (n rows, 1-D or 2-D) is not.  A nonzero info means A is not
    positive definite, and x is then not a solution.  Raises ValueError for
    another layout of A or another number of rows in b.
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
    """``A @ x``, with its bits, for a 2-D A and a 1-D x: the ddot or dgemv
    call NumPy's matmul makes, or ``A @ x`` itself for another layout."""
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
    """``x @ y`` for 1-D x and y, with its bits."""
    if (x.dtype == y.dtype == _FLOAT64 and x.shape == y.shape and 0 < x.size < _DOT_CHUNK
            and x.flags.c_contiguous and y.flags.c_contiguous):
        # NumPy adds the ddot to a sum that starts at 0.0
        return 0.0 + _ddot(_int(x.size), _data(x), _ONE, _data(y), _ONE)
    return float(x @ y)
