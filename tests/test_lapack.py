"""kare.lapack against NumPy as the reference: every routine has the bits
of the NumPy expression it stands for."""

import numpy as np
import pytest

from kare import lapack
from kare.estimators import TrueFunction
from kare.kernels import KernelSpec, gram_matrix
from kare.sct import power_law_spectrum
from kare.synthetic import draw


def _gram(family: str, n: int) -> np.ndarray:
    X = np.random.default_rng(n).standard_normal((n, 4))
    return gram_matrix(KernelSpec(family, 4.0), X) / n


def _draw_gram() -> np.ndarray:
    # A Monte Carlo draw's Gram: 40 points, fewer than its 60 modes.
    spec = power_law_spectrum(2.0, 60)
    return draw(spec, TrueFunction(np.ones(60), 0.1), 40, 3).G / 40


MATRICES = {**{f"{family}-{n}": (family, n) for family in ("rbf", "laplacian", "l1exp")
               for n in (60, 400)}, "draw-40": None}


@pytest.mark.parametrize("name", MATRICES)
def test_eigh_has_numpys_bits_and_overwrites_its_input(name, monkeypatch):
    G = _draw_gram() if MATRICES[name] is None else _gram(*MATRICES[name])
    expected_values, expected_vectors = np.linalg.eigh(G)
    returned, original = [], lapack._dsyevd

    def dsyevd(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]
    monkeypatch.setattr(lapack, "_dsyevd", dsyevd)
    A = np.asfortranarray(G)
    values, vectors = lapack.eigh(A)
    np.testing.assert_array_equal(values, expected_values)
    np.testing.assert_array_equal(vectors, expected_vectors)
    assert vectors.flags.c_contiguous and not np.shares_memory(vectors, A)
    # LAPACK wrote the eigenvectors into A's buffer: no copy of A was made.
    assert np.shares_memory(returned[0][1], A)
    np.testing.assert_array_equal(A, vectors)


def test_eigh_reads_the_lower_triangle_as_numpy_does():
    G = _gram("rbf", 60)
    G[0, 5] += 1e-9
    for got, expected in zip(lapack.eigh(np.asfortranarray(G)), np.linalg.eigh(G)):
        np.testing.assert_array_equal(got, expected)


def test_eigh_rejects_a_layout_it_would_copy():
    G = _gram("rbf", 60)
    for A in (G, G.astype(np.float32).T, np.asfortranarray(G)[:, :59]):
        with pytest.raises(ValueError, match="Fortran-contiguous square float64"):
            lapack.eigh(A)


def test_eigh_order_limit_is_checked_before_lapack(monkeypatch):
    # 1 + 6n + 2n^2 floats of workspace fit in 2**31 - 1 at n = 32766 and
    # not at 32767.  A zero-stride view stands in for the matrix, and
    # LAPACK is never called.
    def never(*args, **kwargs):
        raise AssertionError("LAPACK called")
    monkeypatch.setattr(lapack, "_dsyevd_lwork", never)
    monkeypatch.setattr(lapack, "_dsyevd", never)
    assert lapack.check_order(32766) == 32766
    with pytest.raises(ValueError, match="order 32767 .* at most 32766"):
        lapack.check_order(32767)
    huge = np.lib.stride_tricks.as_strided(np.zeros(1), (32767, 32767), (0, 0))
    with pytest.raises(ValueError, match="order 32767"):
        lapack.eigh(huge)


def test_eigh_raises_when_lapack_reports_a_failure(monkeypatch):
    # A nonzero info from dsyevd is a LinAlgError; a failed workspace
    # query raises before dsyevd is called with a wrong workspace.
    A = np.asfortranarray(_gram("rbf", 60))
    monkeypatch.setattr(lapack, "_dsyevd", lambda a, **kwargs: (None, a, 31))
    with pytest.raises(lapack.LinAlgError, match=r"dsyevd failed .* order 60 \(info 31\)"):
        lapack.eigh(A)

    def never(*args, **kwargs):
        raise AssertionError("dsyevd called")
    monkeypatch.setattr(lapack, "_dsyevd", never)
    monkeypatch.setattr(lapack, "_dsyevd_lwork", lambda **kwargs: (0.0, 0, -1))
    with pytest.raises(lapack.LinAlgError, match=r"workspace query for order 60 failed \(info -1\)"):
        lapack.eigh(A)


@pytest.mark.parametrize("family", ["rbf", "laplacian", "l1exp"])
@pytest.mark.parametrize("n", [60, 400])
def test_eigvalsh_has_numpys_bits_and_overwrites_its_input(family, n, monkeypatch):
    G = _gram(family, n)
    returned, original = [], lapack._dsyevd

    def dsyevd(*args, **kwargs):
        returned.append(original(*args, **kwargs))
        return returned[-1]
    monkeypatch.setattr(lapack, "_dsyevd", dsyevd)
    A = np.asfortranarray(G)
    np.testing.assert_array_equal(lapack.eigvalsh(A), np.linalg.eigvalsh(G))
    # The values-only dsyevd ran once, in A's buffer.
    assert len(returned) == 1 and np.shares_memory(returned[0][1], A)


def test_eigvalsh_rejects_a_layout_it_would_copy_and_a_failure(monkeypatch):
    G = _gram("rbf", 60)
    for A in (G, G.astype(np.float32).T, np.asfortranarray(G)[:, :59]):
        with pytest.raises(ValueError, match="Fortran-contiguous square float64"):
            lapack.eigvalsh(A)
    monkeypatch.setattr(lapack, "_dsyevd", lambda a, **kwargs: (None, a, 7))
    with pytest.raises(lapack.LinAlgError, match=r"dsyevd failed .* order 60 \(info 7\)"):
        lapack.eigvalsh(np.asfortranarray(G))


@pytest.mark.parametrize("n", [60, 21, 20, 8])
def test_eigh_has_numpys_bits_on_a_draws_product(n):
    # A draw of 20 modes decomposes U^T U / n (M x M) when n > M and
    # U U^T / n (n x n) when n <= M.  NumPy's syrk mirrors either product,
    # so it equals its transpose bit for bit and that Fortran-order view is
    # decomposed in place.
    dr = draw(power_law_spectrum(2.0, 20), TrueFunction(np.ones(20), 0.1), n, 5)
    U = dr.O * np.sqrt(dr.d)
    B = U.T @ U / n if n > 20 else U @ U.T / n
    np.testing.assert_array_equal(B, B.T)
    expected = np.linalg.eigh(B)
    for got, want in zip(lapack.eigh(B.T), expected):
        np.testing.assert_array_equal(got, want)


class _CountedBlas:
    """SciPy's BLAS module, counting the calls that go through it."""

    def __init__(self, blas):
        self.blas, self.calls = blas, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append(name)
            return getattr(self.blas, name)(*args, **kwargs)
        return call


@pytest.mark.parametrize("m, n", [(300, 200), (200, 300), (1, 50), (50, 1), (1, 1), (7, 0)])
def test_matvec_is_matmul(m, n, monkeypatch):
    # C- and Fortran-order matrices and one row, which NumPy hands to its
    # BLAS, go to SciPy's; a padded or reversed view, one column or an
    # empty side is A @ x itself.
    blas = _CountedBlas(lapack._blas)
    monkeypatch.setattr(lapack, "_blas", blas)
    rng = np.random.default_rng(m * 1000 + n)
    x = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    layouts = {"C": A, "F": np.asfortranarray(A),
               "padded": rng.standard_normal((m, n + 3))[:, 1:n + 1], "reversed": A[:, ::-1]}
    for name, A in layouts.items():
        blas.calls.clear()
        np.testing.assert_array_equal(lapack.matvec(A, x), A @ x, err_msg=name)
        y = rng.standard_normal(m)
        np.testing.assert_array_equal(lapack.matvec(A.T, y), A.T @ y, err_msg=name)
        if name in ("C", "F") and m * n:
            routines = ("ddot" if rows == 1 else "dgemv" if cols > 1 else None
                        for rows, cols in ((m, n), (n, m)))
            assert blas.calls == [routine for routine in routines if routine], name
    A = rng.standard_normal((m, n))
    strided_x = np.repeat(x, 2)[::2]
    np.testing.assert_array_equal(lapack.matvec(A, strided_x), A @ strided_x)


@pytest.mark.parametrize("n", [1, 7, 64, 257, 1000, 4099])
def test_dot_and_norm_are_numpys(n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert lapack.dot(x, y) == x @ y
    assert lapack.dot(x[::-1], y) == x[::-1] @ y
    X = rng.standard_normal((n, 3))
    assert lapack.dot(X[:, 0], X[:, 1]) == X[:, 0] @ X[:, 1]
    G = _gram("rbf", min(n, 300))
    for M in (G, np.asfortranarray(G)):
        flat = M.ravel(order="K")
        assert np.sqrt(lapack.dot(flat, flat)) == np.linalg.norm(M)
    assert lapack.dot(np.zeros(0), np.zeros(0)) == 0.0
