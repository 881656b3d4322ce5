"""kare.lapack against NumPy and SciPy's own wrappers as the references:
every routine has the bits of the NumPy expression or SciPy call it stands
for."""

import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg

from kare import lapack
from kare.estimators import TrueFunction
from kare.kernels import KernelSpec, gram_matrix
from kare.krr import ridge_solve
from kare.sct import power_law_spectrum
from kare.spectral import NumericalError
from kare.synthetic import draw


def _gram(family: str, n: int) -> np.ndarray:
    X = np.random.default_rng(n).standard_normal((n, 4))
    return gram_matrix(KernelSpec(family, 4.0), X) / n


def _draw_gram() -> np.ndarray:
    # A Monte Carlo draw's Gram: 40 points, fewer than its 60 modes.
    spec = power_law_spectrum(2.0, 60)
    return draw(spec, TrueFunction(np.ones(60), 0.1), 40, 3).G / 40


def _draw_product() -> np.ndarray:
    # U^T U / n of a draw of 100 modes at n = 150, the M x M product a draw
    # with n > M decomposes: NumPy's syrk mirrors it exactly.
    dr = draw(power_law_spectrum(2.0, 100), TrueFunction(np.ones(100), 0.1), 150, 7)
    U = dr.O * np.sqrt(dr.d)
    return U.T @ U / 150


# dsyevd(jobz, uplo, n, a, lda, w, work, lwork, iwork, liwork, info, ...):
# the positions of its arguments that the tests read.
_A, _LWORK, _INFO = 3, 7, 10


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def _recorded(monkeypatch, *names: str) -> list[tuple[str, tuple]]:
    """(name, arguments) of each later call of kare.lapack's foreign
    functions ``names``, in order; the functions still run."""
    calls = []

    def recording(name, function):
        def record(*args):
            calls.append((name, args))
            return function(*args)
        return record
    for name in names:
        monkeypatch.setattr(lapack, name, recording(name, getattr(lapack, name)))
    return calls


def _decompositions(calls: list[tuple[str, tuple]]) -> list[tuple]:
    """The arguments of the dsyevd calls that decompose, not of the
    workspace queries."""
    return [args for name, args in calls
            if name == "_dsyevd" and args[_LWORK] is not lapack._QUERY]


def _reporting(monkeypatch, info: int):
    """Make each decomposing dsyevd run and then report ``info``, as LAPACK
    reports a failure."""
    function = lapack._dsyevd

    def dsyevd(*args):
        function(*args)
        if args[_LWORK] is not lapack._QUERY:
            args[_INFO]._obj.value = info
    monkeypatch.setattr(lapack, "_dsyevd", dsyevd)


# The vectors are transposed in square tiles of 64: the laplacian orders
# fall below, at and just past one tile, and on two tiles and a part.
MATRICES = {**{f"{family}-{n}": partial(_gram, family, n)
               for family in ("rbf", "laplacian", "l1exp") for n in (60, 400)},
            **{f"laplacian-{n}": partial(_gram, "laplacian", n) for n in (1, 63, 64, 65, 130)},
            "draw-40": _draw_gram, "draw-product-100": _draw_product}


@pytest.mark.parametrize("name", MATRICES)
def test_eigh_has_numpys_bits_and_overwrites_its_input(name, monkeypatch):
    G = MATRICES[name]()
    expected_values, expected_vectors = np.linalg.eigh(G)
    calls = _recorded(monkeypatch, "_dsyevd")
    A = np.asfortranarray(G)
    values, vectors = lapack.eigh(A)
    np.testing.assert_array_equal(values, expected_values)
    np.testing.assert_array_equal(vectors, expected_vectors)
    # LAPACK wrote the eigenvectors into A's buffer, no copy of A was made,
    # and the C-order vectors are a view of that buffer, transposed in place.
    [call] = _decompositions(calls)
    assert call[_A].value == _address(A)
    assert vectors.flags.c_contiguous and np.shares_memory(vectors, A)
    np.testing.assert_array_equal(A, vectors.T)


def _check_eigh_memory(n: int) -> None:
    """One traced ``eigh`` of an n x n Gram: only the eigenvalues outlive
    the call, and NumPy's C-order copy of the vectors would add n^2 floats.
    At its peak the call holds dsyevd's workspace, 1 + 6n + 2n^2 floats,
    and O(n) besides."""
    A = np.asfortranarray(_gram("rbf", n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values, vectors = lapack.eigh(A)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(vectors, A)
    assert after - before <= 2 * n * 8
    assert peak - before <= (1 + 6 * n + 2 * n * n + 16 * n) * 8


def test_eigh_allocates_no_n_by_n_array_besides_lapacks_workspace():
    _check_eigh_memory(300)


def test_eigh_retains_nothing_after_many_distinct_lapack_integers():
    # Each LAPACK integer argument is made fresh for its call, so no table
    # of earlier arguments grows during a later call.  After 84 distinct
    # values, each eigh of a new order (its own n, lwork and liwork are
    # new values too) still keeps the bounds, whatever ran before.
    for value in range(1000, 1084):
        lapack._int(value)
    for n in range(100, 160):
        _check_eigh_memory(n)


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
    _reporting(monkeypatch, 31)
    with pytest.raises(lapack.LinAlgError, match=r"dsyevd failed .* order 60 \(info 31\)"):
        lapack.eigh(A)

    def failed_query(*args):
        if args[_LWORK] is not lapack._QUERY:
            raise AssertionError("dsyevd called")
        args[_INFO]._obj.value = -1
    monkeypatch.setattr(lapack, "_dsyevd", failed_query)
    with pytest.raises(lapack.LinAlgError, match=r"workspace query for order 60 failed \(info -1\)"):
        lapack.eigh(A)


@pytest.mark.parametrize("family", ["rbf", "laplacian", "l1exp"])
@pytest.mark.parametrize("n", [60, 400])
def test_eigvalsh_has_numpys_bits_and_overwrites_its_input(family, n, monkeypatch):
    G = _gram(family, n)
    calls = _recorded(monkeypatch, "_dsyevd")
    A = np.asfortranarray(G)
    np.testing.assert_array_equal(lapack.eigvalsh(A), np.linalg.eigvalsh(G))
    # The values-only dsyevd ran once, in A's buffer.
    [call] = _decompositions(calls)
    assert call[0] == b"N" and call[_A].value == _address(A)


def test_eigvalsh_rejects_a_layout_it_would_copy_and_a_failure(monkeypatch):
    G = _gram("rbf", 60)
    for A in (G, G.astype(np.float32).T, np.asfortranarray(G)[:, :59]):
        with pytest.raises(ValueError, match="Fortran-contiguous square float64"):
            lapack.eigvalsh(A)
    _reporting(monkeypatch, 7)
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


@pytest.mark.parametrize("m, n", [(300, 200), (200, 300), (1, 50), (50, 1), (1, 1), (7, 0)])
def test_matvec_is_matmul(m, n, monkeypatch):
    # C- and Fortran-order matrices and one row, which NumPy hands to its
    # BLAS, go to SciPy's; a padded or reversed view, one column or an
    # empty side is A @ x itself.
    calls = _recorded(monkeypatch, "_dgemv", "_ddot")
    rng = np.random.default_rng(m * 1000 + n)
    x = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    layouts = {"C": A, "F": np.asfortranarray(A),
               "padded": rng.standard_normal((m, n + 3))[:, 1:n + 1], "reversed": A[:, ::-1]}
    for name, A in layouts.items():
        calls.clear()
        np.testing.assert_array_equal(lapack.matvec(A, x), A @ x, err_msg=name)
        y = rng.standard_normal(m)
        np.testing.assert_array_equal(lapack.matvec(A.T, y), A.T @ y, err_msg=name)
        if name in ("C", "F") and m * n:
            routines = ("ddot" if rows == 1 else "dgemv" if cols > 1 else None
                        for rows, cols in ((m, n), (n, m)))
            assert [routine for routine, _ in calls] == [
                f"_{routine}" for routine in routines if routine], name
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


def test_every_eigh_and_eigvalsh_queries_its_workspace_then_decomposes(monkeypatch):
    # As NumPy and scipy.linalg.eigh do, each call queries LAPACK for its
    # workspace sizes and then makes one decomposing call: nothing is
    # remembered from an earlier call of the same order.
    calls = _recorded(monkeypatch, "_dsyevd")
    for _ in range(3):
        lapack.eigh(np.asfortranarray(_gram("rbf", 60)))
    lapack.eigvalsh(np.asfortranarray(_gram("rbf", 60)))
    assert [(args[0], args[_LWORK] is lapack._QUERY) for _, args in calls] == [
        (b"V", True), (b"V", False)] * 3 + [(b"N", True), (b"N", False)]


# SciPy's own f2py wrappers call the same OpenBLAS routines: each binding
# has their bits, through the bundled library and through the wrappers'
# function pointers.  The orders fall below, at and past one tile of the
# eigenvector transpose, and 375 is a sweep-cv fold.
ORDERS = [1, 2, 20, 63, 64, 65, 130, 375]


@pytest.fixture(params=["bundled", "capsules"])
def route(request, monkeypatch):
    """kare.lapack's routines on the bundled library, or on the function
    pointers of SciPy's wrappers, found as where no library is bundled."""
    if request.param == "bundled":
        if lapack.LIBRARY == "f2py capsules":
            pytest.skip("this SciPy bundles no OpenBLAS")
        return lapack.LIBRARY
    monkeypatch.setattr(lapack, "_bundled_library", lambda: None)
    functions, library = lapack._bind()
    for name, function in zip(("_dsyevd", "_dposv", "_dgemv", "_ddot"), functions):
        monkeypatch.setattr(lapack, name, function)
    return library


def test_the_library_is_named(route):
    assert route == "f2py capsules" or route.startswith("libscipy_openblas")


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("compute_v", [1, 0])
def test_dsyevd_is_scipys(route, n, compute_v):
    G = _gram("laplacian", n)
    work, iwork, _ = scipy.linalg.lapack.dsyevd_lwork(n, compute_v=compute_v, lower=1)
    expected_values, expected_vectors, info = scipy.linalg.lapack.dsyevd(
        G, compute_v=compute_v, lower=1, lwork=int(work), liwork=iwork)
    assert info == 0
    A = np.asfortranarray(G)
    np.testing.assert_array_equal(lapack._syevd(A, b"V" if compute_v else b"N"), expected_values)
    if compute_v:
        np.testing.assert_array_equal(A, expected_vectors)


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("columns", [None, 3])
def test_dposv_is_scipys(route, n, columns):
    # A 1-D right-hand side, as fit's labels, and a C-order 2-D one, as the
    # identities suite's dr.O.
    S = _gram("laplacian", n) + 0.1 * np.eye(n)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n if columns is None else (n, columns))
    factor, expected, info = scipy.linalg.lapack.dposv(S, b, lower=1)
    assert info == 0
    A, b_before = np.asfortranarray(S), b.copy()
    x, info = lapack.dposv(A, b)
    assert info == 0 and x.shape == b.shape and x.flags.f_contiguous
    np.testing.assert_array_equal(x, expected)
    np.testing.assert_array_equal(A, factor)
    np.testing.assert_array_equal(b, b_before)


@pytest.mark.parametrize("n", ORDERS)
def test_dgemv_is_scipys_with_either_transpose_flag(route, n, monkeypatch):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n + 1, n + 2))
    x, y = rng.standard_normal(n + 2), rng.standard_normal(n + 1)
    F = np.asfortranarray(A)
    calls = _recorded(monkeypatch, "_dgemv")
    gemv = scipy.linalg.blas.dgemv
    np.testing.assert_array_equal(lapack.matvec(F, x), gemv(1.0, F, x, trans=0))
    np.testing.assert_array_equal(lapack.matvec(A, x), gemv(1.0, A.T, x, trans=1))
    np.testing.assert_array_equal(lapack.matvec(F.T, y), gemv(1.0, F, y, trans=1))
    np.testing.assert_array_equal(lapack.matvec(A.T, y), gemv(1.0, A.T, y, trans=0))
    assert [args[0] for _, args in calls] == [b"N", b"T", b"T", b"N"]


@pytest.mark.parametrize("n", ORDERS)
def test_ddot_is_scipys(route, n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    assert lapack.dot(x, y) == scipy.linalg.blas.ddot(x, y)
    assert lapack.dot(x, x) == scipy.linalg.blas.ddot(x, x)


def test_an_indefinite_matrix_gets_scipys_dposv_info_and_names_the_ridge(route):
    G = _gram("rbf", 40)
    S = G - 0.5 * np.eye(40)
    y = np.random.default_rng(0).standard_normal(40)
    expected = scipy.linalg.lapack.dposv(S, y, lower=1)[2]
    assert expected > 0
    assert lapack.dposv(np.asfortranarray(S), y)[1] == expected
    with pytest.raises(NumericalError, match=r"^ridge 0\.001: \(1/n\)G \+ ridge I is not "
                                             r"positive definite in float64$"):
        ridge_solve(-40 * G, y, 1e-3)


def test_dposv_rejects_a_layout_it_would_copy():
    S = _gram("rbf", 30) + np.eye(30)
    b = np.ones(30)
    for A in (S, S.astype(np.float32).T, np.asfortranarray(S)[:, :29]):
        with pytest.raises(ValueError, match="Fortran-contiguous square float64"):
            lapack.dposv(A, b)
    with pytest.raises(ValueError, match=r"right-hand side of 30 rows, got shape \(29,\)"):
        lapack.dposv(np.asfortranarray(S), b[:29])
