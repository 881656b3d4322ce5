import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from kare import kernels
from kare.kernels import (
    FAMILIES,
    KernelSpec,
    cross_gram,
    distances,
    from_distances,
    gram_matrix,
    kernel_eval,
)
from kare.spectral import NumericalError, check_gram


def test_same_point_is_one():
    spec = KernelSpec("rbf", 1.0)
    assert kernel_eval(spec, [0.3, -1.2], [0.3, -1.2]) == 1.0


def test_rbf_unit_distance():
    spec = KernelSpec("rbf", 1.0)
    assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_laplacian_345_triangle():
    spec = KernelSpec("laplacian", 2.0)
    value = kernel_eval(spec, [0.0, 0.0], [3.0, 4.0])
    assert value == pytest.approx(math.exp(-2.5), rel=1e-12)


def test_l1_kernel():
    spec = KernelSpec("l1exp", 2.0)
    value = kernel_eval(spec, [0.0, 0.0], [3.0, -4.0])
    assert value == pytest.approx(math.exp(-3.5), rel=1e-12)


def test_bad_family_and_lengthscale():
    with pytest.raises(ValueError):
        KernelSpec("cosine", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("rbf", 0.0)
    with pytest.raises(ValueError, match="unknown kernel family 'cosine'"):
        distances("cosine", np.zeros((2, 1)), np.zeros((2, 1)))


def test_dimension_mismatch():
    spec = KernelSpec("rbf", 1.0)
    with pytest.raises(ValueError):
        kernel_eval(spec, [0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        cross_gram(spec, np.zeros((2, 3)), np.zeros((4, 2)))


@pytest.mark.parametrize("family", FAMILIES)
def test_gram_matrix_rejects_zero_points(family):
    with pytest.raises(ValueError, match="^need at least one point$"):
        gram_matrix(KernelSpec(family, 1.0), np.empty((0, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        gram_matrix(KernelSpec(family, 1.0), np.array([[0.0], [np.nan]]))


def test_gram_single_point():
    G = gram_matrix(KernelSpec("laplacian", 0.5), np.array([[2.0, 3.0]]))
    assert G.shape == (1, 1) and G[0, 0] == 1.0


def test_gram_two_points_rbf():
    G = gram_matrix(KernelSpec("rbf", 1.0), np.array([[0.0], [1.0]]))
    expected = np.array([[1.0, math.exp(-1)], [math.exp(-1), 1.0]])
    np.testing.assert_allclose(G, expected, rtol=1e-12)


def test_gram_duplicate_rows():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    G = gram_matrix(KernelSpec("rbf", 3.0), X)
    assert G[0, 1] == 1.0 and G[1, 0] == 1.0


def test_cross_gram_matches_gram():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((7, 3))
    for family in FAMILIES:
        spec = KernelSpec(family, 2.0)
        np.testing.assert_allclose(cross_gram(spec, X, X), gram_matrix(spec, X),
                                   rtol=0, atol=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 3, 20])
def test_raw_distances_exactly_symmetric(monkeypatch, family, dim):
    # gram_matrix relies on this instead of symmetrizing.  A small block
    # size puts (i, j) and (j, i) in different distance blocks.
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 2 * 11 * dim)
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((8, dim)) * 10.0 ** rng.integers(-3, 4, (8, 1))
    X = np.vstack([X, X[[0, 0, 5]]])  # duplicate rows
    D = distances(family, X, X)
    assert np.array_equal(D, D.T)
    assert np.all(np.diag(D) == 0.0)
    assert D[0, 8] == D[8, 9] == D[5, 10] == 0.0
    spec = KernelSpec(family, 1.3)
    G = gram_matrix(spec, X)
    assert np.array_equal(G, G.T) and np.all(np.diag(G) == 1.0)
    assert np.array_equal(G, from_distances(spec, D))
    assert np.array_equal(cross_gram(spec, X, X), G)


def test_cross_gram_single_test_point():
    spec = KernelSpec("rbf", 1.0)
    row = cross_gram(spec, np.array([[0.0]]), np.array([[0.0], [1.0]]))
    np.testing.assert_allclose(row, [[1.0, math.exp(-1)]], rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.floats(0.05, 100),
)
def test_symmetry_and_range(family, xs, ys, lengthscale):
    dim = min(len(xs), len(ys))
    x, y = np.array(xs[:dim]), np.array(ys[:dim])
    # exp underflows to exactly 0.0 once the exponent passes ~745; keep
    # the property on the representable domain
    diff = x - y
    raw = float(diff @ diff) if xs != ys else 0.0
    assume(raw / lengthscale < 700)
    spec = KernelSpec(family, lengthscale)
    forward = kernel_eval(spec, x, y)
    assert kernel_eval(spec, y, x) == forward
    assert 0.0 < forward <= 1.0


def test_symmetry_random_pairs_all_families():
    rng = np.random.default_rng(1)
    for family in FAMILIES:
        spec = KernelSpec(family, 1.7)
        for _ in range(1000):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            v = kernel_eval(spec, x, y)
            assert v == kernel_eval(spec, y, x)
            assert 0.0 < v <= 1.0


def test_rbf_rescaling_consistency():
    # scaling inputs by sqrt(s) and the lengthscale by s leaves G unchanged
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 4))
    for s in (0.25, 9.0):
        G1 = gram_matrix(KernelSpec("rbf", 1.3), X)
        G2 = gram_matrix(KernelSpec("rbf", 1.3 * s), X * math.sqrt(s))
        np.testing.assert_allclose(G1, G2, rtol=1e-12)


def test_gram_psd_random_datasets():
    rng = np.random.default_rng(3)
    for family in FAMILIES:
        for _ in range(50):
            n = int(rng.integers(2, 201))
            d = int(rng.integers(1, 6))
            X = rng.standard_normal((n, d)) * rng.uniform(0.1, 5)
            spec = KernelSpec(family, float(rng.uniform(0.2, 10)))
            eigenvalues = np.linalg.eigvalsh(gram_matrix(spec, X))
            assert eigenvalues[0] >= -1e-8 * n


def test_non_finite_points_and_lengthscale_rejected():
    from kare import krr
    from kare.estimators import cross_validation_risk

    spec = KernelSpec("rbf", 1.0)
    X = np.random.default_rng(4).standard_normal((6, 2))
    X_bad = X.copy()
    X_bad[2, 1] = np.nan
    y = np.ones(6)
    for call in (
        lambda: gram_matrix(spec, X_bad),
        lambda: cross_gram(spec, X_bad, X),
        lambda: cross_gram(spec, X, X_bad),
        lambda: krr.fit(spec, X_bad, y, 0.1),
        lambda: cross_validation_risk(spec, X_bad, y, 0.1, 2),
    ):
        with pytest.raises(ValueError, match="non-finite coordinates"):
            call()
    for lengthscale in (np.inf, np.nan):
        with pytest.raises(ValueError, match="lengthscale"):
            KernelSpec("rbf", lengthscale)


def _distances_row_by_row(family, X, Y):
    """Reference: one row of X at a time, with no blocking."""
    out = np.empty((X.shape[0], Y.shape[0]))
    for a, x in enumerate(X):
        diff = x - Y
        if family == "l1exp":
            out[a] = np.abs(diff).sum(axis=1)
        else:
            out[a] = np.square(diff).sum(axis=1)
            if family == "laplacian":
                out[a] = np.sqrt(out[a])
    return out


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("dim", [1, 3, 20])
@pytest.mark.parametrize("same", [True, False], ids=["X-is-Y", "X-not-Y"])
@pytest.mark.parametrize("cap", ["default", "one-row", "ragged"])
def test_distances_bit_identical_to_row_by_row(monkeypatch, family, dim, same, cap):
    # The block size sets only how many rows share a temporary, never
    # how a row is summed.  130 rows of X make a ragged last block at 3
    # rows per block, and at the default cap when d = 20 (23 or 25 rows).
    rng = np.random.default_rng(dim)
    X = rng.standard_normal((130, dim)) * 10.0 ** rng.integers(-3, 4, (130, 1))
    Y = X if same else rng.standard_normal((140, dim)) * 10.0 ** rng.integers(-3, 4, (140, 1))
    m = Y.shape[0]
    if cap != "default":
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1 if cap == "one-row" else 3 * m * dim)
    D = distances(family, X, Y)
    assert np.array_equal(D, _distances_row_by_row(family, X, Y))
    if same:  # one triangle, mirrored; a copy of X has every entry computed
        assert D.tobytes() == distances(family, X, X.copy()).tobytes()
        assert np.array_equal(D, D.T)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 200, 300])
@pytest.mark.parametrize("cap", ["default", "one-row", "ragged"])
def test_packed_and_in_place_grams_have_the_unmirrored_bits(monkeypatch, family, n, cap):
    # The unmirrored route (Y a copy of X) computes every entry and makes
    # a new array of kernel values.  The sweep's flat strips, exponentiated
    # into a Gram and mirrored, and distances(X, X) and gram_matrix, which
    # compute their strips in place, must give its bytes.  The ragged cap
    # gives the latter two 3-row blocks, so n = 64, 65, 130 and 200 end in
    # a short strip; at the default cap their blocks do so at n = 200 and
    # 300 (109 and 72 rows).  The flat strips' max(1, n // 64) cap leaves
    # them 1 to 3 rows, a short last strip at n = 200 under both caps.
    # Rows 1, 5, 9, ... duplicate row 0.
    if cap != "default":
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1 if cap == "one-row" else 9 * n)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3)) * 10.0 ** rng.integers(-2, 2, (n, 1))
    X[1::4] = X[0]
    spec = KernelSpec(family, 1.3)
    D = kernels._raw_distances(family, X, X.copy())
    assert distances(family, X, X).tobytes() == D.tobytes()
    strips, rows = kernels._strip_distances(family, X, flat=True)
    assert strips.ndim == 1 and 1 <= rows <= max(1, n // 64)
    # The upper triangle plus the diagonal blocks' lower halves, which
    # take at most (rows - 1) / 2 floats per row.
    halves = sum(b * (b - 1) // 2 for b in np.diff([*range(0, n, rows), n]))
    assert strips.size == n * (n + 1) // 2 + halves
    assert 2 * strips.size <= n * (n + 1) + n * (rows - 1)
    expected = from_distances(spec, D).tobytes()
    for G in (kernels._gram_from_strips(spec, strips, rows, np.empty((n, n))),
              gram_matrix(spec, X)):
        assert G.shape == (n, n) and G.flags.c_contiguous
        assert G.tobytes() == expected
        assert np.array_equal(G, G.T) and np.all(np.diag(G) == 1.0)


_OVERFLOWING_PAIR = ([[1e308, -1e308]], [[0.0, 0.0]])
_DISTANCE_NAMES = [("rbf", "squared L2 distance"), ("laplacian", "L2 distance"),
                  ("l1exp", "L1 distance")]


@pytest.mark.parametrize("family, name", _DISTANCE_NAMES)
def test_overflowing_distance_raises_naming_it(family, name):
    # Before, NumPy warned "overflow encountered" and the distance was
    # inf, so the kernel entry silently became exp(-inf) = 0.
    message = f"^{family} kernel: {name} is not representable in float64$"
    with pytest.raises(NumericalError, match=message):
        distances(family, *_OVERFLOWING_PAIR)
    with pytest.raises(NumericalError, match=message):
        gram_matrix(KernelSpec(family, 1.0), np.vstack(_OVERFLOWING_PAIR))


@pytest.mark.parametrize("family, name", _DISTANCE_NAMES)
def test_packed_distances_check_points_and_distances_as_distances_does(family, name):
    message = f"^{family} kernel: {name} is not representable in float64$"
    with pytest.raises(NumericalError, match=message):
        kernels._strip_distances(family, np.vstack(_OVERFLOWING_PAIR), flat=True)
    with pytest.raises(ValueError, match="non-finite coordinates"):
        kernels._strip_distances(family, [[0.0], [np.inf]], flat=True)
    with pytest.raises(ValueError, match="unknown kernel family"):
        kernels._strip_distances("cosine", [[0.0]], flat=True)


@pytest.mark.parametrize("family", FAMILIES)
def test_overflowing_ratio_to_the_lengthscale_gives_zero(family):
    # A finite distance over a tiny lengthscale overflows the division;
    # exp(-inf) = 0 is the limit, taken without a RuntimeWarning.
    assert cross_gram(KernelSpec(family, 1e-300), [[0.0]], [[1e10]]).tolist() == [[0.0]]


def _traced_peak(call) -> int:
    """Peak bytes that call() allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_build_scratch_is_bounded():
    # At n = 1000, d = 20 the old 32 MB distance blocks took 62.7 MB of
    # scratch beyond the 8 MB result, and the symmetry check's G - G.T
    # 15.3 MB.  gram_matrix and cross_gram exponentiate their own
    # distances in place; a new array for the kernel values took another
    # 8 MB.
    rng = np.random.default_rng(0)
    X, X_test = rng.standard_normal((1000, 20)), rng.standard_normal((1000, 20))
    result_bytes = 1000 * 1000 * 8
    for family in FAMILIES:
        spec = KernelSpec(family, 20.0)
        for build in (lambda: distances(family, X, X), lambda: gram_matrix(spec, X),
                      lambda: cross_gram(spec, X_test, X)):
            assert _traced_peak(build) - result_bytes <= 2 * 2**20
    G = gram_matrix(KernelSpec("rbf", 20.0), X)
    assert _traced_peak(lambda: check_gram(G)) <= 2 * 2**20
