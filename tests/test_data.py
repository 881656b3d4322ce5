import struct

import numpy as np
import pytest

from kare.data import (
    Dataset,
    FormatError,
    ParseError,
    load_csv,
    load_mnist_idx,
    preprocess_maxabs,
    preprocess_mnist,
    save_csv,
    split_train_test,
    subsample,
    write_csv,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_with_label_map(tmp_path):
    path = _write(tmp_path / "d.csv", "a,b,Label\n1,2,s\n3,4,b\n5,6,s\n")
    ds = load_csv(path, "Label", label_map={"s": 1, "b": -1})
    np.testing.assert_allclose(ds.y, [1.0, -1.0, 1.0])
    np.testing.assert_allclose(ds.X, [[1, 2], [3, 4], [5, 6]])
    assert ds.meta["feature_names"] == ["a", "b"]


def test_load_csv_numeric_labels_and_subset(tmp_path):
    path = _write(tmp_path / "d.csv", "a,b,c,y\n1,2,3,0.5\n4,5,6,-0.5\n")
    ds = load_csv(path, "y", feature_columns=["c", "a"])
    np.testing.assert_allclose(ds.X, [[3, 1], [6, 4]])
    np.testing.assert_allclose(ds.y, [0.5, -0.5])


def test_load_csv_sentinel_filter(tmp_path):
    path = _write(tmp_path / "d.csv", "a,b,y\n1,2,1\n-999,4,1\n5,6,-1\n")
    ds = load_csv(path, "y", drop_sentinel=True)
    assert ds.X.shape == (2, 2)
    np.testing.assert_allclose(ds.X, [[1, 2], [5, 6]])
    kept = load_csv(path, "y")
    assert kept.X.shape == (3, 2)


def test_load_csv_errors(tmp_path):
    empty = _write(tmp_path / "e.csv", "")
    with pytest.raises(ParseError, match="empty"):
        load_csv(empty, "y")
    missing = _write(tmp_path / "m.csv", "a,b\n1,2\n")
    with pytest.raises(ParseError, match="label column"):
        load_csv(missing, "y")
    bad_cell = _write(tmp_path / "c.csv", "a,y\n1,0\nx,1\n")
    with pytest.raises(ParseError, match=r"row 3.*'a'"):
        load_csv(bad_cell, "y")
    unmapped = _write(tmp_path / "u.csv", "a,y\n1,q\n")
    with pytest.raises(ParseError, match="unmapped"):
        load_csv(unmapped, "y", label_map={"s": 1})
    headers_only = _write(tmp_path / "h.csv", "a,y\n")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(headers_only, "y")


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    ds = Dataset(rng.standard_normal((7, 3)) * 1e3, rng.standard_normal(7),
                 {"feature_names": ["a", "b", "c"]})
    out = tmp_path / "rt.csv"
    save_csv(ds, out, label_column="y")
    back = load_csv(str(out), "y")
    np.testing.assert_array_equal(back.X, ds.X)
    np.testing.assert_array_equal(back.y, ds.y)


def test_csv_writer_cells_and_line_ends(tmp_path):
    out = tmp_path / "w.csv"
    write_csv(out, ("a", "b", "c"), [[0.1, None, 3], [np.float64(1 / 3), 2.0, "x"]])
    assert out.read_bytes() == b"a,b,c\n0.10000000000000001,,3\n0.33333333333333331,2,x\n"
    save_csv(Dataset(np.array([[0.1, 2.0]]), np.array([-1.0]), {}), out)
    assert out.read_bytes() == b"x0,x1,label\n0.10000000000000001,2,-1\n"


def test_save_csv_writes_the_bytes_of_the_per_cell_writer(tmp_path):
    # save_csv formats each row in one pass; its text is write_csv's,
    # cell by cell, down to the extreme values (a Dataset holds no non-finite one).
    X = np.array([[-0.0, 5e-324, 1e308], [-1e308, 3.0, 1.7976931348623157e308],
                  [-5e-324, -2.2250738585072014e-308, 1 / 3]])
    y = np.array([2.0, -0.0, 1e-300])
    names = ["a,b", 'say "c"', "d"]
    fast, per_cell = tmp_path / "fast.csv", tmp_path / "cells.csv"
    save_csv(Dataset(X, y, {"feature_names": names}), fast, label_column="y")
    write_csv(per_cell, [*names, "y"], ([*map(float, row), float(label)]
                                        for row, label in zip(X, y)))
    assert fast.read_bytes() == per_cell.read_bytes()
    assert fast.read_bytes().splitlines()[:2] == [
        b'"a,b","say ""c""",d,y', b"-0,4.9406564584124654e-324,1e+308,2"]


def _idx_files(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    ipath = tmp_path / "imgs.idx"
    lpath = tmp_path / "lbls.idx"
    ipath.write_bytes(struct.pack(">IIII", 2051, n, rows, cols) + images.tobytes())
    lpath.write_bytes(struct.pack(">II", 2049, len(labels)) + labels.tobytes())
    return str(ipath), str(lpath)


def test_load_mnist_idx_filters_digits(tmp_path):
    images = np.arange(4 * 28 * 28, dtype=np.uint8).reshape(4, 28, 28)
    ipath, lpath = _idx_files(tmp_path, images, [7, 3, 9, 7])
    ds = load_mnist_idx(ipath, lpath, (7, 9))
    for digits in ((7.5, 9), (7, np.nan), (7, 256)):
        with pytest.raises(ValueError, match="^digit must be a whole number between 0 and 255"):
            load_mnist_idx(ipath, lpath, digits)
    assert load_mnist_idx(ipath, lpath, (np.int64(7), 9.0)).meta == ds.meta
    assert ds.X.shape == (3, 784)
    np.testing.assert_allclose(ds.y, [1.0, -1.0, 1.0])
    np.testing.assert_array_equal(ds.X[0], images[0].reshape(-1).astype(float))


def test_load_mnist_idx_errors(tmp_path):
    images = np.zeros((2, 28, 28), dtype=np.uint8)
    ipath, lpath = _idx_files(tmp_path, images, [7, 9])
    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(struct.pack(">IIII", 2052, 2, 28, 28) + images.tobytes())
    with pytest.raises(FormatError, match="magic"):
        load_mnist_idx(str(bad_magic), lpath, (7, 9))
    short = tmp_path / "short.idx"
    short.write_bytes(struct.pack(">IIII", 2051, 2, 28, 28) + images.tobytes()[:-5])
    with pytest.raises(FormatError, match="bytes"):
        load_mnist_idx(str(short), lpath, (7, 9))
    _, lpath3 = _idx_files(tmp_path, images, [7, 9, 7])
    with pytest.raises(FormatError, match="labels"):
        load_mnist_idx(ipath, lpath3, (7, 9))


def test_preprocess_mnist():
    rng = np.random.default_rng(1)
    X = rng.integers(0, 256, (5, 784)).astype(float)
    ds = Dataset(X, np.ones(5), {"preprocessing": []})
    out = preprocess_mnist(ds)
    assert out.X.shape == (5, 576)
    assert abs(out.X.mean()) < 1e-12
    assert out.X.max() <= 1.0 and out.X.min() >= -1.0
    with pytest.raises(ValueError, match="784"):
        preprocess_mnist(Dataset(np.zeros((2, 100)), np.zeros(2)))


def test_preprocess_mnist_zero_image():
    ds = Dataset(np.vstack([np.zeros(784), np.full(784, 255.0)]), np.zeros(2), {})
    out = preprocess_mnist(ds)
    # zero image becomes the negated global mean everywhere
    assert np.allclose(out.X[0], -0.5) and np.allclose(out.X[1], 0.5)


def test_preprocess_maxabs():
    ds = Dataset(np.array([[2.0, 0.0], [-4.0, 0.0]]), np.zeros(2), {})
    out = preprocess_maxabs(ds)
    np.testing.assert_allclose(out.X, [[0.5, 0.0], [-1.0, 0.0]])
    twice = preprocess_maxabs(out)
    np.testing.assert_array_equal(twice.X, out.X)


def test_subsample_permutation_and_determinism():
    rng = np.random.default_rng(2)
    ds = Dataset(rng.standard_normal((10, 2)), np.arange(10.0), {})
    full = subsample(ds, 10, seed=5)
    assert sorted(full.y.tolist()) == list(range(10))
    a = subsample(ds, 4, seed=5)
    b = subsample(ds, 4, seed=5)
    np.testing.assert_array_equal(a.X, b.X)
    with pytest.raises(ValueError):
        subsample(ds, 11, seed=0)


def test_split_train_test_disjoint():
    rng = np.random.default_rng(3)
    ds = Dataset(rng.standard_normal((30, 2)), np.arange(30.0), {})
    train, test = split_train_test(ds, 18, 10, seed=9)
    assert train.X.shape == (18, 2) and test.X.shape == (10, 2)
    assert not set(train.y.tolist()) & set(test.y.tolist())
    train2, test2 = split_train_test(ds, 18, 10, seed=9)
    np.testing.assert_array_equal(train.X, train2.X)
    np.testing.assert_array_equal(test.y, test2.y)
    with pytest.raises(ValueError):
        split_train_test(ds, 25, 10, seed=0)


@pytest.mark.parametrize("total, n_train, n_test", [(30, 18, 10), (7, 1, 6), (100, 60, 0),
                                                    (257, 128, 129)])
def test_split_train_test_draws_test_rows_from_setdiff1ds_remainder(total, n_train, n_test):
    ds = Dataset(np.arange(float(total))[:, None], np.arange(float(total)), {})
    train, test = split_train_test(ds, n_train, n_test, seed=total)
    s_train, s_test = np.random.SeedSequence(total).spawn(2)
    train_idx = np.random.default_rng(s_train).choice(total, size=n_train, replace=False)
    pool = np.setdiff1d(np.arange(total), train_idx)
    test_idx = pool[np.random.default_rng(s_test).choice(pool.size, size=n_test, replace=False)]
    np.testing.assert_array_equal(train.y, train_idx)
    np.testing.assert_array_equal(test.y, test_idx)
