"""Dataset loading (CSV, IDX images) and experiment preprocessing.

CSV dialect: comma-separated, mandatory header row, '.' decimal point,
no quoting of numeric cells.  IDX is the standard big-endian image/label
format (magic 2051 for images, 2049 for labels).
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field

import numpy as np

SENTINEL = -999.0

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049


class ParseError(ValueError):
    """Malformed tabular input."""


class FormatError(ValueError):
    """Malformed binary input."""


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"{self.X.shape[0]} feature rows but {self.y.shape[0]} labels"
            )


def _check_finite(X: np.ndarray, y: np.ndarray, source: str) -> None:
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ParseError(f"{source}: non-finite values after loading")


def load_csv(
    path,
    label_column: str,
    feature_columns: list[str] | None = None,
    label_map: dict[str, float] | None = None,
    drop_sentinel: bool = False,
) -> Dataset:
    """Load a numeric CSV with one label column.

    label_map translates categorical labels (e.g. {"s": 1, "b": -1});
    without it the label cell must parse as a number.  With drop_sentinel
    every row containing a -999 feature is discarded.
    """
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if label_column not in header:
            raise ParseError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        if feature_columns is None:
            feature_idx = [i for i in range(len(header)) if i != label_idx]
        else:
            feature_idx = []
            for name in feature_columns:
                if name not in header:
                    raise ParseError(f"{path}: feature column {name!r} not in header")
                feature_idx.append(header.index(name))
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row {lineno} has {len(row)} cells, expected {len(header)}")
            values = []
            for i in feature_idx:
                try:
                    values.append(float(row[i]))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric value {row[i]!r} at row {lineno}, "
                        f"column {header[i]!r}"
                    ) from None
            cell = row[label_idx].strip()
            if label_map is not None:
                if cell not in label_map:
                    raise ParseError(
                        f"{path}: unmapped label {cell!r} at row {lineno}"
                    )
                labels.append(float(label_map[cell]))
            else:
                try:
                    labels.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: non-numeric label {cell!r} at row {lineno}"
                    ) from None
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    X = np.array(rows)
    y = np.array(labels)
    if drop_sentinel:
        keep = ~(X == SENTINEL).any(axis=1)
        X, y = X[keep], y[keep]
        if X.shape[0] == 0:
            raise ParseError(f"{path}: every row was dropped by the sentinel filter")
    _check_finite(X, y, str(path))
    meta = {
        "source": str(path),
        "feature_names": [header[i] for i in feature_idx],
        "preprocessing": [],
    }
    return Dataset(X, y, meta)


def save_csv(ds: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset back out with full float precision (round-trips exactly)."""
    names = ds.meta.get("feature_names") or [f"x{i}" for i in range(ds.X.shape[1])]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(names) + [label_column])
        for row, label in zip(ds.X, ds.y):
            writer.writerow([format(v, ".17g") for v in row] + [format(label, ".17g")])


def _read_idx(path, expected_magic: int, dims: int) -> tuple[tuple[int, ...], np.ndarray]:
    with open(path, "rb") as handle:
        raw = handle.read()
    header_bytes = 4 * (1 + dims)
    if len(raw) < header_bytes:
        raise FormatError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise FormatError(f"{path}: bad magic {magic}, expected {expected_magic}")
    shape = struct.unpack(f">{dims}I", raw[4:header_bytes])
    count = int(np.prod(shape))
    if len(raw) != header_bytes + count:
        raise FormatError(
            f"{path}: expected {header_bytes + count} bytes, found {len(raw)}"
        )
    return shape, np.frombuffer(raw, dtype=np.uint8, offset=header_bytes)


def load_mnist_idx(
    images_path,
    labels_path,
    digits: tuple[int, int],
) -> Dataset:
    """Load an IDX image/label pair filtered to two digits mapped onto +-1.

    The first digit maps to +1 and the second to -1.  Images are
    flattened row-major with raw 0..255 values.  Raises ValueError when
    either digit has no images.
    """
    (n_images, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3)
    (n_labels,), labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1)
    if n_images != n_labels:
        raise FormatError(
            f"{images_path}: {n_images} images but {n_labels} labels"
        )
    a, b = int(digits[0]), int(digits[1])
    for digit in (a, b):
        if not np.any(labels == digit):
            raise ValueError(f"{labels_path}: no images of digit {digit}")
    keep = (labels == a) | (labels == b)
    X = pixels.reshape(n_images, rows * cols)[keep].astype(float)
    y = np.where(labels[keep] == b, -1.0, 1.0)
    _check_finite(X, y, str(images_path))
    meta = {
        "source": str(images_path),
        "image_shape": (int(rows), int(cols)),
        "digits": (a, b),
        "preprocessing": [],
    }
    return Dataset(X, y, meta)


def preprocess_mnist(ds: Dataset) -> Dataset:
    """Crop the 2-pixel border of 28x28 images, rescale to [0, 1], recenter.

    The centering statistic is one global scalar, the mean cropped pixel
    value over the loaded subset.  Output dimension is 24*24 = 576.
    """
    if ds.X.shape[1] != 28 * 28:
        raise ValueError(f"expected 784 pixel columns, got {ds.X.shape[1]}")
    imgs = ds.X.reshape(-1, 28, 28)[:, 2:26, 2:26]
    X = imgs.reshape(ds.X.shape[0], 24 * 24) / 255.0
    X = X - X.mean()
    meta = dict(ds.meta)
    meta["image_shape"] = (24, 24)
    meta["preprocessing"] = list(meta.get("preprocessing", [])) + ["mnist"]
    return Dataset(X, ds.y, meta)


def preprocess_maxabs(ds: Dataset) -> Dataset:
    """Divide each feature column by its max absolute value; zero columns pass through."""
    scale = np.abs(ds.X).max(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    meta = dict(ds.meta)
    meta["preprocessing"] = list(meta.get("preprocessing", [])) + ["maxabs"]
    return Dataset(ds.X / scale, ds.y, meta)


def subsample(ds: Dataset, n: int, seed) -> Dataset:
    """Uniform sample of n rows without replacement, deterministic per seed."""
    total = ds.X.shape[0]
    if n > total:
        raise ValueError(f"requested {n} samples from {total} rows")
    idx = np.random.default_rng(seed).choice(total, size=n, replace=False)
    meta = dict(ds.meta)
    meta["subsample"] = {"n": int(n), "seed": seed}
    return Dataset(ds.X[idx], ds.y[idx], meta)


def split_train_test(
    ds: Dataset, n_train: int, n_test: int, seed
) -> tuple[Dataset, Dataset]:
    """Disjoint train/test subsets via two child streams of one seed.

    Stream 0 draws the training rows from the full index pool; stream 1
    draws the test rows from the remainder.
    """
    total = ds.X.shape[0]
    if n_train + n_test > total:
        raise ValueError(
            f"requested {n_train}+{n_test} samples from {total} rows"
        )
    s_train, s_test = np.random.SeedSequence(seed).spawn(2)
    train_idx = np.random.default_rng(s_train).choice(total, size=n_train, replace=False)
    pool = np.setdiff1d(np.arange(total), train_idx)
    test_pick = np.random.default_rng(s_test).choice(pool.shape[0], size=n_test, replace=False)
    test_idx = pool[test_pick]
    meta = dict(ds.meta)
    train = Dataset(ds.X[train_idx], ds.y[train_idx], {**meta, "split": "train"})
    test = Dataset(ds.X[test_idx], ds.y[test_idx], {**meta, "split": "test"})
    return train, test
