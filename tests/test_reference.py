"""Every column of ``run_sweep`` against its textbook value (tests/reference.py)."""

import pytest

import reference
from kare.cli import SWEEP_COLUMNS, parse_sweep_config, run_sweep


def _config(tmp_path, family: str) -> str:
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "data.type = synthetic\ndata.dim = 3\ndata.n = 60\ndata.test_n = 30\n"
        "data.noise = 0.2\ndata.seed = 3\n"
        f"kernel.family = {family}\ngrid.lengthscale = 0.5:2:3:log2\n"
        "grid.ridge = 1e-4:1:5:log10\nscores.cv_folds = 4\nscores.loglik = true\n"
        f"scores.alignment = true\noutput = {tmp_path / 'out.csv'}\n")
    return str(path)


@pytest.mark.parametrize("family", ["rbf", "laplacian", "l1exp"])
def test_every_sweep_column_matches_the_textbook_value(tmp_path, family):
    cfg = parse_sweep_config(_config(tmp_path, family))
    records, expected = run_sweep(cfg), reference.sweep(cfg)
    assert len(records) == len(expected) == 15
    for record, row in zip(records, expected):
        assert set(row) == set(SWEEP_COLUMNS)
        for column in SWEEP_COLUMNS:
            value = getattr(record, column)
            assert value is not None and row[column] is not None, column
            assert value == pytest.approx(row[column], rel=reference.RTOL, abs=0), (
                f"{column} at lengthscale {record.lengthscale}, ridge {record.ridge}")
