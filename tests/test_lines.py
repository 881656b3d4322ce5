"""The line split of tests/lines.py accounts for every line of src/kare."""

import lines


def test_the_four_columns_add_up_to_each_files_line_count():
    rows = lines.table(lines.SRC / "kare")
    total = rows.pop("total")
    assert len(rows) == len(list((lines.SRC / "kare").glob("*.py"))) > 0
    for name, row in rows.items():
        text = (lines.SRC / "kare" / name).read_text(encoding="utf-8")
        assert sum(row.values()) == len(text.splitlines()), name
    assert sum(total.values()) == sum(sum(row.values()) for row in rows.values())
