"""The line split of ``src/kare``: code, docstring, comment and blank lines.

    python tests/lines.py            # per module and in total
    python tests/lines.py --src DIR  # the same for another checkout's src/kare

A line is a docstring line when it lies in the ``ast`` span of a module,
class or function docstring (blank lines inside one included); otherwise
it is blank, comment-only (first non-space character ``#``) or code.
The four columns add up to each file's line count.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
COLUMNS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def split(path: Path) -> dict[str, int]:
    """Return the count of each of ``COLUMNS`` in the Python file at ``path``."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    counts = dict.fromkeys(COLUMNS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstrings:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def table(package: Path) -> dict[str, dict[str, int]]:
    """Return the split of each module of ``package`` by file name, and ``total``."""
    rows = {path.name: split(path) for path in sorted(package.glob("*.py"))}
    rows["total"] = {c: sum(row[c] for row in rows.values()) for c in COLUMNS}
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=SRC, help="the src directory")
    args = parser.parse_args(argv)
    rows = table(args.src / "kare")
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{c:>11}" for c in COLUMNS))
    for name, row in rows.items():
        print(
            f"{name:<16}{sum(row.values()):>7}"
            + "".join(f"{row[c]:>11}" for c in COLUMNS)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
