"""CSV ingestion and emission for input-output tables.

Formats (UTF-8, decimal point, comma separator):
  A.csv  header row of sector names, then d rows of d coefficients
  R.csv  header "impact" followed by sector names, then one row per impact:
         impact name followed by d intensities
  y.csv  d rows of one final-demand value each, no header

Floats are written with repr so a write/load round trip is bit-exact. When
csv would read each line of A.csv and y.csv as one row split at its commas
(no quote, no blank line), the header is split at its commas and np.loadtxt
parses the numbers. Otherwise, or when a shape, finiteness or sign check
fails, csv reads the rows and numpy converts them in one call; only a failed
check there walks the cells, to name the first ragged row or bad cell.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, NegativeEntry, ParseError
from .modelzoo import IoTable


def _read_rows(path) -> list[list[str]]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return [row for row in csv.reader(fh)]
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot be read ({exc})") from None


def _parse_cell(text: str, path, line: int, column: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}: {text!r} is not a number", line=line, column=column) from None
    if not np.isfinite(value):
        raise ParseError(f"{path}: {text!r} is not a finite number", line=line, column=column)
    return value


def _plain_lines(path) -> list[str] | None:
    """The file's lines, when csv reads each as one row split at its commas alone: no quote
    and no blank line, which csv reads as an empty row. None otherwise."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return None
    lines = text.removesuffix("\n").split("\n")
    return None if '"' in text or "" in lines else lines


def _loadtxt(lines, rows: int, width: int) -> np.ndarray | None:
    """`lines` parsed by np.loadtxt, when they hold rows x width finite nonnegative numbers."""
    if len(lines) != rows or not rows:
        return None
    try:
        arr = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return arr if arr.shape == (rows, width) and np.isfinite(arr).all() and not (arr < 0).any() else None


def _numbers(path, rows, line: int, width: int, ragged: str, entry, skip: int = 0) -> np.ndarray:
    """The cells of `rows` (the first on `line`) after `skip` labels, as one float array. A row
    not `width` long or a cell not a finite nonnegative number raises; only then are the cells
    walked, to name the first failure in reading order (`entry(i, j)` names a negative cell)."""
    try:
        arr = np.array([row[skip:] for row in rows], dtype=np.float64).reshape(len(rows), width - skip)
        if np.isfinite(arr).all() and not (arr < 0).any():
            return arr
    except ValueError:
        pass
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: {ragged}", line=line + i)
        for j, cell in enumerate(row[skip:]):
            value = _parse_cell(cell, path, line + i, skip + j + 1)
            if value < 0:
                raise NegativeEntry(f"{path}: {entry(i, j)} = {value} is negative")
    return np.array([[float(cell) for cell in row[skip:]] for row in rows]).reshape(len(rows), width - skip)


def load_iotable_csv(a_path, y_path, r_path=None) -> IoTable:
    """Load and validate a table; R defaults to a single zero impact row."""
    a_lines, y_lines = _plain_lines(a_path), _plain_lines(y_path)
    sectors = tuple(name.strip() for name in a_lines[0].split(",")) if a_lines else ()
    d = len(sectors)
    A = _loadtxt(a_lines[1:], d, d) if a_lines else None
    y = _loadtxt(y_lines, d, 1) if y_lines else None
    if A is None or y is None:  # not plain, or a check fails: csv reads it and the cells are walked
        a_rows = _read_rows(a_path)
        if not a_rows:
            raise ParseError(f"{a_path}: empty file", line=1)
        sectors = tuple(name.strip() for name in a_rows[0])
        d = len(sectors)
        if len(a_rows) != d + 1:
            raise DimensionMismatch(f"{a_path}: expected {d} coefficient rows, found {len(a_rows) - 1}")
        A = _numbers(a_path, a_rows[1:], 2, d, f"expected {d} columns", lambda i, j: f"A[{i}, {j}]")

        y_rows = _read_rows(y_path)
        if len(y_rows) != d:
            raise DimensionMismatch(f"{y_path}: expected {d} demand rows, found {len(y_rows)}")
        y = _numbers(y_path, y_rows, 1, 1, "expected one value per row", lambda i, j: f"y[{i}]")

    if r_path is None:
        R = np.zeros((1, d))
        impacts = ("impact",)
    else:
        r_rows = _read_rows(r_path)
        if not r_rows:
            raise ParseError(f"{r_path}: empty file", line=1)
        header = tuple(name.strip() for name in r_rows[0][1:])
        if header != sectors:
            raise DimensionMismatch(f"{r_path}: sector header does not match {a_path}")
        R = _numbers(r_path, r_rows[1:], 2, d + 1, f"expected {d + 1} columns",
                     lambda i, j: f"R[{i}, {j}]", skip=1)
        impacts = tuple(row[0].strip() for row in r_rows[1:])

    return IoTable(A=A, R=R, y=y[:, 0], sectors=sectors, impacts=impacts)


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_iotable_csv(table: IoTable, a_path, y_path, r_path=None):
    """Inverse of load_iotable_csv; floats are repr'd for exact round trips."""
    _write_rows(a_path, [table.sectors, *([repr(float(v)) for v in row] for row in table.A)])
    _write_rows(y_path, [[repr(float(v))] for v in table.y])
    if r_path is not None:
        _write_rows(r_path, [("impact",) + table.sectors,
                             *([name] + [repr(float(v)) for v in row] for name, row in zip(table.impacts, table.R))])
