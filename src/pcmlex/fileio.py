"""Text formats for matrices and preference graphs.

Matrix files: first line the order n, then n whitespace-separated rows.
Entries are decimal literals, fractions ``p/q``, or ``*`` for a missing
comparison. The writer emits 12 significant digits. DAG files: first line
n, then one ``i j`` arc per line, 1-based.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .core import CompleteMatrix, IncompleteMatrix, validate_reciprocal
from .graph import PreferenceDag, build_dag


class ParseError(ValueError):
    """Malformed matrix or graph file."""


def _tokenize(text: str) -> tuple[int, list[list[str]]]:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ParseError("empty file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ParseError(f"first line must be the order n, got {lines[0]!r}") from exc
    return n, [ln.split() for ln in lines[1:]]


def parse_entry(token: str) -> float | None:
    """One matrix token: ``*`` is missing, ``p/q`` a fraction.

    Only ``*`` means missing: ``nan``, ``inf`` and any other token whose
    value is not finite is rejected.
    """
    if token == "*":
        return None
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad matrix entry {token!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"matrix entry {token!r} is not a finite number")
    return value


def loads_matrix(text: str) -> IncompleteMatrix:
    """Parse matrix text; validates reciprocity and missing-entry symmetry."""
    n, rows = _tokenize(text)
    if len(rows) != n:
        raise ParseError(f"expected {n} rows, got {len(rows)}")
    raw: list[list[float | None]] = []
    for r, tokens in enumerate(rows):
        if len(tokens) != n:
            raise ParseError(f"row {r + 1} has {len(tokens)} entries, expected {n}")
        row = []
        for c, token in enumerate(tokens):
            try:
                row.append(parse_entry(token))
            except ParseError as exc:
                raise ParseError(f"{exc} at row {r + 1}, column {c + 1}") from None
        raw.append(row)
    return validate_reciprocal(raw)


def read_matrix(path: str | Path) -> IncompleteMatrix:
    return loads_matrix(Path(path).read_text())


def dumps_matrix(m: CompleteMatrix | IncompleteMatrix) -> str:
    """Matrix in the text format, 12 significant digits, ``*`` for missing."""
    known = m.known if isinstance(m, IncompleteMatrix) else np.ones((m.n, m.n), dtype=bool)
    cells = [[f"{x:.12g}" if k else "*" for x, k in zip(*row)] for row in zip(m.entries, known)]
    return f"{m.n}\n" + "".join(" ".join(row) + "\n" for row in cells)


def loads_dag(text: str) -> PreferenceDag:
    """Parse DAG text (1-based arcs) and validate it as a connected DAG."""
    n, rows = _tokenize(text)
    arcs = []
    for r, tokens in enumerate(rows):
        if len(tokens) != 2:
            raise ParseError(f"arc line {r + 1} must be 'i j', got {tokens}")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise ParseError(f"bad arc line {r + 1}: {tokens}") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"arc ({i}, {j}) out of range for n = {n}")
        arcs.append((i - 1, j - 1))
    return build_dag(n, arcs)


def read_dag(path: str | Path) -> PreferenceDag:
    return loads_dag(Path(path).read_text())


def dumps_dag(g: PreferenceDag) -> str:
    lines = [str(g.n)]
    lines += [f"{i + 1} {j + 1}" for i, j in g.sorted_arcs]
    return "\n".join(lines) + "\n"
