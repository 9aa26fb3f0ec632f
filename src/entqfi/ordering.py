"""Pairwise ordering census of entanglement measures against optimized QFI.

Every unordered pair of states lands in one of twelve cells: four
relations for the chosen entanglement measure (both values zero, first
greater, equal but positive, second greater) crossed with three relations
for the rotation-maximized mean QFI (greater, equal, less).  Six of the
twelve are discordant: the measure and the optimized QFI disagree about
the ordering, or one of them ties while the other does not.  Pairs of
states witnessing the discordant cells are the interesting output.

Comparators use absolute tolerances: values at or below eps count as
zero, and a gap at or below eps counts as a tie.  Tolerances are
per-quantity; the REE default is wider than the others because its value
carries solver noise.

Pairs are visited in tiles of whole rows in canonical order: a tile
compares rows ``i`` in ``[first, first + rows)`` against every record
after ``first`` in one vectorized step and holds at most ``_TILE_PAIRS``
cells, so the census and the witness scan hold O(``_TILE_PAIRS``)
working memory besides the O(n) value arrays, never the n(n-1)/2 pairs.
One tile carries one joint cell code of several measures per pair and
shares the QFI relation between them.  The census counts a tile's joint
codes of all three measures once into a 13x13x13 table, and reads the
three per-measure tables off that table's marginals at the end.
The witness scan keeps the first ``limit`` pairs of each discordant cell
and stops after the tile in which the last cell fills.  A run takes both
from one scan, ``census_and_witnesses``: it counts every tile, and reads
each measure's witnesses off that measure's base-13 digit of the joint
codes until the measure's cells fill.  All reject a non-finite value,
which the comparators could not order.  ``classify_pair`` is the scalar
reference that the tests compare them against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .rotations import EulerAngleSet

__all__ = [
    "MEASURE_NAMES",
    "MEASURE_RELATIONS",
    "MQFI_RELATIONS",
    "DEFAULT_EPS",
    "DEFAULT_WITNESS_LIMIT",
    "DISCORDANT_CELLS",
    "StateRecord",
    "OrderingClass",
    "PairWitness",
    "classify_pair",
    "census",
    "find_counterexamples",
    "census_and_witnesses",
]

MEASURE_NAMES = ("concurrence", "negativity", "ree")
MEASURE_RELATIONS = ("both-zero", "first-greater", "equal-positive", "second-greater")
MQFI_RELATIONS = ("greater", "equal", "less")

DEFAULT_EPS = {
    "concurrence": 1e-4,
    "negativity": 1e-4,
    "ree": 5e-3,
    "mqfi": 1e-4,
}

# Witnesses kept per discordant cell.
DEFAULT_WITNESS_LIMIT = 10


class OrderingClass(NamedTuple):
    measure_relation: str
    mqfi_relation: str


DISCORDANT_CELLS = frozenset(
    {
        OrderingClass("first-greater", "equal"),
        OrderingClass("first-greater", "less"),
        OrderingClass("second-greater", "equal"),
        OrderingClass("second-greater", "greater"),
        OrderingClass("equal-positive", "greater"),
        OrderingClass("equal-positive", "less"),
    }
)


@dataclass(frozen=True)
class StateRecord:
    """One state's full measurement row.

    base_max_value and base_min_value are the coarse-grid optima before any
    refinement pass; they equal qfi_max and qfi_min when refined is False.
    """

    id: int
    concurrence: float
    negativity: float
    ree: float
    separable: bool
    ree_converged: bool
    qfi_raw: float
    qfi_max: float
    qfi_min: float
    max_angles: EulerAngleSet
    min_angles: EulerAngleSet
    refined: bool
    base_max_value: float
    base_min_value: float


class PairWitness(NamedTuple):
    id_1: int
    id_2: int
    measure_name: str
    ordering: OrderingClass
    values: tuple[float, float, float, float]


def _normalize_eps(eps) -> dict[str, float]:
    """``DEFAULT_EPS`` overridden by ``eps``: None, a mapping, or
    ``(key, value)`` pairs."""
    table = dict(DEFAULT_EPS)
    for key, value in dict(eps or {}).items():
        if key not in table:
            raise ValueError(f"unknown tolerance key {key!r}")
        table[key] = float(value)
    for key, value in table.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"tolerance {key} must be positive and finite, got {value!r}")
    return table


def classify_pair(r1: StateRecord, r2: StateRecord, measure: str, eps=None) -> OrderingClass:
    """Cell of the pair (r1, r2) for one measure; eps as in the census."""
    if measure not in MEASURE_NAMES:
        raise ValueError(f"measure must be one of {MEASURE_NAMES}, got {measure!r}")
    table = _normalize_eps(eps)
    tol = table[measure]
    a = getattr(r1, measure)
    b = getattr(r2, measure)
    if a <= tol and b <= tol:
        relation = "both-zero"
    elif abs(a - b) <= tol:
        relation = "equal-positive"
    elif a > b:
        relation = "first-greater"
    else:
        relation = "second-greater"
    tol_q = table["mqfi"]
    qa = r1.qfi_max
    qb = r2.qfi_max
    if abs(qa - qb) <= tol_q:
        mqfi = "equal"
    elif qa > qb:
        mqfi = "greater"
    else:
        mqfi = "less"
    return OrderingClass(relation, mqfi)


# Cells per tile; a row longer than this is a tile of its own.
_TILE_PAIRS = 2**15


def _sign(d: np.ndarray, tol: float) -> np.ndarray:
    """``(d > tol) - (d < -tol)`` as int8: 1 above the band, -1 below, 0 inside."""
    return np.greater(d, tol).view(np.int8) - np.less(d, -tol).view(np.int8)


def _cell_tiles(
    records: Sequence[StateRecord], measures: Sequence[str], table: Mapping[str, float]
):
    """Joint cell codes of the pairs ``(i, j > i)`` in tiles of whole rows,
    with the comparators of ``classify_pair``.

    A measure's cell is ``3 * measure_relation + mqfi_relation``; with
    ``s_q`` and ``s_m`` the signs of the QFI and measure differences beyond
    their tolerances, it is ``(1 - s_q) + (not both-zero) * (6 - 3 * s_m)``.
    Yields ``(first, codes)``: the int16 ``codes[r, c]`` is the base-13
    number whose digits are the cells of ``measures`` in order, for the
    pair ``(first + r, first + 1 + c)``, and ``13**len(measures) - 1``
    where ``c < r`` holds no pair, so a tile read row-major lists its pairs
    in canonical order.
    """
    # a single record yields zero tiles, which is fine; only empty input is an error
    if not records:
        raise ValueError("the ordering census needs at least one record")
    fields = (*measures, "qfi_max")
    values = np.array([[getattr(r, name) for r in records] for name in fields], dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=0))[0])
        f = int(np.flatnonzero(~finite[:, k])[0])
        raise ValueError(
            f"record id {records[k].id}: {fields[f]} is {float(values[f, k])!r};"
            " the ordering census compares finite values only"
        )
    tols = [table[measure] for measure in measures]
    positive = values[:-1] > np.array(tols)[:, None]
    n = len(records)
    first = 0
    while first < n - 1:
        cols = n - 1 - first
        rows = min(cols, max(1, _TILE_PAIRS // cols))
        head, later = slice(first, first + rows), slice(first + 1, n)
        mqfi = _sign(values[-1, head, None] - values[-1, None, later], table["mqfi"])
        np.subtract(1, mqfi, out=mqfi)
        codes = np.zeros((rows, cols), dtype=np.int16)
        for m, tol in enumerate(tols):
            cell = _sign(values[m, head, None] - values[m, None, later], tol)
            cell *= -3
            cell += 6
            cell *= positive[m, head, None] | positive[m, None, later]
            cell += mqfi
            codes *= 13
            codes += cell
        codes[:, :rows][np.tri(rows, k=-1, dtype=bool)] = 13 ** len(measures) - 1
        yield first, codes
        first += rows


def _cell_of_code(code: int) -> OrderingClass:
    return OrderingClass(MEASURE_RELATIONS[code // 3], MQFI_RELATIONS[code % 3])


def _count(joint: np.ndarray, codes: np.ndarray) -> None:
    """Add a tile's joint codes of all three measures to the 13x13x13
    table ``joint``, flattened."""
    joint += np.bincount(codes.ravel(), minlength=13**3)


def _census_tables(joint: np.ndarray) -> dict[str, dict[OrderingClass, int]]:
    """The per-measure tables, the marginals of the joint table."""
    joint = joint.reshape(13, 13, 13)
    counts = (joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2)), joint.sum(axis=(0, 1)))
    return {
        measure: {_cell_of_code(code): int(counts[m][code]) for code in range(12)}
        for m, measure in enumerate(MEASURE_NAMES)
    }


def census(records: Sequence[StateRecord], eps=None) -> dict[str, dict[OrderingClass, int]]:
    """Cell counts over all unordered pairs, one table per measure.

    Pairs are taken in canonical order (lower id first), so counts per
    measure always sum to n(n-1)/2 exactly.
    """
    table = _normalize_eps(eps)
    joint = np.zeros(13**3, dtype=np.int64)
    for _, codes in _cell_tiles(records, MEASURE_NAMES, table):
        _count(joint, codes)
    return _census_tables(joint)


_DISCORDANT_CODES = tuple(code for code in range(12) if _cell_of_code(code) in DISCORDANT_CELLS)


def _collect(hits: dict, records: Sequence[StateRecord], first: int, codes, limit: int) -> bool:
    """Append to ``hits[code]``, up to ``limit`` in all, each discordant
    cell's pairs of a tile's one-measure cell codes in canonical order;
    True once every cell holds ``limit``."""
    cols = codes.shape[1]
    for code, found in hits.items():
        need = limit - len(found)
        if need:
            for k in np.flatnonzero(codes == code)[:need]:
                r, c = divmod(int(k), cols)
                found.append((records[first + r], records[first + 1 + c]))
    return all(len(found) == limit for found in hits.values())


def _witnesses(measure: str, hits: dict) -> list[PairWitness]:
    """The witnesses of ``_collect``'s pairs, cell by cell."""
    return [
        PairWitness(
            id_1=r1.id,
            id_2=r2.id,
            measure_name=measure,
            ordering=_cell_of_code(code),
            values=tuple(
                map(float, (getattr(r1, measure), getattr(r2, measure), r1.qfi_max, r2.qfi_max))
            ),
        )
        for code, found in hits.items()
        for r1, r2 in found
    ]


def find_counterexamples(
    records: Sequence[StateRecord],
    measure: str,
    eps=None,
    limit: int = DEFAULT_WITNESS_LIMIT,
) -> list[PairWitness]:
    """Up to ``limit`` witnesses per discordant cell, in canonical pair order.

    The scan stops after the first tile after which every discordant cell
    holds ``limit`` witnesses.
    """
    if measure not in MEASURE_NAMES:
        raise ValueError(f"measure must be one of {MEASURE_NAMES}, got {measure!r}")
    if limit < 1:
        raise ValueError("limit must be at least 1")
    table = _normalize_eps(eps)
    hits: dict[int, list] = {code: [] for code in _DISCORDANT_CODES}
    for first, codes in _cell_tiles(records, (measure,), table):
        if _collect(hits, records, first, codes, limit):
            break
    return _witnesses(measure, hits)


def census_and_witnesses(
    records: Sequence[StateRecord], eps=None
) -> tuple[dict[str, dict[OrderingClass, int]], dict[str, list[PairWitness]]]:
    """``census(records, eps)`` and, by measure, ``find_counterexamples(
    records, measure, eps)``, from one scan of the pairs.

    Each tile's joint codes are counted whole, and each measure's base-13
    digit of them gives its witnesses until its discordant cells are full.
    """
    table = _normalize_eps(eps)
    joint = np.zeros(13**3, dtype=np.int64)
    hits = {measure: {code: [] for code in _DISCORDANT_CODES} for measure in MEASURE_NAMES}
    collecting = list(enumerate(MEASURE_NAMES))
    for first, codes in _cell_tiles(records, MEASURE_NAMES, table):
        _count(joint, codes)
        for m, measure in collecting[:]:
            cells = codes // 13 ** (2 - m) % 13
            if _collect(hits[measure], records, first, cells, DEFAULT_WITNESS_LIMIT):
                collecting.remove((m, measure))
    witnesses = {measure: _witnesses(measure, hits[measure]) for measure in MEASURE_NAMES}
    return _census_tables(joint), witnesses
