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
One tile carries the cell codes of several measures at once and shares
the QFI relation between them.  The census folds a tile's three codes
into one joint code, counts it once into a 13x13x13 table, and reads the
three per-measure tables off that table's marginals at the end.
The witness scan keeps the first ``limit`` pairs of each discordant cell
and stops after the tile in which the last cell fills.  Both reject a
non-finite value, which the comparators could not order.
``classify_pair`` is the scalar reference that the tests compare both
against.
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
    "DISCORDANT_CELLS",
    "StateRecord",
    "OrderingClass",
    "PairWitness",
    "classify_pair",
    "census",
    "find_counterexamples",
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
    table = dict(DEFAULT_EPS)
    if eps is None:
        return table
    if isinstance(eps, Mapping):
        for key, value in eps.items():
            if key not in table:
                raise ValueError(f"unknown tolerance key {key!r}")
            table[key] = float(value)
    else:
        table = {key: float(eps) for key in table}
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
    """Cell codes ``3 * measure_relation + mqfi_relation`` of the pairs
    ``(i, j > i)`` in tiles of whole rows, with the comparators of
    ``classify_pair``.

    Yields ``(first, codes)``: ``codes[m, r, c]`` is the cell of measure
    ``measures[m]`` for the pair ``(first + r, first + 1 + c)``, and 12
    where ``c < r`` holds no pair, so a tile read row-major lists its pairs
    in canonical order.  With ``s_q`` and ``s_m`` the signs of
    the QFI and measure differences beyond their tolerances, the code is
    ``(1 - s_q) + (not both-zero) * (6 - 3 * s_m)``.
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
        codes = np.empty((len(measures), rows, cols), dtype=np.int8)
        for m, tol in enumerate(tols):
            cell = _sign(values[m, head, None] - values[m, None, later], tol)
            cell *= -3
            cell += 6
            cell *= positive[m, head, None] | positive[m, None, later]
            np.add(cell, mqfi, out=codes[m])
        codes[:, :, :rows][:, np.tri(rows, k=-1, dtype=bool)] = 12
        yield first, codes
        first += rows


def _cell_of_code(code: int) -> OrderingClass:
    return OrderingClass(MEASURE_RELATIONS[code // 3], MQFI_RELATIONS[code % 3])


def census(records: Sequence[StateRecord], eps=None) -> dict[str, dict[OrderingClass, int]]:
    """Cell counts over all unordered pairs, one table per measure.

    Pairs are taken in canonical order (lower id first), so counts per
    measure always sum to n(n-1)/2 exactly.
    """
    table = _normalize_eps(eps)
    joint = np.zeros(13**3, dtype=np.int64)
    for _, codes in _cell_tiles(records, MEASURE_NAMES, table):
        # One count per tile of the joint code 169 * c0 + 13 * c1 + c2.
        code = np.multiply(codes[0], 169, dtype=np.int16)
        code += np.multiply(codes[1], 13, dtype=np.int16)
        code += codes[2]
        joint += np.bincount(code.ravel(), minlength=13**3)
    joint = joint.reshape(13, 13, 13)
    counts = (joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2)), joint.sum(axis=(0, 1)))
    return {
        measure: {_cell_of_code(code): int(counts[m][code]) for code in range(12)}
        for m, measure in enumerate(MEASURE_NAMES)
    }


_DISCORDANT_CODES = tuple(code for code in range(12) if _cell_of_code(code) in DISCORDANT_CELLS)


def find_counterexamples(
    records: Sequence[StateRecord], measure: str, eps=None, limit: int = 10
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
    pairs: dict[int, list] = {code: [] for code in _DISCORDANT_CODES}
    for first, codes in _cell_tiles(records, (measure,), table):
        cols = codes.shape[2]
        for code, hits in pairs.items():
            need = limit - len(hits)
            if need:
                for k in np.flatnonzero(codes[0] == code)[:need]:
                    r, c = divmod(int(k), cols)
                    hits.append((records[first + r], records[first + 1 + c]))
        if all(len(hits) == limit for hits in pairs.values()):
            break
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
        for code, hits in pairs.items()
        for r1, r2 in hits
    ]
