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

Pairs are visited row by row in canonical order: row ``i`` compares
record ``i`` against every later record in one vectorized step, so the
census and the witness scan hold O(n) memory, never the n(n-1)/2 pairs.
The census sums each row's cell counts.  The witness scan keeps the first
``limit`` pairs of each discordant cell and stops after the row in which
the last cell fills.  ``classify_pair`` is the scalar reference that the
tests compare both against.
"""

from __future__ import annotations

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
        if value <= 0.0:
            raise ValueError(f"tolerance {key} must be positive, got {value!r}")
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


def _cell_rows(records: Sequence[StateRecord], measure: str, table: Mapping[str, float]):
    """Cell codes ``3 * measure_relation + mqfi_relation`` of the pairs
    ``(i, j > i)``, one array per row ``i``: the scalar ``values[i]``
    against ``values[i + 1:]`` with the comparators of ``classify_pair``."""
    # a single record yields zero rows, which is fine; only empty input is an error
    if not records:
        raise ValueError("the ordering census needs at least one record")
    tol, tol_q = table[measure], table["mqfi"]
    values = np.array([getattr(r, measure) for r in records])
    qfi = np.array([r.qfi_max for r in records])
    for i in range(len(records) - 1):
        a, b = values[i], values[i + 1 :]
        qa, qb = qfi[i], qfi[i + 1 :]
        relation = np.where(
            (a <= tol) & (b <= tol), 0, np.where(np.abs(a - b) <= tol, 2, np.where(a > b, 1, 3))
        )
        mqfi = np.where(np.abs(qa - qb) <= tol_q, 1, np.where(qa > qb, 0, 2))
        yield 3 * relation + mqfi


def _cell_of_code(code: int) -> OrderingClass:
    return OrderingClass(MEASURE_RELATIONS[code // 3], MQFI_RELATIONS[code % 3])


def census(records: Sequence[StateRecord], eps=None) -> dict[str, dict[OrderingClass, int]]:
    """Cell counts over all unordered pairs, one table per measure.

    Pairs are taken in canonical order (lower id first), so counts per
    measure always sum to n(n-1)/2 exactly.
    """
    table = _normalize_eps(eps)
    out: dict[str, dict[OrderingClass, int]] = {}
    for measure in MEASURE_NAMES:
        counts = np.zeros(12, dtype=np.int64)
        for codes in _cell_rows(records, measure, table):
            counts += np.bincount(codes, minlength=12)
        out[measure] = {_cell_of_code(code): int(counts[code]) for code in range(12)}
    return out


_DISCORDANT_CODES = tuple(code for code in range(12) if _cell_of_code(code) in DISCORDANT_CELLS)


def find_counterexamples(
    records: Sequence[StateRecord], measure: str, eps=None, limit: int = 10
) -> list[PairWitness]:
    """Up to ``limit`` witnesses per discordant cell, in canonical pair order.

    The scan stops at the first row after which every discordant cell
    holds ``limit`` witnesses.
    """
    if measure not in MEASURE_NAMES:
        raise ValueError(f"measure must be one of {MEASURE_NAMES}, got {measure!r}")
    if limit < 1:
        raise ValueError("limit must be at least 1")
    table = _normalize_eps(eps)
    pairs: dict[int, list] = {code: [] for code in _DISCORDANT_CODES}
    for i, codes in enumerate(_cell_rows(records, measure, table)):
        for code, hits in pairs.items():
            need = limit - len(hits)
            if need:
                hits.extend(
                    (records[i], records[i + 1 + j]) for j in np.flatnonzero(codes == code)[:need]
                )
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
