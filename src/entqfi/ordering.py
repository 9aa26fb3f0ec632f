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

Every scan takes the records in id order, whatever the order of the list,
equal ids in list order, so a pair reads lower id first.  Pairs are
visited in tiles of whole rows in that canonical order: a tile compares
rows ``i`` in ``[first, first + rows)`` against every record after
``first`` in one vectorized step and holds at most ``_TILE_PAIRS``
cells, so the census and the witness scan hold O(``_TILE_PAIRS``)
working memory besides the O(n) value arrays, never the n(n-1)/2 pairs.

The tiles compare ranks, not values.  Once per call each compared
quantity is sorted, and every record gets its rank and two rank
thresholds that are exact for the rounded differences ``classify_pair``
compares, so a pair's relation in one quantity is two compares of small
integers.  One code layout serves every scan: a pair's code joins the
row's zero-band bits and the relations of the three measures and the
optimized QFI, each at its own place, in 648 values and a sentinel for
the cells that hold no pair; a witness scan of one measure leaves the
other measures' places at 0.  The census counts each tile's codes with
one ``bincount`` split into interleaved sub-histograms, and reads the
three 12-cell tables off that count through one static code-to-cell
table.  The witness scan keeps the first ``limit`` pairs of each
discordant cell: from the pairs each cell still needs, a boolean table
over the codes marks those that put a scanned measure in a cell still
open, one lookup per tile finds the candidate pairs, and only they are
decoded.  It stops after the tile in which the last cell fills.  A run
takes the census and every measure's witnesses from one scan,
``census_and_witnesses``.  ``classify_pair`` is the scalar reference that
the tests compare them against.  All of them reject a non-finite value,
which the comparators could not order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .rotations import EulerAngleSet
from .states import _integer, _member

__all__ = [
    "MEASURE_NAMES",
    "MEASURE_RELATIONS",
    "MQFI_RELATIONS",
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
    ordering: OrderingClass
    values: tuple[float, float, float, float]


def _normalize_eps(eps) -> dict[str, float]:
    """``DEFAULT_EPS`` overridden by ``eps``: None, a mapping, or
    ``(key, value)`` pairs; the keys keep ``DEFAULT_EPS`` order.  The one
    reader of a tolerance: each value is read with ``float`` here, and must
    be positive and finite; an error names the key."""
    table = dict(DEFAULT_EPS)
    for key, value in dict(eps or {}).items():
        _member("tolerance key", key, tuple(DEFAULT_EPS))
        try:
            table[key] = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"tolerance {key} must be a number, got {value!r}") from None
        if not (math.isfinite(table[key]) and table[key] > 0.0):
            raise ValueError(f"tolerance {key} must be positive and finite, got {value!r}")
    return table


def _require_finite(record: StateRecord, *fields: str) -> None:
    """Raise for the first of the record's fields that is not finite."""
    for field in fields:
        value = float(getattr(record, field))
        if not math.isfinite(value):
            raise ValueError(
                f"record id {record.id}: {field} is {value!r};"
                " the ordering census compares finite values only"
            )


def classify_pair(r1: StateRecord, r2: StateRecord, measure: str, eps=None) -> OrderingClass:
    """Cell of the pair (r1, r2) for one measure; eps as in the census."""
    _member("measure", measure, MEASURE_NAMES)
    table = _normalize_eps(eps)
    for record in (r1, r2):
        _require_finite(record, measure, "qfi_max")
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

# The census counts a tile's codes into this many sub-histograms, one per
# column mod _LANES, so that neighbouring pairs, which often share a code,
# do not wait on one counter.  _LANES must divide 2**16: past 2**15 records
# ``_Counter.lanes`` comes from an int16 ``arange`` that wraps, and a wrapped
# column keeps its residue mod _LANES only then.
_LANES = 4


# The twelve cells by index 3 * measure_relation + mqfi_relation.
_CELLS = tuple(OrderingClass(r, q) for r in MEASURE_RELATIONS for q in MQFI_RELATIONS)
# The keys of a measure's cells in ``_Codes.keys``: the twelve, then the sentinel.
_STRIDE = len(_CELLS) + 1
_DISCORDANT_CODES = tuple(code for code, cell in enumerate(_CELLS) if cell in DISCORDANT_CELLS)

# MEASURE_RELATIONS index of a measure's trit, for a row outside and a row
# inside the zero band.
_RELATION_OF_TRIT = ((1, 2, 3), (0, 2, 3))


class _Codes(NamedTuple):
    """The codes of ``_cell_tiles``: a pair's code is its row's zero-band
    bits (``MEASURE_NAMES`` order, first measure highest) times 81 plus its
    trits as base-3 digits (first measure highest, ``qfi_max`` lowest), and
    ``sentinel`` marks a tile cell with no pair.  A scan of fewer measures
    leaves the bit and the digit of each other measure at 0.  ``keys[m,
    code]`` is ``_STRIDE * m`` plus measure m's cell, ``3 *
    measure_relation + mqfi_relation`` or ``len(_CELLS)`` for the
    sentinel."""

    sentinel: int
    zero_weights: np.ndarray
    digits: np.ndarray
    keys: np.ndarray


def _codes() -> _Codes:
    """The tables of ``_Codes``, built in Python: a few thousand entries."""
    count = len(MEASURE_NAMES)
    quantities = count + 1
    sentinel = 2**count * 3**quantities
    digits = [3**k for k in range(count, -1, -1)]
    zero_weights = [3**quantities << k for k in range(count - 1, -1, -1)]
    cells = [
        [3 * _RELATION_OF_TRIT[code // w % 2][code // d % 3] + code % 3 for code in range(sentinel)]
        + [len(_CELLS)]
        for w, d in zip(zero_weights, digits)
    ]
    keys = np.array(cells) + np.arange(0, _STRIDE * count, _STRIDE)[:, None]
    digits = np.array(digits, dtype=np.uint8)[:, None, None]
    return _Codes(sentinel, np.array(zero_weights)[:, None], digits, keys)


_CODES = _codes()


def _low_counts(ordered: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """For each value ``a`` of each row of ``ordered``, a row sorted
    ascending, the count of the row's values ``b`` with ``a - b > tol`` as
    rounded, ``tol`` one tolerance per row.

    Rounding to nearest never raises ``a - b`` as ``b`` grows (Goldberg,
    ACM Comput. Surv. 23, 5, 1991), so those ``b`` lead the row.  Each
    count is found by ``searchsorted`` on the rounded ``a - tol``, checked
    by the predicate itself at its two neighbours, and bisected on the
    predicate where the rounding of ``a - tol`` moved it."""
    rows, n = ordered.shape
    # The rows between -inf and inf.
    padded = np.empty((rows, n + 2))
    padded[:, 0], padded[:, -1] = -np.inf, np.inf
    padded[:, 1:-1] = ordered
    # b holds the keys a - tol, then the neighbours b that check each count.
    b = ordered - tol
    count = np.empty((rows, n), dtype=np.intp)
    for row, keys, found in zip(ordered, b, count):
        found[:] = np.searchsorted(row, keys)
    # a - b > tol holds at sorted position count - 1, padded column count,
    # and fails at position count, padded column count + 1.
    start = np.arange(0, padded.size, n + 2)[:, None]
    count += start
    moved = np.subtract(ordered, padded.take(count, out=b, mode="clip"), out=b) <= tol
    count += 1
    moved |= np.subtract(ordered, padded.take(count, out=b, mode="clip"), out=b) > tol
    count -= start + 1
    if moved.any():
        at, cols = np.nonzero(moved)
        a, t = ordered[at, cols], tol[at, 0]
        lo, hi = np.zeros_like(at), np.full_like(at, n)
        while (active := lo < hi).any():
            mid = (lo + hi) // 2
            hold = active & (a - ordered[at, np.minimum(mid, n - 1)] > t)
            lo = np.where(hold, mid + 1, lo)
            hi = np.where(active & ~hold, mid, hi)
        count[at, cols] = lo
    return count


def _rank_thresholds(values: np.ndarray, tols: np.ndarray):
    """Ranks and per-record rank thresholds of each compared quantity.

    ``values`` holds one quantity per row, ``tols`` their tolerances.  For
    the pair ``(i, j)`` of a row with ``a = values[q, i]`` and ``b =
    values[q, j]``, ``classify_pair`` reads ``d = a - b`` as rounded: low
    when ``d > tol``, middle when ``|d| <= tol`` and high when ``d < -tol``.
    With ``ranks`` the positions in a sort, the relation is low iff
    ``ranks[q, j] < low[q, i]``, high iff ``ranks[q, j] >= high[q, i]``,
    and middle in between.  ``low`` counts the values ``b`` with ``a - b >
    tol`` (``_low_counts``), and ``high`` those without ``b - a > tol``:
    as ``b - a > tol`` says that ``a`` lies below ``b``'s low count, the
    value at sorted position ``p`` has for ``high`` the number of low counts
    at most ``p``, read off a cumulative histogram of the low counts.
    """
    quantities, n = values.shape
    line = np.arange(quantities)[:, None]
    rank_type = np.int16 if n < 2**15 else np.int32
    order = np.argsort(values, axis=1, kind="stable")
    ranks = np.empty((quantities, n), rank_type)
    ranks[line, order] = np.arange(n, dtype=rank_type)
    low = _low_counts(values[line, order], tols[:, None])
    high = np.bincount((low + line * (n + 1)).ravel(), minlength=quantities * (n + 1))
    high = high.reshape(quantities, n + 1).cumsum(axis=1)
    # By record, at its own sorted position.
    return ranks, low.astype(rank_type)[line, ranks], high.astype(rank_type)[line, ranks]


def _in_id_order(records: Sequence[StateRecord]) -> Sequence[StateRecord]:
    """The records sorted by id, equal ids in list order; ``records``
    itself where the ids never decrease."""
    ids = np.fromiter(map(operator.attrgetter("id"), records), np.int64, len(records))
    if (ids[1:] >= ids[:-1]).all():
        return records
    return [records[k] for k in np.argsort(ids, kind="stable").tolist()]


def _cell_tiles(
    records: Sequence[StateRecord], measures: Sequence[str], table: Mapping[str, float]
):
    """Cell codes of the pairs ``(i, j > i)`` in tiles of whole rows, with
    the comparators of ``classify_pair``.

    Each compared quantity, the measures in order and then ``qfi_max``,
    gives a pair the trit 0, 1 or 2 of its low, middle or high relation
    (``_rank_thresholds``), from two compares of ranks.  ``qfi_max`` reads
    them greater, equal and less; a measure reads them first-greater,
    equal-positive and second-greater, or, where the row's value is in the
    zero band, both-zero, equal-positive and second-greater (first-greater
    cannot occur there).  Each quantity's trit and each measure's zero-band
    bit take that quantity's own place of the one ``_Codes`` layout, and
    the places of measures not compared stay 0.  Yields ``(first,
    codes)``: ``codes[r, c]`` is the code of the pair ``(first + r, first +
    1 + c)``, or the sentinel where ``c < r`` holds no pair, so a tile read
    row-major lists its pairs in canonical order.
    """
    # a single record yields zero tiles, which is fine; only empty input is an error
    if not records:
        raise ValueError("the ordering census needs at least one record")
    n = len(records)
    fields = (*measures, "qfi_max")
    values = np.stack(
        [np.fromiter(map(operator.attrgetter(name), records), float, n) for name in fields]
    )
    finite = np.isfinite(values)
    if not finite.all():
        k = int(np.flatnonzero(~finite.all(axis=0))[0])
        _require_finite(records[k], fields[int(np.flatnonzero(~finite[:, k])[0])])
    tols = np.array([table[name] for name in (*measures, "mqfi")])
    ranks, low, high = _rank_thresholds(values, tols)
    # A measure's zero-band rows read both-zero below the count of values in
    # the band, and equal-positive from there to the middle's end.
    zero = values[:-1] <= tols[:-1, None]
    band = np.count_nonzero(zero, axis=1)[:, None]
    low[:-1] = np.where(zero, band, low[:-1])
    high[:-1] = np.where(zero & (high[:-1] < band), band, high[:-1])
    places = [MEASURE_NAMES.index(name) for name in measures]
    digits = _CODES.digits.take([*places, len(MEASURE_NAMES)], axis=0)
    base = (_CODES.zero_weights.take(places, axis=0) * zero).sum(axis=0, dtype=np.int16)
    first = 0
    while first < n - 1:
        cols = n - 1 - first
        rows = min(cols, max(1, _TILE_PAIRS // cols))
        head, later = slice(first, first + rows), slice(first + 1, n)
        trits = np.greater_equal(ranks[:, None, later], low[:, head, None]).view(np.uint8)
        trits += np.greater_equal(ranks[:, None, later], high[:, head, None]).view(np.uint8)
        trits *= digits
        codes = np.add(base[head, None], trits.sum(axis=0, dtype=np.uint8))
        # c < r, masked without np.tri, whose Python wrapper costs more than a small tile
        codes[:, :rows][np.arange(rows)[:, None] > np.arange(rows)] = _CODES.sentinel
        del trits  # not held while the caller reads the codes
        yield first, codes
        first += rows


class _Counter:
    """The census count of a call's tiles: each tile's codes of all three
    measures go into ``_LANES`` sub-histograms end to end, by column, and
    the per-measure tables are read off their sum."""

    def __init__(self, records: Sequence[StateRecord]):
        width = _CODES.sentinel + 1
        self.lanes = np.arange(max(len(records) - 1, 0), dtype=np.int16) % _LANES * width
        self.counts = np.zeros(_LANES * width, dtype=np.int64)

    def add(self, codes: np.ndarray) -> None:
        lanes = self.lanes[: codes.shape[1]]
        self.counts += np.bincount((codes + lanes).ravel(), minlength=self.counts.size)

    def tables(self) -> dict[str, dict[OrderingClass, int]]:
        """The per-measure tables; the float64 sums are exact, as no count
        reaches 2**53."""
        codes = self.counts.reshape(_LANES, -1).sum(axis=0)
        cells = np.bincount(_CODES.keys.ravel(), np.concatenate((codes,) * len(_CODES.keys)))
        cells = cells.astype(np.int64).reshape(-1, _STRIDE).tolist()
        return {name: dict(zip(_CELLS, row)) for name, row in zip(MEASURE_NAMES, cells)}


def census(records: Sequence[StateRecord], eps=None) -> dict[str, dict[OrderingClass, int]]:
    """Cell counts over all unordered pairs, one table per measure.

    Pairs are taken in canonical order (lower id first, whatever the order
    of ``records``), so counts per measure always sum to n(n-1)/2 exactly.
    """
    table = _normalize_eps(eps)
    records = _in_id_order(records)
    counter = _Counter(records)
    for _, codes in _cell_tiles(records, MEASURE_NAMES, table):
        counter.add(codes)
    return counter.tables()


class _Collector:
    """The first ``limit`` pairs of each discordant cell of each of
    ``measures``, gathered tile by tile in canonical order.

    ``need`` holds the pairs each ``_Codes`` key still wants, none for a
    measure not scanned.  ``open`` marks the codes with such a key, read
    off ``need`` from the start and again after each tile in which a cell
    fills, so that one lookup per tile finds the candidate pairs, and only
    they are decoded.
    """

    def __init__(self, records: Sequence[StateRecord], measures: Sequence[str], limit: int):
        self.records, self.measures = records, measures
        self.places = [MEASURE_NAMES.index(name) for name in measures]
        self.keys = _CODES.keys.take(self.places, axis=0)
        self.hits = {_STRIDE * m + code: [] for m in self.places for code in _DISCORDANT_CODES}
        self.need = np.zeros(_STRIDE * len(MEASURE_NAMES), dtype=np.intp)
        self.need[list(self.hits)] = limit
        self.open = self.need[self.keys].any(axis=0)

    def collect(self, first: int, codes: np.ndarray) -> bool:
        """Take a tile's pairs into the cells that want them; True once
        every cell is full."""
        found = np.flatnonzero(self.open.take(codes))
        if not found.size:
            return False
        # each candidate's key per measure, measure after measure
        keys = self.keys[:, codes.ravel()[found]].ravel()
        wanted = np.bincount(keys, minlength=self.need.size) * self.need
        cols = codes.shape[1]
        touched = np.flatnonzero(wanted)
        for key in touched.tolist():
            taken = np.flatnonzero(keys == key)[: self.need[key]] % found.size
            for k in found[taken].tolist():
                r, c = divmod(k, cols)
                self.hits[key].append((self.records[first + r], self.records[first + 1 + c]))
            self.need[key] -= taken.size
        if self.need[touched].all():
            return False  # no cell filled, so ``open`` stands
        self.open = self.need[self.keys].any(axis=0)
        return not self.open.any()

    def witnesses(self) -> dict[str, list[PairWitness]]:
        """The collected pairs as witnesses, by measure, cell by cell."""

        def witness(r1: StateRecord, r2: StateRecord, measure: str, code: int) -> PairWitness:
            values = getattr(r1, measure), getattr(r2, measure), r1.qfi_max, r2.qfi_max
            return PairWitness(r1.id, r2.id, _CELLS[code], tuple(map(float, values)))

        return {
            measure: [
                witness(r1, r2, measure, code)
                for code in _DISCORDANT_CODES
                for r1, r2 in self.hits[_STRIDE * m + code]
            ]
            for m, measure in zip(self.places, self.measures)
        }


def find_counterexamples(
    records: Sequence[StateRecord],
    measure: str,
    eps=None,
    limit: int = DEFAULT_WITNESS_LIMIT,
) -> list[PairWitness]:
    """Up to ``limit`` witnesses per discordant cell, in canonical pair
    order (lower id first, whatever the order of ``records``).

    The scan stops after the first tile after which every discordant cell
    holds ``limit`` witnesses.  ``limit`` is any integer of at least 1, as
    ``states._integer`` reads it.
    """
    _member("measure", measure, MEASURE_NAMES)
    limit = _integer("limit", limit, 1)
    table = _normalize_eps(eps)
    records = _in_id_order(records)
    collector = _Collector(records, (measure,), limit)
    for first, codes in _cell_tiles(records, (measure,), table):
        if collector.collect(first, codes):
            break
    return collector.witnesses()[measure]


def census_and_witnesses(
    records: Sequence[StateRecord], eps=None
) -> tuple[dict[str, dict[OrderingClass, int]], dict[str, list[PairWitness]]]:
    """``census(records, eps)`` and, by measure, ``find_counterexamples(
    records, measure, eps)``, from one scan of the pairs.

    Each tile's codes are counted whole, and give witnesses until every
    measure's discordant cells are full.
    """
    table = _normalize_eps(eps)
    records = _in_id_order(records)
    counter = _Counter(records)
    collector = _Collector(records, MEASURE_NAMES, DEFAULT_WITNESS_LIMIT)
    full = False
    for first, codes in _cell_tiles(records, MEASURE_NAMES, table):
        counter.add(codes)
        full = full or collector.collect(first, codes)
    return counter.tables(), collector.witnesses()
