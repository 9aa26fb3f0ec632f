"""Pairwise ordering census of measures against optimized mean QFI."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from entqfi import ordering
from entqfi import (
    DEFAULT_EPS,
    DEFAULT_WITNESS_LIMIT,
    DISCORDANT_CELLS,
    EulerAngleSet,
    ExperimentConfig,
    MEASURE_NAMES,
    OrderingClass,
    PairWitness,
    StateRecord,
    census,
    census_and_witnesses,
    classify_pair,
    find_counterexamples,
    run_experiment,
)
from entqfi.ordering import MEASURE_RELATIONS, MQFI_RELATIONS

ZERO_ANGLES = EulerAngleSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def rec(index, value=0.0, qfi=1.0):
    """Record with all three measures set to the same value."""
    return StateRecord(
        id=index,
        concurrence=value,
        negativity=value,
        ree=value,
        separable=value == 0.0,
        ree_converged=True,
        qfi_raw=qfi,
        qfi_max=qfi,
        qfi_min=qfi,
        max_angles=ZERO_ANGLES,
        min_angles=ZERO_ANGLES,
        refined=False,
        base_max_value=qfi,
        base_min_value=qfi,
    )


def test_default_eps_pinned():
    assert DEFAULT_EPS == {
        "concurrence": 1e-4,
        "negativity": 1e-4,
        "ree": 5e-3,
        "mqfi": 1e-4,
    }


def test_discordant_cells_pinned():
    # concordance means larger measure implies larger optimized QFI;
    # these six cells are the violations
    expected = {
        ("first-greater", "equal"),
        ("first-greater", "less"),
        ("second-greater", "equal"),
        ("second-greater", "greater"),
        ("equal-positive", "greater"),
        ("equal-positive", "less"),
    }
    assert {tuple(cell) for cell in DISCORDANT_CELLS} == expected


def test_classify_measure_relations():
    assert classify_pair(rec(0, 0.5), rec(1, 0.3), "ree").measure_relation == "first-greater"
    assert classify_pair(rec(0, 0.3), rec(1, 0.5), "ree").measure_relation == "second-greater"
    assert classify_pair(rec(0, 0.5), rec(1, 0.5), "ree").measure_relation == "equal-positive"
    assert classify_pair(rec(0, 0.0), rec(1, 0.0), "ree").measure_relation == "both-zero"


def test_classify_zero_band_takes_precedence():
    # both values inside the zero band count as both-zero even when unequal
    a = rec(0, 5e-5)
    b = rec(1, 3e-5)
    assert classify_pair(a, b, "concurrence").measure_relation == "both-zero"


def test_classify_equality_band():
    a = rec(0, 2.0e-4)
    b = rec(1, 1.5e-4)
    # gap 5e-5 is inside the concurrence tolerance 1e-4
    assert classify_pair(a, b, "concurrence").measure_relation == "equal-positive"
    # exactly at the boundary still counts as equal
    c = rec(2, 3.0e-4)
    assert classify_pair(c, a, "concurrence").measure_relation == "equal-positive"


def test_classify_mqfi_relations():
    assert classify_pair(rec(0, 0.5, qfi=1.4), rec(1, 0.5, qfi=1.2), "ree").mqfi_relation == "greater"
    assert classify_pair(rec(0, 0.5, qfi=1.2), rec(1, 0.5, qfi=1.4), "ree").mqfi_relation == "less"
    assert classify_pair(rec(0, 0.5, qfi=1.2), rec(1, 0.5, qfi=1.2 + 5e-5), "ree").mqfi_relation == "equal"


def test_classify_eps_overrides():
    a = rec(0, 0.30)
    b = rec(1, 0.32)
    assert classify_pair(a, b, "ree").measure_relation == "second-greater"
    assert classify_pair(a, b, "ree", eps={"ree": 0.05}).measure_relation == "equal-positive"


def test_classify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        classify_pair(rec(0), rec(1), "fidelity")
    with pytest.raises(ValueError):
        classify_pair(rec(0), rec(1), "ree", eps={"volume": 0.1})
    with pytest.raises(ValueError):
        classify_pair(rec(0), rec(1), "ree", eps={"ree": -1.0})
    with pytest.raises(ValueError, match="positive and finite"):
        classify_pair(rec(0), rec(1), "ree", eps={"ree": float("nan")})


def test_classify_antisymmetry():
    flip_measure = {
        "first-greater": "second-greater",
        "second-greater": "first-greater",
        "equal-positive": "equal-positive",
        "both-zero": "both-zero",
    }
    flip_mqfi = {"greater": "less", "less": "greater", "equal": "equal"}
    rng = np.random.default_rng(41)
    records = [rec(i, rng.uniform(0.0, 0.6), qfi=rng.uniform(0.5, 2.0)) for i in range(12)]
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            fwd = classify_pair(records[i], records[j], "negativity")
            rev = classify_pair(records[j], records[i], "negativity")
            assert rev.measure_relation == flip_measure[fwd.measure_relation]
            assert rev.mqfi_relation == flip_mqfi[fwd.mqfi_relation]


def test_census_matches_pairwise_classification():
    rng = np.random.default_rng(42)
    records = []
    for i in range(40):
        value = 0.0 if rng.uniform() < 0.3 else rng.uniform(0.0, 0.8)
        records.append(rec(i, value, qfi=rng.uniform(0.4, 2.0)))
    tables = census(records)
    for measure in MEASURE_NAMES:
        expected = {
            OrderingClass(rel, q): 0 for rel in MEASURE_RELATIONS for q in MQFI_RELATIONS
        }
        for i in range(len(records)):
            for j in range(i + 1, len(records)):
                expected[classify_pair(records[i], records[j], measure)] += 1
        assert tables[measure] == expected
        assert sum(tables[measure].values()) == len(records) * (len(records) - 1) // 2


def test_census_single_record_has_no_pairs():
    tables = census([rec(0, 0.5)])
    assert all(v == 0 for table in tables.values() for v in table.values())
    with pytest.raises(ValueError):
        census([])


def test_find_counterexamples_returns_valid_witnesses():
    # one engineered pair per discordant cell, plus concordant noise
    records = [
        rec(0, 0.50, qfi=1.50),
        rec(1, 0.30, qfi=1.50),  # with 0: first-greater / equal
        rec(2, 0.70, qfi=1.10),  # with 0: second-greater / greater
        rec(3, 0.50, qfi=1.90),  # with 0: equal-positive / less
        rec(4, 0.00, qfi=1.00),
    ]
    witnesses = find_counterexamples(records, "ree", limit=5)
    assert witnesses, "expected at least one discordant pair"
    for witness in witnesses:
        assert witness.ordering in DISCORDANT_CELLS
        r1 = records[witness.id_1]
        r2 = records[witness.id_2]
        assert classify_pair(r1, r2, "ree") == witness.ordering
        assert witness.values == (r1.ree, r2.ree, r1.qfi_max, r2.qfi_max)
        assert witness.id_1 < witness.id_2
    cells = {w.ordering for w in witnesses}
    assert OrderingClass("first-greater", "equal") in cells
    assert OrderingClass("equal-positive", "less") in cells


def test_find_counterexamples_respects_limit():
    # identical measures with spread-out qfi: every unequal-qfi pair is discordant
    records = [rec(i, 0.5, qfi=1.0 + 0.2 * (i % 3)) for i in range(12)]
    witnesses = find_counterexamples(records, "ree", limit=3)
    per_cell = {}
    for witness in witnesses:
        per_cell[witness.ordering] = per_cell.get(witness.ordering, 0) + 1
    assert per_cell, "equal measures with unequal qfi must be discordant"
    assert all(count <= 3 for count in per_cell.values())
    with pytest.raises(ValueError):
        find_counterexamples(records, "ree", limit=0)
    with pytest.raises(ValueError):
        find_counterexamples(records, "entropy")


def test_tolerance_widening_moves_pairs_toward_equal():
    rng = np.random.default_rng(43)
    records = [rec(i, rng.uniform(0.0, 0.8), qfi=rng.uniform(0.4, 2.0)) for i in range(30)]
    narrow = census(records, eps={"ree": 1e-6})["ree"]
    wide = census(records, eps={"ree": 0.2})["ree"]

    def strict_count(table):
        return sum(
            count
            for cell, count in table.items()
            if cell.measure_relation in ("first-greater", "second-greater")
        )

    assert strict_count(wide) <= strict_count(narrow)


def measured(index, concurrence, negativity, ree, qfi):
    """Record with independent measure values."""
    return dataclasses.replace(
        rec(index, qfi=qfi),
        concurrence=concurrence,
        negativity=negativity,
        ree=ree,
        separable=concurrence == 0.0,
    )


def count_rows(monkeypatch):
    """Patch the tile kernel to one row per tile, so that each call records
    how many rows its tiles covered."""
    kernel = ordering._cell_tiles
    calls = []

    def counted(*args):
        calls.append(0)
        for first, codes in kernel(*args):
            calls[-1] += codes.shape[-2]
            yield first, codes

    monkeypatch.setattr(ordering, "_TILE_PAIRS", 1)
    monkeypatch.setattr(ordering, "_cell_tiles", counted)
    return calls


def test_witnesses_are_first_pairs_per_cell_in_canonical_order(monkeypatch):
    # values sit on and next to each tolerance, so zero bands and ties matter
    rng = np.random.default_rng(44)
    n = 60
    conc = rng.choice([0.0, 5e-5, 1e-4, 1.5e-4, 2e-4, 0.3, 0.30005, 0.3002], size=n)
    ree_values = rng.choice([0.0, 2.5e-3, 5e-3, 7.5e-3, 0.2, 0.204, 0.21], size=n)
    qfi = rng.choice([1.0, 1.0 + 5e-5, 1.0 + 1e-4, 1.0 + 2e-4, 1.2, 0.8], size=n)
    # negativity: spaced wider than its tolerance except the last pair, so
    # equal-positive/less gets one witness and equal-positive/greater none
    neg = 0.01 * (1.0 + rng.permutation(n))
    neg[n - 1] = neg[n - 2] + 5e-5
    qfi[n - 2], qfi[n - 1] = 1.0, 1.5
    records = [
        measured(i, float(conc[i]), float(neg[i]), float(ree_values[i]), float(qfi[i]))
        for i in range(n)
    ]
    rows = count_rows(monkeypatch)
    limit = 2
    found = {}
    for measure in MEASURE_NAMES:
        expected = []
        for cell in (OrderingClass(r, q) for r in MEASURE_RELATIONS for q in MQFI_RELATIONS):
            if cell not in DISCORDANT_CELLS:
                continue
            pairs = [
                (a, b)
                for i, a in enumerate(records)
                for b in records[i + 1 :]
                if classify_pair(a, b, measure) == cell
            ][:limit]
            expected.extend(
                PairWitness(
                    a.id,
                    b.id,
                    measure,
                    cell,
                    (getattr(a, measure), getattr(b, measure), a.qfi_max, b.qfi_max),
                )
                for a, b in pairs
            )
        found[measure] = find_counterexamples(records, measure, limit=limit)
        assert found[measure] == expected

    def filled(measure, cell):
        return sum(w.ordering == cell for w in found[measure])

    # concurrence fills every cell within the first rows and stops early
    assert all(filled("concurrence", cell) == limit for cell in DISCORDANT_CELLS)
    assert rows[0] < n // 4
    # negativity never fills its equal-positive cells and scans every row
    assert filled("negativity", OrderingClass("equal-positive", "less")) == 1
    assert filled("negativity", OrderingClass("equal-positive", "greater")) == 0
    assert rows[1] == n - 1
    # the one scan keeps collecting for negativity alone, and reads the same
    separate = census(records), {m: find_counterexamples(records, m) for m in MEASURE_NAMES}
    assert census_and_witnesses(records) == separate


def test_census_and_witnesses_use_linear_memory():
    # spaced wider than every tolerance: the equal-positive cells stay
    # empty, so the witness scan runs over all n(n-1)/2 pairs
    rng = np.random.default_rng(45)
    n = 2000
    values = 0.01 * (1.0 + rng.permutation(n))
    qfi = rng.uniform(0.0, 2.0, size=n)
    records = [rec(i, float(values[i]), qfi=float(qfi[i])) for i in range(n)]
    for run in (
        lambda: census(records),
        lambda: find_counterexamples(records, "negativity"),
        lambda: census_and_witnesses(records),
    ):
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak


def test_empty_records_share_one_error():
    with pytest.raises(ValueError, match="at least one record") as from_census:
        census([])
    with pytest.raises(ValueError, match="at least one record") as from_witnesses:
        find_counterexamples([], "ree")
    assert str(from_census.value) == str(from_witnesses.value)


def edge_pool(tol):
    """Values on and one ulp either side of the tolerance edges: pairs of
    them differ by exactly +-tol and one ulp either side (Sterbenz), and
    the pool holds -0.0 and the inside of the zero band."""
    up, down = np.nextafter(tol, np.inf), np.nextafter(tol, 0.0)
    two = 2.0 * tol
    return [
        -0.0, 0.0, 0.5 * tol, down, tol, up,
        np.nextafter(two, 0.0), two, np.nextafter(two, np.inf), 3.0 * tol, 0.25,
    ]


def edge_records(n):
    rng = np.random.default_rng(46)
    pools = {name: edge_pool(DEFAULT_EPS[name]) for name in (*MEASURE_NAMES, "mqfi")}
    draw = {name: rng.choice(pool, size=n) for name, pool in pools.items()}
    return [
        measured(
            i,
            float(draw["concurrence"][i]),
            float(draw["negativity"][i]),
            float(draw["ree"][i]),
            float(draw["mqfi"][i]),
        )
        for i in range(n)
    ]


def expected_scans(records, eps=None, limit=3):
    """``census``, ``find_counterexamples`` at ``limit`` and the witnesses
    of ``census_and_witnesses``, by measure, from ``classify_pair``."""
    cells = [OrderingClass(r, q) for r in MEASURE_RELATIONS for q in MQFI_RELATIONS]
    tables, witnesses, run_witnesses = {}, {}, {}
    for measure in MEASURE_NAMES:
        pairs = [
            (a, b, classify_pair(a, b, measure, eps))
            for i, a in enumerate(records)
            for b in records[i + 1 :]
        ]
        tables[measure] = {cell: sum(c == cell for *_, c in pairs) for cell in cells}
        witnesses[measure], run_witnesses[measure] = (
            [
                PairWitness(
                    a.id, b.id, measure, cell,
                    (getattr(a, measure), getattr(b, measure), a.qfi_max, b.qfi_max),
                )
                for cell in cells
                if cell in DISCORDANT_CELLS
                for a, b, _ in [pair for pair in pairs if pair[2] == cell][:kept]
            ]
            for kept in (limit, DEFAULT_WITNESS_LIMIT)
        )
    return tables, witnesses, run_witnesses


def assert_scans_agree(monkeypatch, records, eps, tile_sizes):
    """The census, each measure's witness scan and the one scan read what
    ``classify_pair`` reads, at each tile size."""
    limit = 3
    expected_census, expected_witnesses, expected_default = expected_scans(records, eps, limit)
    for tile_pairs in tile_sizes:
        monkeypatch.setattr(ordering, "_TILE_PAIRS", tile_pairs)
        assert census(records, eps) == expected_census, tile_pairs
        for measure in MEASURE_NAMES:
            found = find_counterexamples(records, measure, eps, limit=limit)
            assert found == expected_witnesses[measure], (tile_pairs, measure)
        # one scan for the census and every measure's witnesses, at the run's limit
        together = census_and_witnesses(records, eps)
        assert together == (expected_census, expected_default), tile_pairs
    return expected_census


@pytest.mark.parametrize("n", [1, 2, 3, 61, 301])
def test_tiles_agree_with_classify_pair_at_every_edge(monkeypatch, n):
    records = edge_records(n)
    tables = assert_scans_agree(monkeypatch, records, None, (1, 7, 100, ordering._TILE_PAIRS))
    if n == 301:
        # the edges are populated: every measure relation and QFI relation occurs
        for table in tables.values():
            for r in MEASURE_RELATIONS:
                assert any(table[OrderingClass(r, q)] for q in MQFI_RELATIONS), r
            for q in MQFI_RELATIONS:
                assert any(table[OrderingClass(r, q)] for r in MEASURE_RELATIONS), q


def pool_records(rng, pool, n):
    """n records, each quantity drawn from ``pool`` on its own."""
    draw = rng.choice(pool, size=(4, n))
    return [measured(i, *map(float, draw[:, i])) for i in range(n)]


# A tolerance just below 1: 1 - tol is 2**-20, and fl(a - b) for a near 1 and
# b near 2**-20 keeps only a's last bits, so the many distinct b of that
# cluster all give one rounded difference, on the tolerance itself.
NEAR_ONE = 1.0 - 2.0**-20


def ulp_cluster_records():
    rng = np.random.default_rng(47)
    small = 2.0**-20 * (1.0 + 2.0**-52 * np.arange(-40, 41))
    near = 1.0 + 2.0**-52 * np.arange(-4, 5)
    pool = np.concatenate((small, near, [-0.0, 0.5, 2.0 - 2.0**-20]))
    return pool_records(rng, pool, 120), {key: NEAR_ONE for key in DEFAULT_EPS}


def magnitude_records():
    # 1e12 has an ulp of 2**-13 > 1e-4, so a - tol rounds a whole ulp down
    rng = np.random.default_rng(48)
    steps = 2.0**-13 * np.arange(-6, 7)
    pool = np.concatenate((1e12 + steps, -1e12 + steps, [0.0, 1e-4]))
    return pool_records(rng, pool, 90), None


def tie_records():
    # long runs of equal values, negative values and both zeros
    rng = np.random.default_rng(49)
    pool = [-0.25, -1e-4, -5e-5, -0.0, 0.0, 5e-5, 1e-4, 0.25]
    return pool_records(rng, np.repeat(pool, 15), 100), None


ADVERSARIAL = {"ulp_cluster": ulp_cluster_records, "1e12": magnitude_records, "ties": tie_records}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_rank_thresholds_count_the_float_predicate(case):
    records, eps = ADVERSARIAL[case]()
    table = ordering._normalize_eps(eps)
    values = np.array([[getattr(r, f) for r in records] for f in (*MEASURE_NAMES, "qfi_max")])
    tols = np.array([table[key] for key in (*MEASURE_NAMES, "mqfi")])
    ranks, low, high = ordering._rank_thresholds(values, tols)
    n = len(records)
    moved = False
    for row, tol, rank, lo, hi in zip(values, tols, ranks, low, high):
        assert sorted(rank) == list(range(n))
        assert (np.diff(row[np.argsort(rank)]) >= 0).all()
        d = row[:, None] - row[None, :]
        assert (lo == np.count_nonzero(d > tol, axis=1)).all()
        assert (hi == n - np.count_nonzero(-d > tol, axis=1)).all()
        moved |= (np.searchsorted(np.sort(row), row - tol) != lo).any()
    # searchsorted on the rounded a - tol misses the exact count here, so
    # these inputs run the bisection
    assert moved or case == "ties"


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_tiles_agree_with_classify_pair_on_adversarial_floats(monkeypatch, case):
    records, eps = ADVERSARIAL[case]()
    assert_scans_agree(monkeypatch, records, eps, (1, 7, ordering._TILE_PAIRS))


@pytest.mark.parametrize("master_seed", [7, 12, 17])
def test_one_scan_reads_a_five_state_run_as_the_four_scans(master_seed):
    # A run's census and witnesses come from census_and_witnesses; on a
    # five-state run, the size of each benchmark chunk, they are the census,
    # find_counterexamples for each measure and classify_pair.  These master
    # seeds give discordant pairs, which most five-state runs do not.
    cfg = ExperimentConfig(count=5, master_seed=master_seed)
    result = run_experiment(cfg)
    records = result.records
    assert result.censuses == census(records, cfg.eps_order)
    for measure in MEASURE_NAMES:
        assert result.witnesses[measure] == find_counterexamples(records, measure, cfg.eps_order)
        for witness in result.witnesses[measure]:
            pair = records[witness.id_1], records[witness.id_2]
            assert classify_pair(*pair, measure, cfg.eps_order) == witness.ordering
        cells = [
            classify_pair(a, b, measure, cfg.eps_order)
            for i, a in enumerate(records)
            for b in records[i + 1 :]
        ]
        table = result.censuses[measure]
        assert table == {cell: cells.count(cell) for cell in table}
    assert any(result.witnesses.values())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", [*MEASURE_NAMES, "qfi_max"])
def test_nonfinite_values_name_the_first_record(field, bad):
    records = [
        dataclasses.replace(rec(i, 0.1 * i, qfi=1.0 + 0.1 * i), id=10 + i) for i in range(5)
    ]
    for index in (2, 4):
        records[index] = dataclasses.replace(records[index], **{field: bad})
    message = f"record id 12: {field} is {bad!r}"
    with pytest.raises(ValueError, match=message):
        census(records)
    for measure in MEASURE_NAMES:
        if field in (measure, "qfi_max"):
            with pytest.raises(ValueError, match=message):
                find_counterexamples(records, measure)
        else:
            find_counterexamples(records, measure)
