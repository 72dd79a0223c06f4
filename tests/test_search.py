import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    W,
    BlochDirection,
    InequalityKind,
    Optimizer,
    Scenario,
    ScenarioSpec,
    SearchConfig,
    SearchError,
    SettingTriple,
    StateKind,
    StateSpec,
    ThresholdTable,
    build_state,
    build_table,
    direction_coefficients,
    optimize_angles,
    threshold_lambda,
    xyz_spec,
)
from seqsteer.cascade import states_along, term_expectations
from seqsteer.qop import Z_DIR, validate_density
from seqsteer.search import (
    LAMBDA_FLOOR,
    MIN_TOL,
    _best_direction,
    _line,
)
from util import (
    EXACT_STATES,
    FROZEN_LADDERS,
    TABLE_CASES,
    _direction_from_vector,
    _settings_and_value,
    decision_margins,
    exact_chain,
    exact_ladder,
    exact_optimum,
    ladder_bit_cases,
    noisy_rotated_state,
    random_mixed_state,
    random_triple,
    reference_best_direction,
    reference_threshold_lambda,
    table_key,
    value_from_state,
)

GOLDEN = Path(__file__).parent / "golden"
LADDER_BITS = json.loads(
    (Path(__file__).parent / "reference" / "ladder_bits.json").read_text()
)
CLI_STDOUT = json.loads(
    (Path(__file__).parents[1] / "bench" / "reference" / "cli_stdout.json").read_text()
)


def test_first_threshold_brackets_the_analytic_root():
    # value(lam) = 1.1547 - 2*lam crosses zero at 0.57735; the reported
    # threshold is the upper bisection endpoint, so it sits within one
    # tolerance above the root
    root = 1.1547 / 2.0
    lam = threshold_lambda(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ()))
    assert root < lam <= root + 1.01e-4


def test_threshold_respects_custom_tolerance():
    cfg = SearchConfig(tol=1e-6)
    lam = threshold_lambda(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ()), cfg)
    root = 1.1547 / 2.0
    assert root < lam <= root + 1.01e-6


def test_threshold_none_when_projective_cannot_violate():
    # after three observers pinned near their minima, a fourth sharp
    # measurement no longer violates
    prefix = xyz_spec(
        Scenario.A, InequalityKind.G1, GHZ, (0.577493, 0.657998, 0.787698)
    )
    assert threshold_lambda(prefix) is None


def test_threshold_monotonicity_precondition(monkeypatch):
    # a model whose value grows with sharpness, or stays flat, must be
    # rejected, not silently bisected to a wrong root: an x/y/z slope
    # d_i . v_i >= 0, and a grid-refine slope -sum |v_i| that is zero
    import seqsteer.search as search_mod

    prefix = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ())
    e_x, zero = np.array([1.0, 0.0, 0.0]), np.zeros(3)
    for optimizer, vecs in (
        (Optimizer.FIXED_XYZ, [e_x, zero, zero]),
        (Optimizer.FIXED_XYZ, [zero, zero, zero]),
        (Optimizer.GRID_REFINE, [zero, zero, zero]),
    ):
        monkeypatch.setattr(
            search_mod, "_coefficients", lambda terms, kind, lam, v=vecs: (-2.0, [lam * x for x in v])
        )
        with pytest.raises(SearchError, match="does not decrease"):
            threshold_lambda(prefix, SearchConfig(optimizer=optimizer))


def test_tolerance_floor_ends_every_bracket(monkeypatch):
    # below 2**-53, the float spacing just below 1, a bracket around a
    # root near 0.5 could never shrink to tol, so such a tol is refused;
    # at the floor itself the bracket ends, here near 1, 0.5 and the floor
    import seqsteer.search as search_mod

    assert MIN_TOL == sys.float_info.epsilon / 2 == 2.0**-53
    with pytest.raises(ValueError, match=r"\[2\*\*-53 = 1.11e-16, 1\), got 1e-17"):
        SearchConfig(tol=1e-17)
    cfg = SearchConfig(tol=MIN_TOL)
    prefix = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ())
    # the value r - lam, as (base, vecs) with its slope -1 on the x setting
    vecs = [np.array([-1.0, 0.0, 0.0]), np.zeros(3), np.zeros(3)]
    for root in (1.0 - 2e-9, 0.5, 0.5 + 2.0**-52, 3 * LAMBDA_FLOOR):
        monkeypatch.setattr(
            search_mod, "_coefficients", lambda terms, kind, lam, r=root: (r, [lam * v for v in vecs])
        )
        lam = threshold_lambda(prefix, cfg)
        # the guard band moves the root up by SearchConfig.guard
        assert lam == pytest.approx(root + SearchConfig.guard, rel=0, abs=1e-15)


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_each_threshold_traces_its_state_once(monkeypatch, optimizer):
    # a threshold traces its state once and reads the line base + lam *
    # slope off one set of direction coefficients: no value is evaluated
    # and no direction is searched, at 1, near 0 or at a bracket midpoint
    import seqsteer.search as search_mod

    names = ("term_expectations", "_coefficients", "value_from_terms", "_best_direction")
    calls = {name: 0 for name in names}
    for name in names:
        def counted(*args, _call=getattr(search_mod, name), _name=name):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(search_mod, name, counted)
    cfg = SearchConfig(optimizer=optimizer)
    # the last prefix leaves no violation, so its threshold is None
    for lambdas in ((), (0.627,), (0.577493, 0.657998, 0.787698)):
        calls.update(dict.fromkeys(names, 0))
        threshold_lambda(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, lambdas), cfg)
        assert list(calls.values()) == [1, 1, 0, 0]
    calls.update(dict.fromkeys(names, 0))
    table = build_table(Scenario.A, InequalityKind.G1, GHZ, cfg)
    # three violating rows and the closing "none" row
    assert len(table.rows) == 4
    assert list(calls.values()) == [4, 4, 0, 0]


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_a_ladder_walks_one_state_down_the_chain(monkeypatch, optimizer):
    # row m's state is row m-1's after one channel step; rebuilding the
    # shared state and replaying every pinned predecessor per row would
    # grow the channel steps quadratically in the ladder length
    import seqsteer.cascade as cascade_mod
    import seqsteer.search as search_mod

    calls = {"averaged_channel": 0, "build_state": 0}
    for module in (search_mod, cascade_mod):
        for name in [n for n in calls if hasattr(module, n)]:
            def counted(*args, _name=name, _call=getattr(module, name)):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(module, name, counted)
    for state, scenario, kind in TABLE_CASES:
        calls.update(averaged_channel=0, build_state=0)
        table = build_table(scenario, kind, state, SearchConfig(optimizer=optimizer))
        assert table.rows[-1][1] is None
        assert calls == {"averaged_channel": len(table.rows) - 1, "build_state": 1}


@pytest.mark.parametrize(
    "state,scenario,kind",
    TABLE_CASES,
    ids=lambda v: getattr(v, "value", None) or v.kind.value,
)
def test_tables_match_frozen_reference(state, scenario, kind, tables):
    table = tables[table_key(state, scenario, kind)]
    expected = FROZEN_LADDERS[table_key(state, scenario, kind)]
    got = tuple(lam for _, lam in table.rows)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
        else:
            assert g == pytest.approx(e, abs=1e-5)


def test_rows_are_numbered_from_one(tables):
    table = tables[("ghz", "A", "g1")]
    assert [m for m, _ in table.rows] == [1, 2, 3, 4]
    assert table.truncated is False


def test_thresholds_increase_along_the_chain(tables):
    for table in tables.values():
        numeric = [lam for _, lam in table.rows if lam is not None]
        assert all(a < b for a, b in zip(numeric, numeric[1:]))


def test_max_observers_counts_numeric_rows(tables):
    assert tables[("ghz", "B", "g1")].max_observers == 6
    assert tables[("w", "A", "w2")].max_observers == 2


@pytest.mark.parametrize(
    "state,scenario,kind",
    TABLE_CASES,
    ids=lambda v: getattr(v, "value", None) or v.kind.value,
)
def test_golden_csv(state, scenario, kind, tables):
    table = tables[table_key(state, scenario, kind)]
    name = f"{state.kind.value}_{scenario.value}_{kind.value}.csv"
    assert table.to_csv() == (GOLDEN / name).read_text()


def test_golden_json(tables):
    for key in (("ghz", "A", "g1"), ("w", "B", "w2")):
        table = tables[key]
        name = "_".join(key) + ".json"
        assert table.to_json() + "\n" == (GOLDEN / name).read_text()


def test_ladder_bit_cases_match_the_reference_keys():
    assert sorted(ladder_bit_cases()) == sorted(LADDER_BITS)


@pytest.mark.parametrize("name", sorted(LADDER_BITS))
def test_ladder_bits_match_the_reference(name):
    # json writes each float as its repr, so equal text is equal bits
    scenario, kind, state, optimizer = ladder_bit_cases()[name]
    table = build_table(scenario, kind, state, SearchConfig(optimizer=optimizer))
    assert table.to_json() == json.dumps(LADDER_BITS[name], indent=2)


@pytest.mark.parametrize("optimizer", list(Optimizer), ids=lambda o: o.value)
def test_every_published_ladder_decides_far_from_its_boundaries(optimizer):
    # a change to the ladder arithmetic that moves each value by less
    # than a row's decision margin leaves every ladder byte alone (see
    # decision_margins); the smallest margin of the 16 ladders is 1.4e-6
    config = SearchConfig(optimizer=optimizer)
    for state, scenario, kind in TABLE_CASES:
        table = build_table(scenario, kind, state, config)
        margin = min(decision_margins(table, state, config))
        assert margin >= 1e-9, (table_key(state, scenario, kind), margin)


def _bench_workloads(monkeypatch):
    """bench/workloads.py, loaded read-only as a module (its dataclasses
    need it in sys.modules while it runs)."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("seqsteer_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_runs():
    """A function giving a benchmark workload and its seeds 1-10 outputs,
    as (seed, item, output) in pool order, built once per module; each
    published ladder is the same in every pool and is built once."""
    cache = {}

    def runs(name):
        if name in cache:
            return cache[name]
        built, out = {}, []
        with pytest.MonkeyPatch.context() as mp:
            workload = _bench_workloads(mp).make(name, Path(__file__).parents[1])
            for seed in range(1, 11):
                for i, item in enumerate(workload.pool(seed)):
                    key = getattr(item, "published", None) or (seed, i)
                    if key not in built:
                        built[key] = workload.run(item)
                    out.append((seed, item, built[key]))
        cache[name] = workload, out
        return cache[name]

    return runs


@pytest.mark.parametrize("name", ["ladders_xyz", "ladders_optimized"])
def test_every_seeded_benchmark_ladder_decides_far_from_its_boundaries(bench_runs, name):
    # the benchmark's ladder pools for seeds 1-10, drawn and built by the
    # benchmark's own code: 160 ladders per optimizer, of which the eight
    # published ones are the same in every pool and are checked once; the
    # smallest margin of the 320 is 3.5e-8, on seed 8's seeded ghz/B/g1
    workload, runs = bench_runs(name)
    for seed, item, table in runs:
        if item.published is not None and seed > 1:
            continue
        margin = min(decision_margins(table, item.state, workload.config))
        assert margin >= 1e-9, (seed, item.label, margin)


@pytest.mark.parametrize("optimizer", list(Optimizer), ids=lambda o: o.value)
def test_every_published_ladder_equals_its_exact_replay(optimizer):
    # exact_ladder shares no numpy arithmetic with build_table, so a change
    # to the ladder arithmetic is byte-safe on these ladders exactly when
    # both still agree; every decision lies at least 1.08e-6 from its root,
    # on w/A/w1, in sharpness units
    config = SearchConfig(optimizer=optimizer)
    margins = {}
    for state, scenario, kind in TABLE_CASES:
        rows, margin = exact_ladder(EXACT_STATES[state], scenario, kind, config)
        assert rows == build_table(scenario, kind, state, config).rows
        margins[table_key(state, scenario, kind)] = margin
    smallest = min(margins, key=margins.get)
    assert smallest == ("w", "A", "w1")
    assert margins[smallest] == pytest.approx(1.077e-6, rel=1e-3)


def test_every_pinned_ladder_equals_its_exact_replay():
    # ladder_bits.json's 40 ladders, the published ones under grid-refine
    # and 32 seeded ones, replayed from the float states build_state gives
    # and read against their pinned rows
    for name, (scenario, kind, state, optimizer) in ladder_bit_cases().items():
        config = SearchConfig(optimizer=optimizer)
        rows, _ = exact_ladder(build_state(state), scenario, kind, config)
        pinned = tuple((row["m"], row["lambda_min"]) for row in LADDER_BITS[name]["rows"])
        assert rows == pinned, name


def _rounding_margin(x):
    """Distance of the float x from the nearest point at which its
    6-decimal rounding flips, computed exactly."""
    scaled = Decimal(x) * 10**6
    return float(abs(scaled % 1 - Decimal("0.5")) / 10**6)


def test_the_pinned_threshold_cells_equal_their_exact_replay():
    # the CLI's pinned ghz/A/g1 threshold after one x/y/z observer at
    # 0.627: its JSON repr and its 6-decimal csv and text cells are the
    # exact replay's first row, read from the float state the CLI builds
    rows, margin = exact_ladder(
        build_state(GHZ), Scenario.A, InequalityKind.G1, SearchConfig(), prefix=(0.627,)
    )
    m, lam = rows[0]
    key = "threshold --state ghz --scenario A --lambdas 0.627 --format"
    assert json.loads(CLI_STDOUT[f"{key} json"]) == {"m": m, "lambda_min": lam, "status": "ok"}
    assert repr(lam) == "0.6771240237603762"
    assert CLI_STDOUT[f"{key} csv"] == f"m,lambda_min,status\n{m},{lam:.6f},ok\n"
    assert CLI_STDOUT[f"{key} text"] == f"observer {m}: lambda_min = {lam:.6f}\n"
    assert margin == pytest.approx(2.319e-5, rel=1e-3)
    assert _rounding_margin(lam) == pytest.approx(4.762e-7, rel=1e-3)


def test_the_pinned_cascade_cells_equal_their_exact_chain():
    # the CLI's pinned ghz/A/g1 cascade at 0.627, 0.736 and a projective
    # last observer is an x/y/z chain: every 6-decimal value cell, csv and
    # text, is its exact value rounded, and the JSON reprs lie within
    # rounding of it; the third cell, 1.24e-7 from flipping, is the closest
    lambdas = (0.627, 0.736, 1.0)
    exact = exact_chain(build_state(GHZ), Scenario.A, InequalityKind.G1, lambdas)
    cells = [f"{value:.6f}" for value in exact]
    assert cells == ["-0.099300", "-0.100444", "-0.183417"]
    key = "cascade --state ghz --scenario A --lambdas 0.627,0.736 --format"
    csv = CLI_STDOUT[f"{key} csv"].splitlines()[1:]
    assert csv == [f"{m},{lam:.6f},{c},true" for m, (lam, c) in enumerate(zip(lambdas, cells), 1)]
    text = CLI_STDOUT[f"{key} text"].splitlines()[1:]
    assert text == [
        f"observer {m}: lambda={lam:.6f}  value={c}  violation"
        for m, (lam, c) in enumerate(zip(lambdas, cells), 1)
    ]
    reprs = [o["value"] for o in json.loads(CLI_STDOUT[f"{key} json"])["observers"]]
    assert all(abs(Decimal(r) - e) < Decimal("1e-15") for r, e in zip(reprs, exact))
    margins = [_rounding_margin(abs(value)) for value in exact]
    assert min(margins) == margins[2] == pytest.approx(1.244e-7, rel=1e-3)


def test_the_pinned_optimize_cell_equals_its_exact_optimum():
    # the CLI's pinned w/A/w1 optimize at 0.83, grid-refine by default:
    # its value cell, csv and text, is the exact optimum rounded, 1.67e-7
    # from flipping, and its JSON repr lies within 1e-15 of it
    exact = exact_optimum(build_state(W), Scenario.A, InequalityKind.W1, 0.83)
    cell = f"{exact:.6f}"
    assert cell == "-0.445839"
    key = "optimize --state w --ineq w1 --lambdas 0.83 --format"
    csv = CLI_STDOUT[f"{key} csv"].splitlines()
    assert csv[0].endswith(",value") and len(csv) == 4
    assert all(row.endswith(f",{cell}") for row in csv[1:])
    assert CLI_STDOUT[f"{key} text"].splitlines()[-1] == f"value = {cell}"
    value = json.loads(CLI_STDOUT[f"{key} json"])["value"]
    assert abs(Decimal(value) - exact) < Decimal("1e-15")
    assert _rounding_margin(abs(exact)) == pytest.approx(1.667e-7, rel=1e-3)


def test_the_pinned_table_cells_equal_their_exact_replay():
    # the CLI's pinned w/B/w2 ladder: every JSON repr and every
    # 6-decimal csv and text cell is the exact replay's row
    rows, margin = exact_ladder(build_state(W), Scenario.B, InequalityKind.W2, SearchConfig())
    key = "table --state w --scenario B --ineq w2 --format"
    pinned = json.loads(CLI_STDOUT[f"{key} json"])["rows"]
    assert tuple((row["m"], row["lambda_min"]) for row in pinned) == rows
    cells = [f"{lam:.6f}" for _, lam in rows[:-1]]
    assert cells == ["0.634216", "0.747253", "0.962646"]
    csv = CLI_STDOUT[f"{key} csv"].splitlines()[1:]
    assert csv == [f"{m},{c},ok" for (m, _), c in zip(rows, cells)] + [f"{len(rows)},,none"]
    text = CLI_STDOUT[f"{key} text"].splitlines()[1:-1]
    assert text == [f"observer {m}: lambda_min = {c}" for (m, _), c in zip(rows, cells)]
    assert margin == pytest.approx(5.066e-6, rel=1e-3)
    # row 3's cell, 0.962646, is the closest to flipping
    margins = [_rounding_margin(lam) for _, lam in rows[:-1]]
    assert min(margins) == margins[2] == pytest.approx(1.559e-8, rel=1e-3)


# each pool's smallest exact decision margin, in sharpness units
SEEDED_MARGINS = {"ladders_xyz": 3.261e-8, "ladders_optimized": 5.019e-8}


@pytest.mark.parametrize("name", sorted(SEEDED_MARGINS))
def test_every_seeded_benchmark_ladder_equals_its_exact_replay(bench_runs, name):
    # the same certificate on the benchmark's seeds 1-10 ladder pools, 88
    # distinct ladders per optimizer, replayed from the float states
    # build_state gives
    workload, runs = bench_runs(name)
    margins = []
    for seed, item, table in runs:
        if item.published is not None and seed > 1:
            continue
        rho = build_state(item.state)
        rows, margin = exact_ladder(rho, table.scenario, table.inequality, workload.config)
        assert rows == table.rows, (seed, item.label)
        margins.append(margin)
    assert len(margins) == 88
    assert min(margins) == pytest.approx(SEEDED_MARGINS[name], rel=1e-3)


# SHA-256 of the str-concatenated fingerprints of every op in the seeds
# 1-10 pools; a change to a pool or a fingerprint re-records them
BENCH_DIGESTS = {
    "ladders_xyz": "4ff016c764c022e6c51a653bdbf5356c4d82ad4060f2cefdb7c5a19a9daed388",
    "ladders_optimized": "5151aa278ab5d7bcc162f6c2b1b0bc113743dee4b132c82e2233084695fc8187",
    "oracle_audit": "36fb2da22352cbe054e01343e868631ef0b4e2e5980153dfd3c440481377fd4d",
}


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_seeded_benchmark_outputs_are_byte_identical(bench_runs, name):
    workload, runs = bench_runs(name)
    text = "".join(str(workload.fingerprint(output)) for _, _, output in runs)
    assert hashlib.sha256(text.encode()).hexdigest() == BENCH_DIGESTS[name]


def test_csv_layout():
    table = ThresholdTable(
        state="ghz",
        scenario=Scenario.A,
        inequality=InequalityKind.G1,
        rows=((1, 0.5773925785476074), (2, None)),
    )
    assert table.to_csv() == "m,lambda_min,status\n1,0.577393,ok\n2,,none\n"


def test_row_cap_truncates_the_table(monkeypatch):
    # the ghz/A/g1 chain ends on row 4, so a cap of 2 cuts it first
    monkeypatch.setattr(SearchConfig, "max_rows", 2)
    table = build_table(Scenario.A, InequalityKind.G1, GHZ)
    assert [m for m, _ in table.rows] == [1, 2]
    assert table.truncated is True
    assert '"truncated": true' in table.to_json()


def test_direction_decomposition_matches_direct_value():
    rng = np.random.default_rng(40)
    *_, rho = states_along(build_state(W), 2, (SettingTriple.xyz(0.7),))
    base, vecs = direction_coefficients(rho, Scenario.B, InequalityKind.W2, 0.85)
    for _ in range(10):
        triple = random_triple(rng, 0.85)
        via = base + sum(
            float(d.unit_vector @ v) for d, v in zip(triple.directions, vecs)
        )
        direct = value_from_state(rho, Scenario.B, InequalityKind.W2, triple)
        assert via == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("optimizer", [Optimizer.GRID_REFINE])
def test_optimized_angles_reach_the_analytic_optimum(optimizer):
    # the value separates over the three settings, so the best possible
    # is base - sum of the coefficient-vector norms
    spec = xyz_spec(Scenario.A, InequalityKind.W1, W, (0.83,))
    base, vecs = direction_coefficients(
        build_state(W), Scenario.A, InequalityKind.W1, 0.83
    )
    bound = base - sum(np.linalg.norm(v) for v in vecs)
    cfg = SearchConfig(optimizer=optimizer)
    triple, value = optimize_angles(spec, 1, cfg)
    assert value == pytest.approx(bound, abs=1e-9)
    assert triple.lam == 0.83


def test_optimized_angles_never_lose_to_xyz():
    for state, scenario, kind in TABLE_CASES:
        spec = xyz_spec(scenario, kind, state, (1.0,))
        _, xyz_value = optimize_angles(spec, 1, SearchConfig())
        _, best = optimize_angles(
            spec, 1, SearchConfig(optimizer=Optimizer.GRID_REFINE)
        )
        assert best <= xyz_value + 1e-12


def test_xyz_settings_are_optimal_for_ghz():
    # for the GHZ one-to-two functional the published settings attain
    # the separable optimum exactly
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (1.0,))
    _, xyz_value = optimize_angles(spec, 1, SearchConfig())
    _, best = optimize_angles(spec, 1, SearchConfig(optimizer=Optimizer.GRID_REFINE))
    assert best == pytest.approx(xyz_value, abs=1e-12)


def test_optimize_angles_validates_observer_index():
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.7, 1.0))
    # a float index would otherwise fail to slice the prefix, and a
    # string or None to compare, each with a TypeError
    for m in (3, 0, 1.0, 2.0, "1", None, True, False):
        with pytest.raises(ValueError, match="^observer index"):
            optimize_angles(spec, m)
    assert optimize_angles(spec, np.int64(2)) == optimize_angles(spec, 2)


_SPEC = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.7, 1.0))
_ENTRY_POINTS = {
    "build_table": lambda config: build_table(Scenario.A, InequalityKind.G1, GHZ, config),
    "threshold_lambda": lambda config: threshold_lambda(_SPEC, config),
    "optimize_angles": lambda config: optimize_angles(_SPEC, 1, config),
}


@pytest.mark.parametrize("config", [0, "", 1e-3, "fixed-xyz"])
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_the_search_entry_points_reject_a_config_that_is_not_a_search_config(entry, config):
    # only None means the default: 0 and "" used to run it silently, and
    # 1e-3 and "fixed-xyz" failed later with an AttributeError
    with pytest.raises(ValueError, match="config must be of type SearchConfig"):
        _ENTRY_POINTS[entry](config)


def test_angle_grid_validation():
    # a string or None used to raise TypeError from the comparison
    for tol in (0.0, "0.1", None):
        with pytest.raises(ValueError, match=r"^tol must lie in \[2\*\*-53"):
            SearchConfig(tol=tol)
    # the guard band and row cap are constants, not knobs, there is no
    # iteration cap to set, and every table pins each observer just
    # above their own threshold
    for knob in (
        {"max_iter": 200},
        {"guard": 1e-6},
        {"max_rows": 5},
        {"require_all_violate": True},
    ):
        with pytest.raises(TypeError):
            SearchConfig(**knob)


@pytest.mark.parametrize("optimizer", ["fixed-xyz", "grid-refine", "nonsense", None])
def test_search_config_rejects_an_optimizer_that_is_not_an_optimizer(optimizer):
    # any value but Optimizer.FIXED_XYZ would otherwise run the
    # closed-form optimum, the string "fixed-xyz" included
    with pytest.raises(ValueError, match="Optimizer"):
        SearchConfig(optimizer=optimizer)


@pytest.mark.parametrize(
    "scenario,inequality,state",
    [("A", InequalityKind.G1, GHZ), (Scenario.A, "g1", GHZ), (Scenario.A, InequalityKind.G1, "ghz")],
)
def test_a_column_of_the_wrong_type_is_rejected(scenario, inequality, state):
    # each would otherwise fail deep inside the walk, with a KeyError or
    # an AttributeError
    with pytest.raises(ValueError, match="must be of type"):
        build_table(scenario, inequality, state)
    if state is GHZ:
        with pytest.raises(ValueError, match="must be of type"):
            direction_coefficients(build_state(GHZ), scenario, inequality, 1.0)


@pytest.mark.parametrize("lam", [5.0, math.nan, -1.0, 0.0, 1.0 + 1e-12, math.inf])
def test_direction_coefficients_rejects_a_sharpness_outside_the_unit_interval(lam):
    # the same message as SettingTriple and effect; 5.0 used to return
    # five times the projective vectors and NaN gave NaN vectors
    with pytest.raises(ValueError, match=r"sharpness must lie in \(0, 1\]"):
        direction_coefficients(build_state(GHZ), Scenario.A, InequalityKind.G1, lam)


@pytest.mark.parametrize("rho", [0.5 * np.eye(8), np.eye(4) / 4], ids=["trace-4", "4x4"])
def test_direction_coefficients_rejects_a_matrix_that_is_not_a_state(rho):
    # the trace-4 matrix used to return (1.0, three zero vectors), and
    # the 4x4 array failed inside numpy's matmul
    with pytest.raises(ValueError) as exc:
        direction_coefficients(rho, Scenario.A, InequalityKind.G1, 1.0)
    with pytest.raises(ValueError) as want:
        validate_density(rho)
    assert str(exc.value) == str(want.value)


@pytest.mark.parametrize("lam", [1.0, 1e-9])
def test_direction_coefficients_accepts_the_ends_of_the_unit_interval(lam):
    base, vecs = direction_coefficients(build_state(GHZ), Scenario.A, InequalityKind.G1, lam)
    _, projective = direction_coefficients(build_state(GHZ), Scenario.A, InequalityKind.G1, 1.0)
    assert np.isfinite(base)
    for v, p in zip(vecs, projective):
        assert np.allclose(v, lam * p, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scenario=st.sampled_from(list(Scenario)),
    kind=st.sampled_from(list(InequalityKind)),
    prefix=st.lists(st.floats(0.05, 1.0), max_size=2),
    lam=st.floats(0.05, 1.0),
)
def test_optimized_value_is_the_closed_form_optimum(seed, scenario, kind, prefix, lam):
    rng = np.random.default_rng(seed)
    state = StateSpec(StateKind.CUSTOM, custom=random_mixed_state(rng))
    observers = tuple(random_triple(rng, p) for p in prefix) + (SettingTriple.xyz(lam),)
    spec = ScenarioSpec(scenario, kind, state, observers)
    m = len(observers)
    *_, rho = states_along(build_state(state), spec.sequential_wing, observers[:-1])
    base, vecs = direction_coefficients(rho, scenario, kind, lam)
    _, best = optimize_angles(spec, m, SearchConfig(optimizer=Optimizer.GRID_REFINE))
    assert best == pytest.approx(base - sum(np.linalg.norm(v) for v in vecs), abs=1e-12)
    _, xyz = optimize_angles(spec, m, SearchConfig())
    assert best <= xyz + 1e-12


def _seeded_prefix(seed, state, scenario, kind, predecessors):
    """A noisy, rotated GHZ or W state under 0-2 random predecessors."""
    rng = np.random.default_rng(seed)
    observers = tuple(random_triple(rng, rng.uniform(0.05, 1.0)) for _ in range(predecessors))
    return ScenarioSpec(scenario, kind, noisy_rotated_state(rng, state), observers)


def _seeded_terms(seed, state, scenario, kind, predecessors):
    """term_expectations of the state the next observer of
    _seeded_prefix receives."""
    prefix = _seeded_prefix(seed, state, scenario, kind, predecessors)
    seq = prefix.sequential_wing
    *_, rho = states_along(build_state(prefix.state), seq, prefix.observers)
    return term_expectations(rho, kind, seq)


prefix_draws = dict(
    seed=st.integers(0, 2**32 - 1),
    state=st.sampled_from([GHZ, W]),
    scenario=st.sampled_from(list(Scenario)),
    kind=st.sampled_from(list(InequalityKind)),
    predecessors=st.integers(0, 2),
    optimizer=st.sampled_from(list(Optimizer)),
)


def _outcome(search, *args):
    try:
        return search(*args)
    except SearchError as exc:
        return "does not decrease" if "does not decrease" in str(exc) else "stalls"


@settings(max_examples=150, deadline=None)
@given(**prefix_draws, log_tol=st.floats(math.log(1e-12), math.log(0.5)))
def test_replayed_bracket_matches_the_evaluated_bisection(
    seed, state, scenario, kind, predecessors, optimizer, log_tol
):
    # the closed-form root decides every midpoint the way evaluating the
    # affine value there does, so both searches end on the same bits
    prefix = _seeded_prefix(seed, state, scenario, kind, predecessors)
    cfg = SearchConfig(tol=math.exp(log_tol), optimizer=optimizer)
    assert _outcome(threshold_lambda, prefix, cfg) == _outcome(
        reference_threshold_lambda, prefix, cfg
    )


@settings(max_examples=60, deadline=None)
@given(**prefix_draws, lams=st.lists(st.floats(LAMBDA_FLOOR, 1.0), min_size=1, max_size=5))
def test_next_observer_value_is_affine_in_sharpness(
    seed, state, scenario, kind, predecessors, optimizer, lams
):
    # the closed-form root rests on this: the line through the value at
    # the floor and at 1 gives the value at every sharpness
    terms = _seeded_terms(seed, state, scenario, kind, predecessors)

    def f(lam):
        return _settings_and_value(terms, kind, lam, optimizer)[1]

    f_floor, f_sharp = f(LAMBDA_FLOOR), f(1.0)
    for lam in lams:
        line = f_floor + (lam - LAMBDA_FLOOR) * (f_sharp - f_floor) / (1.0 - LAMBDA_FLOOR)
        assert f(lam) == pytest.approx(line, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(**prefix_draws)
def test_the_line_is_the_evaluated_value_at_both_ends(
    seed, state, scenario, kind, predecessors, optimizer
):
    # a threshold reads the line base + lam * slope in place of the value
    # the optimizer's settings attain; at 1 and at the floor, the two ends
    # the evaluated search read, both must agree within 1e-12
    terms = _seeded_terms(seed, state, scenario, kind, predecessors)
    base, slope = _line(terms, kind, optimizer)
    for lam in (1.0, LAMBDA_FLOOR):
        value = _settings_and_value(terms, kind, lam, optimizer)[1]
        assert base + lam * slope == pytest.approx(value, rel=0, abs=1e-12)


def _assert_optimize_angles_is_the_reference(spec, optimizer, terms):
    """optimize_angles for the last observer of spec gives the angles and
    the value of the reference in tests/util.py, bit for bit."""
    lam = spec.observers[-1].lam
    triple, value = optimize_angles(spec, len(spec.observers), SearchConfig(optimizer=optimizer))
    want_triple, want_value = _settings_and_value(terms, spec.inequality, lam, optimizer)
    assert [(repr(d.theta), repr(d.phi)) for d in triple.directions] == [
        (repr(d.theta), repr(d.phi)) for d in want_triple.directions
    ]
    assert triple.lam == want_triple.lam == lam
    assert repr(value) == repr(want_value)


@settings(max_examples=150, deadline=None)
@given(**prefix_draws, lam=st.floats(LAMBDA_FLOOR, 1.0))
def test_optimize_angles_is_the_evaluated_settings_and_value(
    seed, state, scenario, kind, predecessors, optimizer, lam
):
    # optimize_angles spells out the settings, and the value they attain,
    # that the reference evaluates, so both give the same bits
    prefix = _seeded_prefix(seed, state, scenario, kind, predecessors)
    spec = ScenarioSpec(scenario, kind, prefix.state, prefix.observers + (SettingTriple.xyz(lam),))
    terms = _seeded_terms(seed, state, scenario, kind, predecessors)
    _assert_optimize_angles_is_the_reference(spec, optimizer, terms)


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_optimize_angles_is_the_evaluated_settings_and_value_on_the_published_states(optimizer):
    # a seeded state is rotated off every axis; on the published states
    # some optima lie on an axis, where the exact axis must win the tie
    for state, scenario, kind in TABLE_CASES:
        terms = term_expectations(build_state(state), kind, scenario.sequential_wing)
        for lam in (0.83, 1.0):
            spec = xyz_spec(scenario, kind, state, (lam,))
            _assert_optimize_angles_is_the_reference(spec, optimizer, terms)


def test_axis_ties_keep_exact_angles(capsys):
    # the W one-to-two optimum sits on the x, y and z axes; these bytes
    # were recorded from the grid search the closed form replaced
    from seqsteer.cli import main

    assert main(["optimize", "--state", "w", "--ineq", "w1", "--lambdas", "0.83",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "observer": 1,\n  "value": -0.44583866666666705,\n  "settings": [\n'
        '    {\n      "theta": 1.5707963267948966,\n      "phi": 0.0\n    },\n'
        '    {\n      "theta": 1.5707963267948966,\n      "phi": 1.5707963267948966\n    },\n'
        '    {\n      "theta": 0.0,\n      "phi": 0.0\n    }\n  ]\n}\n'
    )


def test_zero_vector_keeps_z():
    # a setting that no term uses has no preferred direction; it stays on
    # Z instead of dividing by a zero norm
    assert _direction_from_vector(np.zeros(3)) == Z_DIR
    assert _best_direction(np.zeros(3)) == (Z_DIR, 0.0)


def _scaled(vec, norm):
    """vec rescaled to the given norm; the zero vector stays zero."""
    length = np.linalg.norm(vec)
    return vec if length == 0.0 else vec * (norm / length)


_signed_tiny = st.sampled_from([0.0, -0.0, 1e-16, -1e-16])
_near_threshold = st.builds(
    _scaled,
    st.builds(np.array, st.tuples(*[st.floats(-1.0, 1.0)] * 3)),
    st.sampled_from([1e-16, 1e-15, 2e-15]),
)
_noisy_axis = st.builds(
    lambda axis, size, noise: np.array([size if k == axis else noise[k] for k in range(3)]),
    st.integers(0, 2),
    st.sampled_from([1.0, -1.0, 0.37, -0.37, 1e-15, -2e-15]),
    st.tuples(_signed_tiny, _signed_tiny, _signed_tiny),
)


@settings(max_examples=300, deadline=None)
@given(
    vec=st.one_of(
        st.builds(np.array, st.tuples(_signed_tiny, _signed_tiny, _signed_tiny)),
        _near_threshold,
        _noisy_axis,
        st.builds(np.array, st.tuples(*[st.floats(-2.0, 2.0)] * 3)),
    )
)
@example(vec=np.zeros(3))
@example(vec=np.array([-0.0, -0.0, -0.0]))
@example(vec=np.array([0.0, 0.0, 1e-15]))
@example(vec=np.array([0.0, -1e-15, 0.0]))
@example(vec=np.array([2e-15, 0.0, -0.0]))
@example(vec=np.array([0.37, 1e-16, -1e-16]))
def test_the_folded_best_direction_is_the_reference_bit_for_bit(vec):
    # the analytic candidate is formed only at a norm of at least 1e-15;
    # below it the old helper's Z never beat the first axis, Z itself
    direction, value = _best_direction(vec)
    want_direction, want_value = reference_best_direction(vec)
    assert repr((direction.theta, direction.phi)) == repr(
        (want_direction.theta, want_direction.phi)
    )
    assert value.hex() == want_value.hex()


@pytest.mark.parametrize("sign,phi", [(1.0, math.pi), (-1.0, 0.0)])
def test_best_direction_prefers_the_exact_axis(sign, phi):
    # the optimum points against vec; the analytic candidate carries the
    # rounding noise, so only the tie rule returns the clean axis
    vec = np.array([sign * 0.37, 1e-16, -1e-16])
    assert _direction_from_vector(-vec) != BlochDirection(math.pi / 2, phi)
    direction, value = _best_direction(vec)
    assert (direction.theta, direction.phi) == (math.pi / 2, phi)
    assert value == pytest.approx(-0.37, abs=1e-15)


def test_search_does_not_import_scipy():
    code = """
import sys
from seqsteer import GHZ, InequalityKind, Optimizer, Scenario, SearchConfig
from seqsteer import build_table, optimize_angles, xyz_spec
cfg = SearchConfig(optimizer=Optimizer.GRID_REFINE)
optimize_angles(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (1.0,)), 1, cfg)
build_table(Scenario.A, InequalityKind.G1, GHZ, cfg)
assert "scipy" not in sys.modules, "seqsteer imported scipy"
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
