import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
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
from seqsteer.cascade import states_along, term_expectations, value_from_state
from seqsteer.qop import Z_DIR
from seqsteer.search import (
    LAMBDA_FLOOR,
    MIN_TOL,
    _best_direction,
    _direction_from_vector,
    _settings_and_value,
)
from util import (
    FROZEN_LADDERS,
    TABLE_CASES,
    ladder_bit_cases,
    noisy_rotated_state,
    random_mixed_state,
    random_triple,
    reference_threshold_lambda,
    table_key,
)

GOLDEN = Path(__file__).parent / "golden"
LADDER_BITS = json.loads(
    (Path(__file__).parent / "reference" / "ladder_bits.json").read_text()
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
    # a model whose value grows with sharpness must be rejected, not
    # silently bisected to a wrong root
    import seqsteer.search as search_mod

    monkeypatch.setattr(
        search_mod, "value_from_terms", lambda terms, kind, triple: triple.lam - 2.0
    )
    with pytest.raises(SearchError, match="does not decrease"):
        threshold_lambda(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ()))


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
    for root in (1.0 - 2e-9, 0.5, 0.5 + 2.0**-52, 3 * LAMBDA_FLOOR):
        monkeypatch.setattr(
            search_mod, "value_from_terms", lambda terms, kind, triple, r=root: r - triple.lam
        )
        lam = threshold_lambda(prefix, cfg)
        # the guard band moves the root up by SearchConfig.guard
        assert lam == pytest.approx(root + SearchConfig.guard, rel=0, abs=1e-15)


@pytest.mark.parametrize("optimizer", list(Optimizer))
def test_each_threshold_traces_its_state_once(monkeypatch, optimizer):
    # a threshold traces its state once and evaluates the value at
    # sharpness 1 and, when that violates, near 0: the root follows in
    # closed form, so no bracket midpoint is ever evaluated
    import seqsteer.search as search_mod

    walks, evals = [], []
    for name, log in (("term_expectations", walks), ("_settings_and_value", evals)):
        def counted(*args, _call=getattr(search_mod, name), _log=log):
            _log.append(args)
            return _call(*args)

        monkeypatch.setattr(search_mod, name, counted)
    cfg = SearchConfig(optimizer=optimizer)
    # the last prefix leaves no violation, so its threshold is None
    for lambdas, expected in (((), 2), ((0.627,), 2), ((0.577493, 0.657998, 0.787698), 1)):
        walks.clear()
        evals.clear()
        threshold_lambda(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, lambdas), cfg)
        assert (len(walks), len(evals)) == (1, expected)
    walks.clear()
    evals.clear()
    table = build_table(Scenario.A, InequalityKind.G1, GHZ, cfg)
    assert len(table.rows) == len(walks) == 4
    # three violating rows and the closing "none" row
    assert len(evals) == 2 * 3 + 1


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
    with pytest.raises(ValueError, match="observer index"):
        optimize_angles(spec, 3)


def test_angle_grid_validation():
    with pytest.raises(ValueError):
        SearchConfig(tol=0.0)
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
    prefix = _seeded_prefix(seed, state, scenario, kind, predecessors)
    seq = prefix.sequential_wing
    *_, rho = states_along(build_state(prefix.state), seq, prefix.observers)
    terms = term_expectations(rho, kind, seq)

    def f(lam):
        return _settings_and_value(terms, kind, lam, optimizer)[1]

    f_floor, f_sharp = f(LAMBDA_FLOOR), f(1.0)
    for lam in lams:
        line = f_floor + (lam - LAMBDA_FLOOR) * (f_sharp - f_floor) / (1.0 - LAMBDA_FLOOR)
        assert f(lam) == pytest.approx(line, abs=1e-12)


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
