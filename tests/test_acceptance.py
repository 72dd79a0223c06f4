"""End-to-end acceptance checks.

Every check here states a published target value with its tolerance and
compares the package's output against it, one pass/fail line per item.
Frozen reference interpretations live in util.py.
"""

import numpy as np
import pytest

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Scenario,
    ScenarioSpec,
    SearchConfig,
    SettingTriple,
    StateKind,
    StateSpec,
    averaged_channel,
    bloch_shrink_factor,
    correlation,
    effect,
    effect_sqrt,
    no_signalling_audit,
    run_cascade,
    run_cascade_oracle,
    xyz_spec,
)
from seqsteer.cascade import ORACLE_MAX_OBSERVERS
from util import (
    TABLE_CASES,
    bloch_vector,
    partial_trace,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
    table_key,
)

# ---------------------------------------------------------------- #
# single-shot violations: one projective observer on the published  #
# settings                                                           #
# ---------------------------------------------------------------- #


@pytest.mark.parametrize(
    "state,kind,target,tol",
    [
        (GHZ, InequalityKind.G1, -0.845, 0.002),
        (GHZ, InequalityKind.G2, -0.582, 0.003),
        (W, InequalityKind.W1, -0.759, 0.005),
        (W, InequalityKind.W2, -0.480, 0.005),
    ],
    ids=["ghz-g1", "ghz-g2", "w-w1", "w-w2"],
)
def test_single_shot_violation(state, kind, target, tol):
    result = run_cascade(xyz_spec(Scenario.A, kind, state, (1.0,)))
    assert result.values[0] == pytest.approx(target, abs=tol)
    assert result.detected[0]


# ---------------------------------------------------------------- #
# worked cascades quoted with two or three observers                #
# ---------------------------------------------------------------- #


@pytest.mark.parametrize(
    "scenario,lambdas,targets",
    [
        (Scenario.A, (0.627, 1.0), (-0.10, -0.55)),
        (Scenario.A, (0.627, 0.736, 1.0), (None, None, -0.18)),
        (Scenario.B, (0.507, 1.0), (-0.10, -0.71)),
        (Scenario.B, (0.507, 0.558, 1.0), (None, None, -0.55)),
    ],
    ids=["A-two", "A-three", "B-two", "B-three"],
)
def test_worked_cascade(scenario, lambdas, targets):
    result = run_cascade(xyz_spec(scenario, InequalityKind.G1, GHZ, lambdas))
    for got, want in zip(result.values, targets):
        if want is not None:
            assert got == pytest.approx(want, abs=0.005)


# ---------------------------------------------------------------- #
# threshold ladders: published numeric entries within 0.005 and the #
# terminal "none" rows exact                                         #
# ---------------------------------------------------------------- #

LADDER_TARGETS = [
    (GHZ, Scenario.A, InequalityKind.G1, (0.577, 0.658, 0.787, None)),
    (GHZ, Scenario.A, InequalityKind.G2, (0.584, 0.668, 0.805, None)),
    (W, Scenario.A, InequalityKind.W1, (0.588, 0.674, None)),
    (W, Scenario.A, InequalityKind.W2, (0.678, 0.823, None)),
    (GHZ, Scenario.B, InequalityKind.G1, (0.441, 0.473, 0.514, 0.568, 0.644, 0.763, None)),
    (GHZ, Scenario.B, InequalityKind.G2, (0.584, 0.668, 0.805, None)),
    (W, Scenario.B, InequalityKind.W1, (0.522, 0.578, 0.659, 0.882, None)),
    (W, Scenario.B, InequalityKind.W2, (0.634, 0.747, 0.962, None)),
]


@pytest.mark.parametrize(
    "state,scenario,kind,targets",
    LADDER_TARGETS,
    ids=[f"{s.kind.value}-{sc.value}-{k.value}" for s, sc, k, _ in LADDER_TARGETS],
)
def test_threshold_ladder(state, scenario, kind, targets, tables):
    table = tables[table_key(state, scenario, kind)]
    got = tuple(lam for _, lam in table.rows)
    assert len(got) == len(targets)
    for g, want in zip(got, targets):
        if want is None:
            assert g is None
        else:
            assert g == pytest.approx(want, abs=0.005)


# ---------------------------------------------------------------- #
# how many observers can violate in sequence                        #
# ---------------------------------------------------------------- #

COUNT_TARGETS = [
    (GHZ, Scenario.A, InequalityKind.G1, 3),
    (GHZ, Scenario.A, InequalityKind.G2, 3),
    (GHZ, Scenario.B, InequalityKind.G1, 6),
    (GHZ, Scenario.B, InequalityKind.G2, 3),
    (W, Scenario.A, InequalityKind.W1, 2),
    (W, Scenario.A, InequalityKind.W2, 2),
    (W, Scenario.B, InequalityKind.W1, 4),
    (W, Scenario.B, InequalityKind.W2, 3),
]


@pytest.mark.parametrize(
    "state,scenario,kind,expected",
    COUNT_TARGETS,
    ids=[f"{s.kind.value}-{sc.value}-{k.value}" for s, sc, k, _ in COUNT_TARGETS],
)
def test_observer_count(state, scenario, kind, expected, tables):
    assert tables[table_key(state, scenario, kind)].max_observers == expected


# ---------------------------------------------------------------- #
# channel path vs explicit enumeration on randomized chains         #
# ---------------------------------------------------------------- #

COMBOS = [
    (scenario, kind, 300 + index)
    for index, (scenario, kind) in enumerate(
        (sc, k) for sc in (Scenario.A, Scenario.B) for k in InequalityKind
    )
]


@pytest.mark.parametrize(
    "scenario,kind,seed",
    COMBOS,
    ids=[f"{sc.value}-{k.value}" for sc, k, _ in COMBOS],
)
def test_oracle_equivalence(scenario, kind, seed):
    rng = np.random.default_rng(seed)
    for case in range(20):
        n = case % 3 + 1
        lams = tuple(float(rng.uniform(0.2, 0.95)) for _ in range(n - 1)) + (1.0,)
        observers = tuple(random_triple(rng, lam) for lam in lams)
        which = case % 3
        if which == 0:
            state = GHZ
        elif which == 1:
            state = W
        else:
            state = StateSpec(StateKind.CUSTOM, custom=random_pure_state(rng))
        spec = ScenarioSpec(
            scenario=scenario, inequality=kind, state=state, observers=observers
        )
        fast = run_cascade(spec)
        slow = run_cascade_oracle(spec)
        worst = max(abs(a - b) for a, b in zip(fast.values, slow.values))
        assert worst <= 1e-10


@pytest.mark.parametrize(
    "kind", list(InequalityKind), ids=[k.value for k in InequalityKind]
)
def test_oracle_equivalence_at_max_observers(kind):
    # one random chain of ORACLE_MAX_OBSERVERS observers per kind; the
    # scenario alternates and the state cycles GHZ, W, random pure
    case = list(InequalityKind).index(kind)
    rng = np.random.default_rng(200 + case)
    n = ORACLE_MAX_OBSERVERS
    lams = tuple(float(rng.uniform(0.2, 0.95)) for _ in range(n - 1)) + (1.0,)
    if case % 3 == 0:
        state = GHZ
    elif case % 3 == 1:
        state = W
    else:
        state = StateSpec(StateKind.CUSTOM, custom=random_pure_state(rng))
    spec = ScenarioSpec(
        scenario=(Scenario.A, Scenario.B)[case % 2],
        inequality=kind,
        state=state,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    fast = run_cascade(spec)
    slow = run_cascade_oracle(spec)
    assert len(slow.values) == n
    assert max(abs(a - b) for a, b in zip(fast.values, slow.values)) <= 1e-10


# ---------------------------------------------------------------- #
# published ladders rechecked by explicit enumeration, each row      #
# whose chain fits in ORACLE_MAX_OBSERVERS                           #
# ---------------------------------------------------------------- #


def oracle_ladder_rows(state, table):
    """(m, lambda_min, fast, oracle) for each row of state's published
    x/y/z ladder whose chain fits the oracle: the predecessors pinned at
    min(1, lambda + tol) as build_table pins them, then the candidate
    at its reported minimum (projective on a "none" row), then, after a
    numeric row, a projective last observer."""
    tol = SearchConfig().tol
    pins, rows = (), []
    for m, lam in table.rows:
        candidate = (SettingTriple.xyz(1.0),) if lam is None else (
            SettingTriple.xyz(lam), SettingTriple.xyz(1.0)
        )
        if len(pins + candidate) > ORACLE_MAX_OBSERVERS:
            break
        spec = ScenarioSpec(table.scenario, table.inequality, state, pins + candidate)
        rows.append((m, lam, run_cascade(spec), run_cascade_oracle(spec)))
        if lam is not None:
            pins += (SettingTriple.xyz(min(1.0, lam + tol)),)
    return rows


@pytest.mark.parametrize(
    "state,scenario,kind",
    TABLE_CASES,
    ids=[f"{s.kind.value}-{sc.value}-{k.value}" for s, sc, k in TABLE_CASES],
)
def test_oracle_confirms_the_published_ladder(state, scenario, kind, tables):
    # every predecessor violates, and the candidate violates exactly on
    # an "ok" row; the oracle agrees with the channel path throughout
    rows = oracle_ladder_rows(state, tables[table_key(state, scenario, kind)])
    assert rows
    for m, lam, fast, oracle in rows:
        assert max(abs(a - b) for a, b in zip(fast.values, oracle.values)) <= 1e-12
        assert oracle.detected[:m] == (True,) * (m - 1) + (lam is not None,)


def test_oracle_also_finds_three_observers_for_w_A_w1(tables):
    # the paper counts 2 for W/A/w1 (test_observer_count above stays red);
    # the oracle, without the averaged channel, confirms 3 violating rows
    # and then the "none" row, so the gap does not come from the channel
    rows = oracle_ladder_rows(W, tables[("w", "A", "w1")])
    assert [(m, lam is None) for m, lam, _, _ in rows] == [
        (1, False), (2, False), (3, False), (4, True)
    ]
    assert [oracle.values[m - 1] < 0.0 for m, _, _, oracle in rows] == [True] * 3 + [False]


# ---------------------------------------------------------------- #
# invariant sweeps, 50+ randomized instances each                   #
# ---------------------------------------------------------------- #


def test_properties_povm_completeness():
    rng = np.random.default_rng(101)
    for _ in range(50):
        d = random_direction(rng)
        lam = float(rng.uniform(0.01, 1.0))
        assert np.allclose(effect(d, lam, 1) + effect(d, lam, -1), np.eye(2), atol=1e-12)


def test_properties_effect_sqrt():
    rng = np.random.default_rng(102)
    for _ in range(50):
        d = random_direction(rng)
        lam = float(rng.uniform(0.01, 1.0))
        outcome = 1 if rng.integers(2) else -1
        root = effect_sqrt(d, lam, outcome)
        target = effect(d, lam, outcome)
        assert np.allclose(root @ root, target, atol=1e-12)


def test_properties_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(103)
    for _ in range(50):
        rho = random_mixed_state(rng)
        out = averaged_channel(
            rho, int(rng.integers(0, 3)), random_triple(rng, float(rng.uniform(0.01, 1.0)))
        )
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_properties_moment_scales_with_sharpness():
    rng = np.random.default_rng(104)
    for _ in range(50):
        rho = random_pure_state(rng)
        wing = int(rng.integers(0, 3))
        d = random_direction(rng)
        dirs = (random_direction(rng), random_direction(rng))
        lam = float(rng.uniform(0.01, 1.0))
        sharp = correlation((rho,), wing, d, 1.0, dirs, (0, 1, 2))
        unsharp = correlation((rho,), wing, d, lam, dirs, (0, 1, 2))
        assert abs(unsharp - lam * sharp) < 1e-12


def test_properties_no_signalling():
    rng = np.random.default_rng(105)
    kinds = list(InequalityKind)
    for case in range(50):
        kind = kinds[case % 4]
        scenario = Scenario.A if case % 2 else Scenario.B
        n = case % 2 + 1
        lams = tuple(float(rng.uniform(0.2, 0.95)) for _ in range(n - 1)) + (1.0,)
        spec = ScenarioSpec(
            scenario=scenario,
            inequality=kind,
            state=StateSpec(StateKind.CUSTOM, custom=random_pure_state(rng)),
            observers=tuple(random_triple(rng, lam) for lam in lams),
        )
        assert no_signalling_audit(spec) <= 1e-10


def test_properties_bloch_shrink_factor():
    rng = np.random.default_rng(106)
    for _ in range(50):
        rho = random_mixed_state(rng)
        lam = float(rng.uniform(0.01, 1.0))
        wing = int(rng.integers(0, 3))
        out = averaged_channel(rho, wing, SettingTriple.xyz(lam))
        before = bloch_vector(partial_trace(rho, wing))
        after = bloch_vector(partial_trace(out, wing))
        expected = (1 + 2 * np.sqrt(1 - lam * lam)) / 3
        assert np.allclose(after, expected * before, atol=1e-12)
        assert bloch_shrink_factor(lam) == pytest.approx(expected, abs=1e-15)


# ---------------------------------------------------------------- #
# closed-form ladder check: each reported minimum, rescaled by the   #
# accumulated shrink of its predecessors, recovers the one-observer  #
# root                                                               #
# ---------------------------------------------------------------- #


@pytest.mark.parametrize(
    "key,root,rows",
    [(("ghz", "A", "g1"), 0.57735, 3), (("ghz", "B", "g1"), 0.4409, 6)],
    ids=["ghz-A", "ghz-B"],
)
def test_analytic_ladder_consistency(key, root, rows, tables):
    table = tables[key]
    lams = [lam for _, lam in table.rows if lam is not None]
    assert len(lams) == rows
    shrink = 1.0
    for lam in lams:
        assert lam * shrink == pytest.approx(root, abs=1e-3)
        shrink *= bloch_shrink_factor(lam)
