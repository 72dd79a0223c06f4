"""End-to-end acceptance checks.

Every check here states a published target value with its tolerance and
compares the package's output against it, one pass/fail line per item.
Frozen reference interpretations live in util.py.
"""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

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
    bloch_shrink_factor,
    build_table,
    no_signalling_audit,
    run_cascade,
    run_cascade_oracle,
    xyz_spec,
)
from seqsteer import cascade
from seqsteer.cascade import ORACLE_MAX_OBSERVERS
from seqsteer.inequalities import required_terms
from seqsteer.measurement import averaged_channel, effect
from seqsteer.qop import effect_sqrt, projector_stack
from util import (
    EXACT_CONTEXT,
    EXACT_STATES,
    TABLE_CASES,
    bloch_vector,
    decimal_of,
    exact_line,
    exact_rows,
    exact_shrink,
    partial_trace,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
    stacked_correlation,
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


# each W ladder matches its targets at every grid tol up to this bound
# and at none above it; None where it matches at no tol
W_MATCH_UP_TO = {
    (Scenario.A, InequalityKind.W1): None,
    (Scenario.A, InequalityKind.W2): 3.8e-3,
    (Scenario.B, InequalityKind.W1): None,
    (Scenario.B, InequalityKind.W2): 1.4e-3,
}


def test_no_tolerance_brings_the_w_one_to_two_ladders_to_their_targets():
    # evidence on the three red checks above: the W one-to-two ladders
    # match their published targets at no bisection tolerance, so no
    # choice of tol explains them, while the W two-to-one ladders match
    # at every small tol and stop matching only once the pin margin,
    # lambda_min + tol, moves later rows by more than 0.005
    grid = np.geomspace(1e-6, 0.25, 16)
    for state, scenario, kind, targets in LADDER_TARGETS:
        if state is not W:
            continue
        matched = []
        for tol in grid:
            rows = build_table(scenario, kind, state, SearchConfig(tol=float(tol))).rows
            got = tuple(lam for _, lam in rows)
            matched.append(len(got) == len(targets) and all(
                g is None if want is None else g is not None and abs(g - want) <= 0.005
                for g, want in zip(got, targets)
            ))
        bound = W_MATCH_UP_TO[scenario, kind]
        assert matched == [bound is not None and tol <= bound for tol in grid], (
            scenario, kind, matched
        )


# the row of each W one-to-two ladder that misses its published target,
# and the span that row keeps under each hypothesis below, in exact
# arithmetic on the exact W state: coefficients rounded, then pins at
# the printed rows
W_MISSED_ROWS = {
    Scenario.A: (3, (0.8165, 0.8177), (0.8159, 0.8172)),
    Scenario.B: (4, (0.7893, 0.7908), (0.7890, 0.7906)),
}


def _w1_targets(scenario):
    return next(
        targets for state, sc, kind, targets in LADDER_TARGETS
        if state is W and sc is scenario and kind is InequalityKind.W1
    )


def _missed_row_span(scenario, ladders):
    """The span of the missed row over ladders, each a ladder's rows,
    after checking that each gives it a threshold that does not match
    its published target, none or a value within 0.005."""
    m = W_MISSED_ROWS[scenario][0]
    target = _w1_targets(scenario)[m - 1]
    lams = [dict(rows)[m] for rows in ladders]
    assert None not in lams, (scenario, lams)
    assert target is None or all(abs(lam - target) > 0.005 for lam in lams), (scenario, lams)
    return min(lams), max(lams)


def test_no_rounding_of_the_w1_coefficients_brings_the_missed_rows_to_their_targets():
    # evidence on the three red checks: the paper prints the six w1
    # coefficients to 4 decimals. base and the x, y, z slope are linear in
    # them, so the first root, -(guard + base) / slope, a ratio of two
    # linear functions, takes its extremes over the box of coefficients
    # within 5e-5 of the printed ones at the box's corners; and each
    # later row's root is the first over the shrink factors of the pins
    # before it, each pin rising with its row, so every row rises with
    # the first root. The 64 corners' exact ladders thus bound each row:
    # w/A/w1 row 3 keeps a threshold where the paper prints none, and
    # w/B/w1 row 4 stays below 0.877
    magnitudes = sorted({abs(t.coeff) for t in required_terms(InequalityKind.W1)})
    assert len(magnitudes) == 6
    for scenario, (m, span, _) in W_MISSED_ROWS.items():
        ladders = []
        for signs in itertools.product((-1, 1), repeat=6):
            moved = {c: Fraction(str(c)) + s * Fraction(5, 10**5) for c, s in zip(magnitudes, signs)}

            def coeff(term):
                return moved[abs(term.coeff)] * (1 if term.coeff > 0 else -1)

            base, slope = exact_line(EXACT_STATES[W], scenario, InequalityKind.W1, coeff=coeff)
            ladders.append(exact_rows(base, slope, SearchConfig())[0])
        assert {len(rows) for rows in ladders} == {m + 1}
        lo, hi = _missed_row_span(scenario, ladders)
        assert span[0] <= lo <= hi <= span[1], (scenario, lo, hi)


# the pin that the missed row's last predecessor would need, the others
# at the top of their printed rounding, for the missed row to reach its
# target: a root of 1 (none) on w/A/w1, 0.877 (0.882 less the
# tolerance) on w/B/w1
W_NEEDED_PINS = {Scenario.A: (Decimal(1), 0.8591), Scenario.B: (Decimal("0.877"), 0.7781)}


def test_pinning_at_the_printed_rows_leaves_the_missed_rows_off_their_targets():
    # evidence on the three red checks: pin each observer before the
    # missed row anywhere from 5e-4 below the paper's printed row for
    # them to 5e-4 plus the tolerance above it, instead of at the computed
    # rows. Each pin shrinks the slope by a factor that falls as the pin
    # rises, so the missed row rises with every pin, and the lowest and
    # highest pins bound it; neither reaches its target. Only moving the
    # last pin by more than 0.1 would
    config = SearchConfig()
    top = Decimal("5e-4") + Decimal(config.tol)
    for scenario, (m, _, span) in W_MISSED_ROWS.items():
        printed = [Decimal(str(lam)) for lam in _w1_targets(scenario)[: m - 1]]
        base, slope = exact_line(EXACT_STATES[W], scenario, InequalityKind.W1)
        ladders = []
        for shift in (Decimal("-5e-4"), top):
            with localcontext(EXACT_CONTEXT):
                pinned = slope
                for p in printed:
                    pinned *= exact_shrink(p + shift)
            ladders.append(exact_rows(base, pinned, config, first=m)[0])
        lo, hi = _missed_row_span(scenario, ladders)
        assert span[0] <= lo <= hi <= span[1], (scenario, lo, hi)
        # the missed row's root is target / (slope * factors); solve for
        # the last pin's factor at the goal, then invert factor = (1 + 2
        # sqrt(1 - p^2)) / 3 for the pin p
        goal, needed = W_NEEDED_PINS[scenario]
        with localcontext(EXACT_CONTEXT):
            pinned = slope
            for p in printed[:-1]:
                pinned *= exact_shrink(p + top)
            factor = decimal_of(-Fraction(config.guard) - base) / (pinned * goal)
            pin = (1 - ((3 * factor - 1) / 2) ** 2).sqrt()
        assert float(pin) == pytest.approx(needed, abs=1e-4), scenario
        assert pin - printed[-1] > Decimal("0.1")


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
# the abstract's two claims on the computed ladders: one-to-two     #
# steering outlasts two-to-one, and GHZ outlasts W                  #
# ---------------------------------------------------------------- #

# (state, its one-to-two functional, its two-to-one functional)
FAMILIES = [
    (GHZ, InequalityKind.G1, InequalityKind.G2),
    (W, InequalityKind.W1, InequalityKind.W2),
]


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize("state,one_to_two,two_to_one", FAMILIES, ids=["ghz", "w"])
def test_one_to_two_steering_needs_less_sharpness_and_lasts_longer(
    state, one_to_two, two_to_one, scenario, tables
):
    easy = tables[table_key(state, scenario, one_to_two)]
    hard = tables[table_key(state, scenario, two_to_one)]
    # a two-to-one row that is "none" or past the end of its ladder would
    # need more than a projective measurement
    hard_rows = dict(hard.rows)
    rows = [(lam, hard_rows.get(m)) for m, lam in easy.rows if lam is not None]
    compared = [(lam, other) for lam, other in rows if other is not None]
    assert compared
    assert all(lam < other for lam, other in compared), rows
    assert easy.max_observers >= hard.max_observers


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize(
    "ghz_kind,w_kind",
    [(InequalityKind.G1, InequalityKind.W1), (InequalityKind.G2, InequalityKind.W2)],
    ids=["1to2", "2to1"],
)
def test_ghz_supports_at_least_as_many_observers_as_w(scenario, ghz_kind, w_kind, tables):
    ghz = tables[table_key(GHZ, scenario, ghz_kind)].max_observers
    w = tables[table_key(W, scenario, w_kind)].max_observers
    assert ghz >= w


def test_ghz_supports_the_longest_chain(tables):
    longest = {"ghz": 0, "w": 0}
    for (state, _, _), table in tables.items():
        longest[state] = max(longest[state], table.max_observers)
    assert longest == {"ghz": 6, "w": 4}


def test_the_longest_ladder_gains_a_seventh_observer_at_a_finer_pin_margin(tables):
    # ladders pin each observer at min(1, lambda_min + tol); the headline
    # count of 6 holds at the default tol of 1e-4, and a pin margin ten
    # times finer leaves a projective seventh observer a violation
    assert tables[("ghz", "B", "g1")].max_observers == 6
    finer = build_table(Scenario.B, InequalityKind.G1, GHZ, SearchConfig(tol=1e-5))
    assert finer.max_observers == 7


# the channel value of a projective observer on each published
# ladder's stop row, its predecessors pinned as build_table pins them
STOP_ROW_MARGINS = {
    ("ghz", "A", "g1"): 6.379e-2,
    ("ghz", "A", "g2"): 7.978e-2,
    ("ghz", "B", "g1"): 2.547e-4,
    ("ghz", "B", "g2"): 7.978e-2,
    ("w", "A", "w1"): 1.323e-1,
    ("w", "A", "w2"): 1.360e-1,
    ("w", "B", "w1"): 5.039e-2,
    ("w", "B", "w2"): 3.885e-1,
}


@pytest.mark.parametrize(
    "state,scenario,kind",
    TABLE_CASES,
    ids=[f"{s.kind.value}-{sc.value}-{k.value}" for s, sc, k in TABLE_CASES],
)
def test_the_stop_row_margin_of_each_published_ladder(state, scenario, kind, tables):
    # only the headline ladder stops within a few pin margins of zero;
    # every other stop row reads at least +5.0e-2
    tol = SearchConfig().tol
    *rows, (_, stop) = tables[table_key(state, scenario, kind)].rows
    assert stop is None
    pins = tuple(SettingTriple.xyz(min(1.0, lam + tol)) for _, lam in rows)
    spec = ScenarioSpec(scenario, kind, state, pins + (SettingTriple.xyz(1.0),))
    margin = run_cascade(spec).values[-1]
    assert margin == pytest.approx(STOP_ROW_MARGINS[table_key(state, scenario, kind)], rel=5e-4)


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
# whose chain has at most 6 observers                                #
# ---------------------------------------------------------------- #


def oracle_ladder_rows(state, table, max_observers=ORACLE_MAX_OBSERVERS):
    """(m, lambda_min, fast, oracle) for each row of state's published
    x/y/z ladder whose chain has at most max_observers observers, the
    oracle's own cap unless the caller lifts it: the predecessors pinned at
    min(1, lambda + tol) as build_table pins them, then the candidate
    at its reported minimum (projective on a "none" row), then, after a
    numeric row, a projective last observer."""
    tol = SearchConfig().tol
    pins, rows = (), []
    for m, lam in table.rows:
        candidate = (SettingTriple.xyz(1.0),) if lam is None else (
            SettingTriple.xyz(lam), SettingTriple.xyz(1.0)
        )
        if len(pins + candidate) > max_observers:
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
def test_oracle_confirms_the_published_ladder(state, scenario, kind, tables, monkeypatch):
    # every predecessor violates, and the candidate violates exactly on
    # an "ok" row; the oracle agrees with the channel path throughout.
    # The oracle's cap is lifted to 6 observers (7,776 branches) for this
    # test alone, which reaches w/B/w1's "none" row and ghz/B/g1's row 5
    cap = 6
    monkeypatch.setattr(cascade, "ORACLE_MAX_OBSERVERS", cap)
    table = tables[table_key(state, scenario, kind)]
    rows = oracle_ladder_rows(state, table, max_observers=cap)
    # an "ok" row m runs m + 1 observers, a "none" row m observers
    assert len(rows) == sum(1 for m, lam in table.rows if m + (lam is not None) <= cap)
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
        plus, minus = effect(projector_stack((d,)), lam)[0]
        assert np.allclose(plus + minus, np.eye(2), atol=1e-12)


def test_properties_effect_sqrt():
    rng = np.random.default_rng(102)
    for _ in range(50):
        pairs = projector_stack((random_direction(rng),))
        lam = float(rng.uniform(0.01, 1.0))
        roots, targets = effect_sqrt(pairs, lam), effect(pairs, lam)
        assert np.allclose(roots @ roots, targets, atol=1e-12)


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
        dirs = tuple(random_direction(rng) for _ in range(3))
        lam = float(rng.uniform(0.01, 1.0))
        sharp = stacked_correlation((rho,), wing, 1.0, dirs, (0, 1, 2))
        unsharp = stacked_correlation((rho,), wing, lam, dirs, (0, 1, 2))
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
