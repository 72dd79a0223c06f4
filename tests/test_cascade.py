import dataclasses
import inspect
import json
import re
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqsteer
from seqsteer import (
    GHZ,
    W,
    BlochDirection,
    CascadeResult,
    InequalityKind,
    Optimizer,
    Scenario,
    ScenarioSpec,
    SearchConfig,
    SettingTriple,
    StateKind,
    StateSpec,
    ThresholdTable,
    bloch_shrink_factor,
    build_state,
    build_table,
    direction_coefficients,
    joint_probability,
    no_signalling_audit,
    optimize_angles,
    run_cascade,
    run_cascade_oracle,
    threshold_lambda,
    xyz_spec,
)
from seqsteer import cascade, measurement, qop
from seqsteer.cascade import states_along
from seqsteer.inequalities import required_terms
from seqsteer.measurement import (
    OUTCOMES,
    outcome_table,
    selective_updates,
    setting_spreads,
    table_correlation,
)
from seqsteer.qop import XYZ, X_DIR, Y_DIR, Z_DIR
from seqsteer.search import _coefficients
from util import (
    FROZEN_CHAINS,
    FROZEN_PRODUCT_STATE_VALUES,
    FROZEN_PURE_VALUES,
    _settings_and_value,
    oracle_bit_chains,
    random_mixed_state,
    random_pure_state,
    random_triple,
    reference_audit,
    reference_direction_outcome_table,
    reference_cumsum_table_correlation,
    reference_grow_branches,
    reference_index_audit,
    reference_moveaxis_deviation,
    reference_observer_audit,
    reference_observer_setting_spreads,
    reference_observer_spreads,
    reference_oracle_plan,
    reference_setting_spreads,
    reference_spread_outcome_table,
    reference_probability_table,
    reference_seven_add_outcome_table,
    reference_spread_tensor3,
    reference_term_expectations,
    value_from_state,
)


def test_scenario_wings():
    assert Scenario.A.sequential_wing == 0
    assert Scenario.B.sequential_wing == 2


def test_spec_takes_no_direction():
    # the steering direction is the inequality's, so it is not a field
    with pytest.raises(TypeError):
        ScenarioSpec(
            scenario=Scenario.A,
            inequality=InequalityKind.G1,
            state=GHZ,
            observers=(SettingTriple.xyz(1.0),),
            direction=InequalityKind.G1.direction,
        )


@pytest.mark.parametrize(
    "name,value",
    [
        ("scenario", "A"),
        ("inequality", "g1"),
        ("state", "ghz"),
        ("observers", ((0.5,),)),
        ("observers", (SettingTriple.xyz(0.5), 1.0)),
    ],
)
def test_spec_rejects_a_value_of_the_wrong_type(name, value):
    # each would otherwise fail deep inside run_cascade
    args = dict(scenario=Scenario.A, inequality=InequalityKind.G1, state=GHZ, observers=())
    with pytest.raises(ValueError, match=name.rstrip("s")):
        ScenarioSpec(**{**args, name: value})
    if name == "inequality":
        with pytest.raises(ValueError, match="InequalityKind"):
            xyz_spec(Scenario.A, value, GHZ, (1.0,))


def test_cascade_requires_projective_last():
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.6, 0.9))
    with pytest.raises(ValueError, match="projective"):
        run_cascade(spec)


def test_cascade_requires_observers():
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ())
    with pytest.raises(ValueError, match="no observers"):
        run_cascade(spec)


def test_audit_requires_observers():
    # an empty chain has no probabilities, and a deviation of 0.0 would
    # read as a pass
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, ())
    with pytest.raises(ValueError, match="no observers"):
        no_signalling_audit(spec)
    with pytest.raises(ValueError, match="no observers"):
        no_signalling_audit(spec, prob_fn=joint_probability)


@pytest.mark.parametrize(
    "state,kind",
    [
        (GHZ, InequalityKind.G1),
        (GHZ, InequalityKind.G2),
        (W, InequalityKind.W1),
        (W, InequalityKind.W2),
    ],
)
def test_single_projective_observer_violates(state, kind):
    expected = FROZEN_PURE_VALUES[(state.kind.value, kind.value)]
    result = run_cascade(xyz_spec(Scenario.A, kind, state, (1.0,)))
    assert result.values[0] == pytest.approx(expected, abs=1e-4)
    assert result.detected == (True,)


@pytest.mark.parametrize("kind", list(InequalityKind))
def test_product_state_never_violates(kind):
    rho = np.zeros((8, 8), dtype=complex)
    rho[0, 0] = 1.0
    spec = xyz_spec(
        Scenario.A, kind, StateSpec(StateKind.CUSTOM, custom=rho), (1.0,)
    )
    value = run_cascade(spec).values[0]
    assert value == pytest.approx(FROZEN_PRODUCT_STATE_VALUES[kind.value], abs=1e-4)
    assert value >= 0.0


@pytest.mark.parametrize("scenario_lambdas", sorted(FROZEN_CHAINS, key=repr))
def test_worked_chains_match_reference(scenario_lambdas):
    scenario_name, lambdas = scenario_lambdas
    expected = FROZEN_CHAINS[scenario_lambdas]
    spec = xyz_spec(Scenario(scenario_name), InequalityKind.G1, GHZ, lambdas)
    result = run_cascade(spec)
    for got, want in zip(result.values, expected):
        assert got == pytest.approx(want, abs=5e-4)


def test_values_follow_the_shrink_model():
    # with xyz settings each predecessor scales the next observer's
    # correlation part by the isotropic shrink factor
    lams = (0.61, 0.74, 1.0)
    result = run_cascade(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, lams))
    k, s = 1.1547, 2.0
    degrade = 1.0
    for lam, value in zip(lams, result.values):
        assert value == pytest.approx(k - s * lam * degrade, abs=1e-10)
        degrade *= bloch_shrink_factor(lam)


def test_value_from_state_matches_run_cascade():
    spec = xyz_spec(Scenario.B, InequalityKind.G1, GHZ, (0.5, 0.8, 1.0))
    result = run_cascade(spec)
    rho = build_state(GHZ)
    for m, triple in enumerate(spec.observers):
        *_, rho_m = states_along(build_state(GHZ), 2, spec.observers[:m])
        direct = value_from_state(rho_m, Scenario.B, InequalityKind.G1, triple)
        assert direct == pytest.approx(result.values[m], abs=1e-12)
    assert np.allclose(rho, build_state(GHZ))  # inputs never mutated


def test_twice_a_state_is_rejected_by_the_term_walk_and_the_trace_check():
    # twice a state is not a state: its ('I', 'Z', 'Z') correlation is 2,
    # and term_expectations, the one trace every walk goes through,
    # refuses it, so the optimized directions never score it either;
    # direction_coefficients validates its state first and sees the trace
    rho, kind = 2 * build_state(GHZ), InequalityKind.G1
    message = r"expectation for \('I', 'Z', 'Z'\) out of \[-1, 1\]"
    with pytest.raises(ValueError, match=message):
        value_from_state(rho, Scenario.A, kind, SettingTriple.xyz(1.0))
    with pytest.raises(ValueError, match=r"state trace is 2\.0+, expected 1"):
        direction_coefficients(rho, Scenario.A, kind, 1.0)
    with pytest.raises(ValueError, match=message):
        terms = cascade.term_expectations(rho, kind, Scenario.A.sequential_wing)
        _settings_and_value(terms, kind, 1.0, Optimizer.GRID_REFINE)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    which=st.sampled_from(["ghz", "w", "mixed"]),
    kind=st.sampled_from(list(InequalityKind)),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=st.floats(min_value=1e-3, max_value=1.0),
)
def test_stacked_term_walk_is_the_per_sigma_loop_bit_for_bit(seed, which, kind, seq_wing, lam):
    rng = np.random.default_rng(seed)
    state = {"ghz": GHZ, "w": W}.get(which)
    rho = random_mixed_state(rng) if state is None else build_state(state)
    got = cascade.term_expectations(rho, kind, seq_wing)
    want = list(reference_term_expectations(rho, kind, seq_wing).values())
    assert type(got) is tuple and len(got) == len(want)
    for (got_slot, got_x), (slot, x) in zip(got, want):
        assert got_slot == slot
        assert type(got_x) is type(x)
        assert np.asarray(got_x).tobytes() == np.asarray(x).tobytes()
    triple = random_triple(rng, lam)
    assert repr(cascade.value_from_terms(got, kind, triple)) == repr(
        cascade.value_from_terms(want, kind, triple)
    )
    # _coefficients is direction_coefficients on a state's term walk
    (got_base, got_vecs), (want_base, want_vecs) = (
        _coefficients(terms, kind, lam) for terms in (got, want)
    )
    assert repr(got_base) == repr(want_base)
    assert [v.tobytes() for v in got_vecs] == [v.tobytes() for v in want_vecs]


def _walk_or_message(rho, kind, seq_wing):
    """term_expectations of rho, or the message of the ValueError it raises."""
    try:
        return cascade.term_expectations(rho, kind, seq_wing), None
    except ValueError as exc:
        return None, str(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    whiches=st.lists(st.sampled_from(["ghz", "w", "mixed"]), min_size=1, max_size=6),
    kind=st.sampled_from(list(InequalityKind)),
    seq_wing=st.sampled_from([0, 2]),
    doubled=st.none() | st.integers(min_value=0, max_value=5),
)
def test_a_stacked_term_walk_is_each_states_walk_bit_for_bit(seed, whiches, kind, seq_wing, doubled):
    rng = np.random.default_rng(seed)
    rhos = [
        random_mixed_state(rng) if w == "mixed" else build_state({"ghz": GHZ, "w": W}[w])
        for w in whiches
    ]
    if doubled is not None and doubled < len(rhos):
        # twice a state is not a state: its walk may trace outside [-1, 1]
        rhos[doubled] = 2 * rhos[doubled]
    singles, messages = zip(*(_walk_or_message(rho, kind, seq_wing) for rho in rhos))
    stacked, message = _walk_or_message(np.stack(rhos), kind, seq_wing)
    # at most one row is bad, so the stack raises that row's message
    assert [message] == ([m for m in messages if m] or [None])
    if message is not None:
        return
    assert [slot for slot, _ in stacked] == [t.axes[seq_wing] for t in required_terms(kind)]
    triple = random_triple(rng, float(rng.uniform(1e-3, 1.0)))
    for m, single in enumerate(singles):
        row = []
        for (slot, x), (single_slot, single_x) in zip(stacked, single, strict=True):
            assert slot == single_slot
            assert type(x) is (list if slot is None else np.ndarray)
            assert np.shape(x) == ((len(rhos),) if slot is None else (len(rhos), 3))
            row.append((slot, x[m]))
            assert type(x[m]) is type(single_x)
            assert np.asarray(x[m]).tobytes() == np.asarray(single_x).tobytes()
        assert repr(cascade.value_from_terms(row, kind, triple)) == repr(
            cascade.value_from_terms(single, kind, triple)
        )


@pytest.mark.parametrize("seq_wing", [0, 2])
@pytest.mark.parametrize("kind", list(InequalityKind))
def test_the_term_walk_is_a_tuple_in_term_order(kind, seq_wing):
    # each term's value sits at its term's position, read by position
    # and never looked up by the term's symbols
    terms = cascade.term_expectations(build_state(GHZ), kind, seq_wing)
    assert type(terms) is tuple
    assert [slot for slot, _ in terms] == [t.axes[seq_wing] for t in required_terms(kind)]


def test_the_term_walk_makes_one_spread_product_call_per_term(monkeypatch):
    # the walk multiplies the spreads built at import and gathers nothing:
    # no tensor3 and no spread call. A term that reads the observer's
    # setting takes the three sigmas' stack on the sequential wing, so it
    # is one call, not three: W/w2 on Charlie's wing is 19 calls, where one
    # per sigma made 47
    calls = []
    real = cascade.spread_product

    def counted(*factors):
        calls.append(factors)
        return real(*factors)

    def gathered(*args):
        raise AssertionError("the term walk gathered a factor")

    monkeypatch.setattr(cascade, "spread_product", counted)
    for module, name in product((qop, measurement, cascade), ("tensor3", "spread")):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, gathered)
    cascade.term_expectations(build_state(W), InequalityKind.W2, 2)
    assert len(calls) == len(required_terms(InequalityKind.W2)) == 19
    for kind, seq_wing in product(InequalityKind, (0, 1, 2)):
        calls.clear()
        cascade.term_expectations(build_state(GHZ), kind, seq_wing)
        assert len(calls) == len(required_terms(kind))


def test_each_wing_spread_is_the_spread_of_its_matrix_bit_for_bit():
    # row 0 of each wing's table is I2's spread, row 1 + a the spread of
    # XYZ[a]'s observable, not of the exact Pauli, and none can be written
    table = qop.SIGMA_SPREADS
    assert table.shape == (3, 4, 64) and not table.flags.writeable
    mats = [qop.I2, *(d.observable for d in XYZ)]
    for wing, row in product((0, 1, 2), range(4)):
        assert table[wing, row].tobytes() == qop.spread(mats[row], wing).tobytes()


@pytest.mark.parametrize("seq_wing", [0, 1, 2])
@pytest.mark.parametrize("kind", list(InequalityKind))
def test_each_term_factor_triple_is_read_off_its_axes(kind, seq_wing):
    # each factor is a view of qop.SIGMA_SPREADS, not a copy: I2's row
    # where the term skips a wing, the x, y, z rows on the sequential
    # wing where it has a slot, and the axis's sigma row elsewhere; their
    # product is the tensor3 of the matrices the walk used to pass, bit
    # for bit
    sigmas = np.array([d.observable for d in XYZ])
    triples = cascade._TERM_FACTORS[kind, seq_wing]
    terms = required_terms(kind)
    assert len(triples) == len(terms)
    for term, triple in zip(terms, triples):
        assert len(triple) == 3
        mats = []
        for wing, (a, factor) in enumerate(zip(term.axes, triple)):
            first, last = (0, 1) if a is None else (1, 4) if wing == seq_wing else (1 + a, 2 + a)
            rows = slice(first, last)
            assert factor.base is qop.SIGMA_SPREADS
            assert factor.reshape(-1, 64).tobytes() == qop.SIGMA_SPREADS[wing, rows].tobytes()
            mats.append(qop.I2 if a is None else sigmas[a])
        if term.axes[seq_wing] is not None:
            mats[seq_wing] = sigmas
        want = reference_spread_tensor3(*mats)
        assert qop.spread_product(*triple).tobytes() == want.tobytes()


def test_oracle_agrees_with_channel_path():
    rng = np.random.default_rng(21)
    for kind, scenario in (
        (InequalityKind.G1, Scenario.A),
        (InequalityKind.W2, Scenario.B),
    ):
        lams = (float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.3, 0.9)), 1.0)
        observers = tuple(random_triple(rng, lam) for lam in lams)
        spec = ScenarioSpec(
            scenario=scenario,
            inequality=kind,
            state=GHZ,
            observers=observers,
        )
        fast = run_cascade(spec)
        slow = run_cascade_oracle(spec)
        assert max(
            abs(a - b) for a, b in zip(fast.values, slow.values)
        ) < 1e-10


def test_oracle_never_touches_the_channel_path(monkeypatch):
    # the oracle is an independent check only if it reaches its values
    # through branch states and probabilities alone
    rng = np.random.default_rng(41)
    lams = (float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.3, 0.9)), 1.0)
    spec = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W1,
        state=W,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    fast = run_cascade(spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle used the channel path")

    for name in ("averaged_channel", "states_along", "term_expectations"):
        monkeypatch.setattr(cascade, name, forbidden)
    slow = run_cascade_oracle(spec)
    assert max(abs(a - b) for a, b in zip(fast.values, slow.values)) < 1e-10


@pytest.mark.parametrize("seq_wing", [0, 1, 2])
@pytest.mark.parametrize("kind", list(InequalityKind))
def test_each_oracle_read_plan_is_the_per_call_derivation(kind, seq_wing):
    # the cells, rows and sign stack built at import are the ones the
    # oracle used to derive on every call, the projective wings' factors
    # are the x, y, z spreads it gathered at those cells on every call,
    # and none can be written to
    index, fixed, rows, signs = cascade._ORACLE_PLANS[kind, seq_wing]
    want_index, want_rows, want_signs = reference_oracle_plan(kind, seq_wing)
    assert index.tolist() == list(want_index[seq_wing])
    assert fixed[seq_wing] is None
    for wing in {0, 1, 2} - {seq_wing}:
        shape = [len(want_index[wing]), 1, 1, 1, 64]
        shape[1 + wing] = 2
        want = np.take(reference_setting_spreads(XYZ, wing), want_index[wing], axis=0)
        assert fixed[wing].shape == tuple(shape)
        assert fixed[wing].tobytes() == want.tobytes()
        assert not fixed[wing].flags.writeable
    assert rows.tolist() == want_rows
    assert signs.shape == (len(required_terms(kind)), 8, 1) == want_signs.shape
    assert signs.dtype == want_signs.dtype and signs.tobytes() == want_signs.tobytes()
    assert not any(a.flags.writeable for a in (index, rows, signs))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.sampled_from([1, 2, 6, 7, 8, 9, 36, 40, 216]),
    seq_wing=st.integers(min_value=0, max_value=2),
    picks=st.none() | st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=27),
)
def test_the_spread_outcome_table_is_the_direction_one_bit_for_bit(seed, count, seq_wing, picks):
    # the oracle's and the audit's operators from the x, y, z factors
    # gathered at import, the audit's grid or any cells, and the triple's
    # effects gathered per call have the bits of the direction-taking
    # build, for state counts on either side of the padding to 8
    rng = np.random.default_rng(seed)
    triple = random_triple(rng, float(rng.uniform(0.05, 1.0)))
    dirs = tuple(triple.directions if w == seq_wing else XYZ for w in range(3))
    if picks is None:
        cells = np.ix_(range(3), range(3), range(3))
        factors = list(cascade._GRID)
        factors[seq_wing] = setting_spreads(triple.directions, seq_wing, triple.lam)
    else:
        cells = tuple(np.array([c[w] for c in picks]) for w in range(3))
        factors = [
            setting_spreads(d, w, triple.lam if w == seq_wing else None, cells[w])
            for w, d in enumerate(dirs)
        ]
    rhos = np.array([random_mixed_state(rng) for _ in range(count)])
    want = reference_direction_outcome_table(rhos, seq_wing, triple.lam, dirs, cells)
    got = outcome_table(rhos, factors)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=st.floats(min_value=1e-3, max_value=1.0),
)
def test_stacked_branch_growth_is_the_list_bit_for_bit(seed, count, seq_wing, lam):
    rng = np.random.default_rng(seed)
    branches = [random_mixed_state(rng) for _ in range(count)]
    triple = random_triple(rng, lam)
    want = np.array(reference_grow_branches(branches, seq_wing, triple))
    got = selective_updates(np.array(branches), seq_wing, triple).reshape(-1, 8, 8)
    assert got.shape == want.shape == (6 * count, 8, 8)
    assert got.tobytes() == want.tobytes()


def test_the_oracle_updates_and_traces_whole_stacks(monkeypatch):
    # per grown observer, one selective_updates on the whole stack, not
    # one per branch or per (direction, outcome); per observer, one
    # outcome_table call that builds the joint operators of just the C
    # distinct cells the terms read, not of the whole grid, and traces
    # them against the whole branch stack, a (C, 8, n) table, each cell's
    # table shared by every term that reads it, however many branches
    rng = np.random.default_rng(47)
    lams = (0.4, 0.6, 0.8, 1.0)
    spec = ScenarioSpec(
        scenario=Scenario.A,
        inequality=InequalityKind.W2,
        state=W,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    unpatched = run_cascade_oracle(spec)
    updates, built_cells, traced = Counter(), [], []
    real_update = cascade.selective_updates
    real_table = cascade.outcome_table

    def counted_update(rho, *args):
        updates[rho.shape] += 1
        return real_update(rho, *args)

    fixed = cascade._ORACLE_PLANS[spec.inequality, spec.sequential_wing][1]

    def counted_table(rhos, factors):
        # record each call's branch stack and table shape, and check that
        # the projective wings' factors are the plan's own
        table = real_table(rhos, factors)
        traced.append((rhos.shape, table.shape))
        assert all(f is g for f, g in zip(factors[1:], fixed[1:]))
        built_cells.append(factors[0].shape[0])
        return table

    monkeypatch.setattr(cascade, "selective_updates", counted_update)
    monkeypatch.setattr(cascade, "outcome_table", counted_table)
    assert run_cascade_oracle(spec) == unpatched
    assert updates == {(6**m, 8, 8): 1 for m in range(len(lams) - 1)}
    # a term reads a skipped sequential wing (wing 0 here) at its first
    # setting and any other skipped wing along z
    settings = {
        (axes[0] or 0, *(2 if a is None else a for a in axes[1:]))
        for axes in (t.axes for t in required_terms(spec.inequality))
    }
    assert len(settings) < len(required_terms(spec.inequality))
    want_index = reference_oracle_plan(spec.inequality, spec.sequential_wing)[0]
    assert sorted(zip(*want_index)) == sorted(settings)
    assert built_cells == [len(settings)] * len(lams)
    assert traced == [((6**m, 8, 8), (len(settings), 8, 6**m)) for m in range(len(lams))]


def test_the_oracle_holds_one_cells_product_at_a_time():
    # the last of 4 observers reads 216 branches; its one outcome_table
    # call forms only the diagonals of the cells the terms read, a
    # (8, 8 * cells, 216) product (peak 3.5 MiB here), where the full 8x8
    # blocks of every such cell at once would hold several MB per cell
    rng = np.random.default_rng(53)
    spec = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W1,
        state=GHZ,
        observers=tuple(random_triple(rng, lam) for lam in (0.5, 0.6, 0.7, 1.0)),
    )
    run_cascade_oracle(spec)
    tracemalloc.start()
    try:
        run_cascade_oracle(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_walk_applies_one_channel_per_predecessor(monkeypatch, n):
    # the walks share states_along, which is lazy and zipped observers
    # first, so none of them applies a channel after the last state it
    # reads: n - 1 steps for a chain of n, m - 1 to reach observer m
    rng = np.random.default_rng(59 + n)
    lams = tuple(float(rng.uniform(0.3, 0.9)) for _ in range(n - 1)) + (1.0,)
    spec = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W1,
        state=W,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    steps = []
    real_channel = cascade.averaged_channel

    def counted_channel(*args):
        steps.append(args)
        return real_channel(*args)

    def channel_steps(fn, *args):
        steps.clear()
        fn(*args)
        return len(steps)

    monkeypatch.setattr(cascade, "averaged_channel", counted_channel)
    assert channel_steps(run_cascade, spec) == n - 1
    assert channel_steps(no_signalling_audit, spec) == n - 1
    # as a prefix, the whole chain has measured before the candidate
    assert channel_steps(threshold_lambda, spec) == len(spec.observers)
    for m in range(1, n + 1):
        assert channel_steps(optimize_angles, spec, m) == m - 1


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_run_cascade_walks_the_terms_once_per_chain(monkeypatch, n):
    # the n states the observers receive are traced as one stack: one
    # term walk for the chain, and the channel only between observers
    rng = np.random.default_rng(71 + n)
    lams = tuple(float(rng.uniform(0.3, 0.9)) for _ in range(n - 1)) + (1.0,)
    spec = ScenarioSpec(
        scenario=Scenario.A,
        inequality=InequalityKind.G2,
        state=GHZ,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    walks, steps = [], []
    real_walk, real_channel = cascade.term_expectations, cascade.averaged_channel

    def counted_walk(rho, *args):
        walks.append(np.shape(rho))
        return real_walk(rho, *args)

    def counted_channel(*args):
        steps.append(args)
        return real_channel(*args)

    monkeypatch.setattr(cascade, "term_expectations", counted_walk)
    monkeypatch.setattr(cascade, "averaged_channel", counted_channel)
    run_cascade(spec)
    assert walks == [(n, 8, 8)]
    assert len(steps) == n - 1


ORACLE_BITS = json.loads(
    (Path(__file__).parent / "reference" / "oracle_bits.json").read_text()
)


def test_oracle_bit_chains_match_the_reference_keys():
    assert sorted(oracle_bit_chains()) == sorted(ORACLE_BITS)


@pytest.mark.parametrize("name", sorted(ORACLE_BITS))
def test_oracle_and_audit_bits_match_the_reference(name):
    # repr round-trips a float exactly, so equal strings are equal bits
    spec = oracle_bit_chains()[name]
    assert [repr(v) for v in run_cascade_oracle(spec).values] == ORACLE_BITS[name]["oracle"]
    assert repr(no_signalling_audit(spec)) == ORACLE_BITS[name]["audit"]


def test_oracle_refuses_long_chains():
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.9, 0.9, 0.9, 0.9, 1.0))
    with pytest.raises(ValueError, match="limited to 4 observers"):
        run_cascade_oracle(spec)


def test_detection_is_strictly_negative():
    result = CascadeResult((0.0,))
    assert result.detected == (False,)


def test_a_result_holds_no_copy_of_its_inputs():
    # a cascade's functional and sharpness values are its spec's, and a
    # table is cut exactly when its last row still violates
    with pytest.raises(TypeError):
        CascadeResult(InequalityKind.G1, (1.0,), (0.0,))
    with pytest.raises(TypeError):
        ThresholdTable("ghz", Scenario.A, InequalityKind.G1, ((1, None),), truncated=True)
    ladder = ThresholdTable("ghz", Scenario.A, InequalityKind.G1, ((1, 0.6), (2, None)))
    assert ladder.truncated is False
    assert dataclasses.replace(ladder, rows=((1, 0.6),)).truncated is True
    assert dataclasses.replace(ladder, rows=()).truncated is False


_CHAIN_ENTRY_POINTS = {
    "run_cascade": run_cascade,
    "run_cascade_oracle": run_cascade_oracle,
    "no_signalling_audit": no_signalling_audit,
    "threshold_lambda": threshold_lambda,
    "optimize_angles": lambda spec: optimize_angles(spec, 1),
}


@pytest.mark.parametrize("spec", ["x", None, GHZ], ids=["str", "None", "GHZ"])
@pytest.mark.parametrize("entry", sorted(_CHAIN_ENTRY_POINTS))
def test_the_chain_entry_points_reject_a_spec_that_is_not_a_scenario_spec(entry, spec):
    # each used to fail on its first attribute read with an AttributeError
    name = "prefix" if entry == "threshold_lambda" else "spec"
    with pytest.raises(ValueError, match=f"^{name} must be of type ScenarioSpec, got "):
        _CHAIN_ENTRY_POINTS[entry](spec)


# the inputs every argument of each public callable and constructor is
# tried with, 1.0 standing where an integer belongs
_BAD_VALUES = {
    "str": "x",
    "None": None,
    "True": True,
    "np.True_": np.True_,
    "1.0": 1.0,
    "nan": float("nan"),
    "()": (),
}
_AUDIT_SPEC = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.8, 1.0))


def _with(function, argument, **valid):
    """function called with the valid arguments, argument replaced by value."""
    return lambda value: function(**{**valid, argument: value})


def _joint(argument):
    """joint_probability with one argument replaced by value."""
    rho = build_state(GHZ)
    return _with(joint_probability, argument, rho=rho, seq_wing=0, lam=0.5, dirs=(XYZ,) * 3)


def _type_message(name, cls):
    """require_type's message for a value that is not a cls."""
    return lambda v: f"{name} must be of type {cls.__name__}, got {v!r}"


def _sharpness_message(value):
    return f"sharpness must lie in (0, 1], got {value!r}"


def _joint_rho_message(value):
    if isinstance(value, str):
        return f"state must be an 8x8 array of numbers, got {value!r}"
    return f"state must be 8x8, got {np.shape(value)}"


def _joint_dirs_message(value):
    if isinstance(value, (str, tuple)):  # iterable, so counted as wings
        return f"dirs must hold three non-empty wing tuples, got lengths {[1] * len(value)}"
    return f"dirs must be iterable, got {value!r}"


def _custom_state_message(value):
    if value is None:
        return "custom state requires an 8x8 density matrix"
    if isinstance(value, str):
        return f"custom state must be an 8x8 array of numbers, got {value!r}"
    return f"custom state must be 8x8, got {np.shape(value)}"


def _observers_message(value):
    if isinstance(value, str):  # iterable, so its characters are observers
        return f"observer must be of type SettingTriple, got {value[0]!r}"
    return f"observers must be iterable, got {value!r}"


def _directions_message(value):
    if isinstance(value, (str, tuple)):  # iterable, so counted as directions
        return f"a triple needs three directions, got {len(value)}"
    return f"directions must be iterable, got {value!r}"


def _table_call(argument):
    """build_table with one argument replaced by value."""
    return _with(
        build_table, argument, scenario=Scenario.A, inequality=InequalityKind.G1, state=GHZ
    )


def _coefficients_call(argument):
    """direction_coefficients with one argument replaced by value."""
    rho = build_state(GHZ)
    return _with(
        direction_coefficients, argument,
        rho=rho, scenario=Scenario.A, inequality=InequalityKind.G1, lam=0.5,
    )


def _spec_call(argument):
    """ScenarioSpec with one field replaced by value."""
    return _with(
        ScenarioSpec, argument, scenario=Scenario.A, inequality=InequalityKind.G1, state=GHZ,
        observers=(SettingTriple.xyz(1.0),),
    )


# each (callable, argument): the call, and the package's message for a
# bad value
_BAD_INPUT_CALLS = {
    "joint_probability-rho": (_joint("rho"), _joint_rho_message),
    "joint_probability-seq_wing": (
        _joint("seq_wing"), lambda v: f"unknown wing {v!r}; expected 0, 1 or 2"
    ),
    "joint_probability-lam": (_joint("lam"), _sharpness_message),
    "joint_probability-dirs": (_joint("dirs"), _joint_dirs_message),
    "run_cascade-spec": (run_cascade, _type_message("spec", ScenarioSpec)),
    "run_cascade_oracle-spec": (run_cascade_oracle, _type_message("spec", ScenarioSpec)),
    "no_signalling_audit-spec": (no_signalling_audit, _type_message("spec", ScenarioSpec)),
    "no_signalling_audit-prob_fn": (
        lambda v: no_signalling_audit(_AUDIT_SPEC, v),
        lambda v: f"prob_fn must be callable, got {v!r}",
    ),
    "build_table-scenario": (_table_call("scenario"), _type_message("scenario", Scenario)),
    "build_table-inequality": (
        _table_call("inequality"), _type_message("inequality", InequalityKind)
    ),
    "build_table-state": (_table_call("state"), _type_message("state", StateSpec)),
    "build_table-config": (_table_call("config"), _type_message("config", SearchConfig)),
    "threshold_lambda-prefix": (threshold_lambda, _type_message("prefix", ScenarioSpec)),
    "threshold_lambda-config": (
        lambda v: threshold_lambda(_AUDIT_SPEC, v), _type_message("config", SearchConfig)
    ),
    "optimize_angles-spec": (
        lambda v: optimize_angles(v, 1), _type_message("spec", ScenarioSpec)
    ),
    "optimize_angles-m": (
        lambda v: optimize_angles(_AUDIT_SPEC, v),
        lambda v: f"observer index must be an integer in 1..2, got {v!r}",
    ),
    "optimize_angles-config": (
        lambda v: optimize_angles(_AUDIT_SPEC, 1, v), _type_message("config", SearchConfig)
    ),
    "direction_coefficients-rho": (_coefficients_call("rho"), _joint_rho_message),
    "direction_coefficients-scenario": (
        _coefficients_call("scenario"), _type_message("scenario", Scenario)
    ),
    "direction_coefficients-inequality": (
        _coefficients_call("inequality"), _type_message("inequality", InequalityKind)
    ),
    "direction_coefficients-lam": (_coefficients_call("lam"), _sharpness_message),
    "BlochDirection-theta": (
        lambda v: BlochDirection(v, 0.0), lambda v: f"theta must lie in [0, pi], got {v!r}"
    ),
    "BlochDirection-phi": (
        lambda v: BlochDirection(0.0, v), lambda v: f"phi must lie in [0, 2*pi], got {v!r}"
    ),
    "build_state-spec": (build_state, _type_message("spec", StateSpec)),
    "bloch_shrink_factor-lam": (bloch_shrink_factor, _sharpness_message),
    # the tolerance prints by str, so np.True_ reads True
    "SearchConfig-tol": (
        lambda v: SearchConfig(tol=v),
        lambda v: f"tol must lie in [2**-53 = 1.11e-16, 1), got {v}",
    ),
    "SearchConfig-optimizer": (
        lambda v: SearchConfig(optimizer=v), _type_message("optimizer", Optimizer)
    ),
    "ScenarioSpec-scenario": (_spec_call("scenario"), _type_message("scenario", Scenario)),
    "ScenarioSpec-inequality": (
        _spec_call("inequality"), _type_message("inequality", InequalityKind)
    ),
    "ScenarioSpec-state": (_spec_call("state"), _type_message("state", StateSpec)),
    "ScenarioSpec-observers": (_spec_call("observers"), _observers_message),
    "SettingTriple-directions": (lambda v: SettingTriple(v, 0.5), _directions_message),
    "SettingTriple-lam": (lambda v: SettingTriple(XYZ, v), _sharpness_message),
    "xyz_spec-scenario": (
        _with(xyz_spec, "scenario", inequality=InequalityKind.G1, state=GHZ, lambdas=(1.0,)),
        _type_message("scenario", Scenario),
    ),
    "xyz_spec-inequality": (
        _with(xyz_spec, "inequality", scenario=Scenario.A, state=GHZ, lambdas=(1.0,)),
        _type_message("inequality", InequalityKind),
    ),
    "xyz_spec-state": (
        _with(xyz_spec, "state", scenario=Scenario.A, inequality=InequalityKind.G1, lambdas=(1.0,)),
        _type_message("state", StateSpec),
    ),
    # a string is iterable, so its characters are the sharpness values
    "xyz_spec-lambdas": (
        lambda v: xyz_spec(Scenario.A, InequalityKind.G1, GHZ, v),
        lambda v: _sharpness_message(v)
        if isinstance(v, str)
        else f"lambdas must be iterable, got {v!r}",
    ),
    "StateSpec-kind": (StateSpec, _type_message("state kind", StateKind)),
    "StateSpec-custom": (lambda v: StateSpec(StateKind.CUSTOM, v), _custom_state_message),
}
# the cases that are valid, and why
_VALID_INPUTS = {
    ("joint_probability-lam", "1.0"): "sharpness 1 is a projective measurement",
    ("no_signalling_audit-prob_fn", "None"): "None asks for the quantum model",
    ("build_table-config", "None"): "None asks for the default SearchConfig",
    ("threshold_lambda-config", "None"): "None asks for the default SearchConfig",
    ("optimize_angles-config", "None"): "None asks for the default SearchConfig",
    ("direction_coefficients-lam", "1.0"): "sharpness 1 is a projective measurement",
    ("BlochDirection-theta", "1.0"): "1 radian lies in [0, pi]",
    ("BlochDirection-phi", "1.0"): "1 radian lies in [0, 2*pi]",
    ("bloch_shrink_factor-lam", "1.0"): "sharpness 1 is a projective measurement",
    ("ScenarioSpec-observers", "()"): "an empty chain is a search prefix",
    ("SettingTriple-lam", "1.0"): "sharpness 1 is a projective measurement",
    ("xyz_spec-lambdas", "()"): "an empty chain is a search prefix",
}


@pytest.mark.parametrize("value", sorted(_BAD_VALUES))
@pytest.mark.parametrize("case", sorted(_BAD_INPUT_CALLS))
def test_each_bad_input_is_a_value_error_or_listed_valid(case, value):
    # every argument of each public callable and constructor, against
    # each input of the table: a ValueError with the package's message,
    # or a case listed valid with its reason
    call, message = _BAD_INPUT_CALLS[case]
    if (case, value) in _VALID_INPUTS:
        call(_BAD_VALUES[value])
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message(_BAD_VALUES[value]))}$"):
        call(_BAD_VALUES[value])


# the public names that take no input: results, errors, enums and the two
# built-in states
_NOT_INPUTS = {
    "CascadeResult",
    "ThresholdTable",
    "SearchError",
    "StateFormatError",
    "InequalityKind",
    "Optimizer",
    "Scenario",
    "StateKind",
    "GHZ",
    "W",
}


def test_every_public_argument_has_a_bad_input_row():
    # each argument of every public callable and constructor is tried
    # with every bad value, so a new entry point or argument needs a row
    rows = {
        f"{name}-{argument}"
        for name in set(seqsteer.__all__) - _NOT_INPUTS
        for argument in inspect.signature(getattr(seqsteer, name)).parameters
    }
    assert rows == set(_BAD_INPUT_CALLS)


def test_no_signalling_on_quantum_model():
    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.63, 1.0))
    assert no_signalling_audit(spec) <= 1e-10
    rng = np.random.default_rng(33)
    custom = StateSpec(StateKind.CUSTOM, custom=random_pure_state(rng))
    spec_b = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W2,
        state=custom,
        observers=(random_triple(rng, 0.4), random_triple(rng, 1.0)),
    )
    assert no_signalling_audit(spec_b) <= 1e-10


# (leaking wing, remote wing whose direction it leaks)
_LEAKS = [(leaking, remote) for leaking in range(3) for remote in range(3) if remote != leaking]


@pytest.mark.parametrize("scenario", list(Scenario), ids=lambda s: s.value)
@pytest.mark.parametrize("leaking, remote", _LEAKS, ids=lambda w: f"wing{w}")
def test_audit_flags_a_signalling_model(scenario, leaking, remote):
    # corrupt the probability model so one wing's marginal leaks a remote
    # choice; GHZ marginals are all 1/2, so only the leak can move them
    def leaky(rho, seq_wing, lam, dirs):
        theta = np.reshape([d.theta for d in dirs[remote]], [3 if a == remote else 1 for a in range(4)])
        sign = np.array(OUTCOMES)[:, leaking]
        return joint_probability(rho, seq_wing, lam, dirs) + 0.01 * theta * sign / 8.0

    spec = xyz_spec(scenario, InequalityKind.G1, GHZ, (0.8, 1.0))
    assert no_signalling_audit(spec, prob_fn=leaky) > 1e-10


@pytest.mark.parametrize("nan_where", ["everywhere", "wing 1 along z"])
def test_audit_fails_a_nan_model(nan_where):
    def broken(rho, seq_wing, lam, dirs):
        p = joint_probability(rho, seq_wing, lam, dirs)
        assert dirs[1][2] == Z_DIR
        if nan_where == "everywhere":
            p[:] = float("nan")
        else:
            p[:, 2] = float("nan")
        return p

    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.8, 1.0))
    assert not no_signalling_audit(spec, prob_fn=broken) <= 1e-10


@pytest.mark.parametrize(
    "shape", [(3, 3, 3, 7), (216, 2), (1, 1, 1, 8), (8, 3, 3, 3), (27, 8), (216,)]
)
def test_audit_rejects_a_table_of_the_wrong_size(shape):
    # a table of 216 entries in another shape, outcomes first say, would
    # read as a different table, so only (3, 3, 3, 8) is accepted
    spec = xyz_spec(Scenario.B, InequalityKind.G2, GHZ, (0.8, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"(3, 3, 3, 8), got {shape}")):
        no_signalling_audit(spec, prob_fn=lambda *args: np.full(shape, 0.125))


@pytest.mark.parametrize(
    "kind, dtype",
    [("complex", "complex128"), ("str", "<U"), ("bool", "bool"), ("object", "object")],
)
def test_audit_rejects_a_table_that_is_not_real_numbers(kind, dtype):
    # a complex table used to lose its imaginary part with a
    # ComplexWarning, and a table of strings raised numpy's UFuncTypeError
    def model(rho, seq_wing, lam, dirs):
        p = joint_probability(rho, seq_wing, lam, dirs)
        return {
            "complex": p + 0j,
            "str": p.astype(str),
            "bool": p > 0.1,
            "object": p.astype(object),
        }[kind]

    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.8, 1.0))
    with pytest.raises(ValueError, match=f"^the model's table must hold real numbers, got dtype {dtype}"):
        no_signalling_audit(spec, prob_fn=model)


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32, np.float64])
def test_audit_reads_a_table_of_any_real_dtype(dtype):
    # integers and floats of any width are real numbers
    spec = xyz_spec(Scenario.B, InequalityKind.G2, GHZ, (0.8, 1.0))
    assert no_signalling_audit(spec, prob_fn=lambda *args: np.ones((3, 3, 3, 8), dtype)) == 0.0


def test_the_default_audit_reads_one_stacked_table(monkeypatch):
    # one outcome_table of the full grid for the whole chain: every
    # observer's state stacked, the x, y, z factors of the grid gathered at
    # import on the projective wings, and on the sequential wing every
    # observer's effects from one setting_spreads call for the chain;
    # joint_probability is not asked
    rng = np.random.default_rng(53)
    spec = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W1,
        state=W,
        observers=(random_triple(rng, 0.35), random_triple(rng, 0.8), random_triple(rng, 1.0)),
    )
    unpatched = no_signalling_audit(spec)
    builds, spread = Counter(), []
    real_table, real_spreads = cascade.outcome_table, cascade.setting_spreads

    def counted_table(rhos, factors):
        table = real_table(rhos, factors)
        builds[rhos.shape, table.shape, factors[2].shape] += 1
        assert factors[0] is cascade._GRID[0] and factors[1] is cascade._GRID[1]
        return table

    def counted_spreads(dirs, wing, lam=None, index=None):
        spread.append((dirs, wing, lam, index))
        return real_spreads(dirs, wing, lam, index)

    def forbidden(*args):
        raise AssertionError("the default audit asked joint_probability")

    monkeypatch.setattr(cascade, "outcome_table", counted_table)
    monkeypatch.setattr(cascade, "setting_spreads", counted_spreads)
    monkeypatch.setattr(measurement, "joint_probability", forbidden)
    assert repr(no_signalling_audit(spec)) == repr(unpatched)
    m = len(spec.observers)
    assert builds == {((m, 1, 1, 1, 1, 8, 8), (m, 3, 3, 3, 8, 1), (m, 1, 1, 3, 1, 1, 2, 64)): 1}
    assert spread == [([t.directions for t in spec.observers], 2, spec.lambdas, None)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.sampled_from([1, 2, 6, 7, 8, 9, 36, 216]),
    scenario=st.sampled_from(list(Scenario)),
    m=st.integers(min_value=1, max_value=4),
    plan=st.none() | st.sampled_from(list(InequalityKind)),
)
def test_a_stacked_outcome_table_is_its_per_observer_calls_bit_for_bit(
    seed, count, scenario, m, plan
):
    # m observers' state stacks and effects in one call, on the audit's
    # full grid or on an oracle plan's cells, give each observer's own
    # table: the bits of the unstacked call and of the per-call gather it
    # replaced, for state counts on either side of the padding to 8
    rng = np.random.default_rng(seed)
    seq_wing = scenario.sequential_wing
    triples = [random_triple(rng, float(rng.uniform(0.05, 1.0))) for _ in range(m)]
    rhos = np.array([[random_mixed_state(rng) for _ in range(count)] for _ in range(m)])
    if plan is None:
        index, fixed = None, cascade._GRID
        cells = np.ix_(range(3), range(3), range(3))
    else:
        index, fixed, _, _ = cascade._ORACLE_PLANS[plan, seq_wing]
        cells = tuple(np.array(i) for i in reference_oracle_plan(plan, seq_wing)[0])
    effects = [setting_spreads(t.directions, seq_wing, t.lam, index) for t in triples]
    stacked = [np.stack(effects) if w == seq_wing else f for w, f in enumerate(fixed)]
    # the observer axis, then 1 for each axis of the cells
    got = outcome_table(rhos.reshape((m,) + (1,) * (effects[0].ndim - 4) + rhos.shape[1:]), stacked)
    assert got.shape == (m,) + np.broadcast_shapes(*map(np.shape, cells)) + (8, count)
    for rho, effect, triple, table in zip(rhos, effects, triples, got):
        alone = outcome_table(rho, [effect if w == seq_wing else f for w, f in enumerate(fixed)])
        spreads = reference_observer_spreads(seq_wing, triple)
        want = reference_spread_outcome_table(rho, spreads, cells)
        assert table.tobytes() == alone.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.sampled_from([1, 6, 36, 216]),
    scenario=st.sampled_from(list(Scenario)),
    m=st.integers(min_value=1, max_value=4),
    plan=st.none() | st.sampled_from(list(InequalityKind)),
    projective_last=st.booleans(),
)
def test_the_chain_reads_are_the_replaced_forms_bit_for_bit(
    seed, count, scenario, m, plan, projective_last
):
    # one setting_spreads call for the chain gives the bits of one call per
    # observer, the three half-stack adds of outcome_table those of the
    # seven slice adds, and on an oracle plan's cells table_correlation's
    # whole-array adds those of the cumsum, at the oracle's branch counts
    rng = np.random.default_rng(seed)
    seq_wing = scenario.sequential_wing
    lams = [float(rng.uniform(0.05, 1.0)) for _ in range(m)]
    if projective_last:
        lams[-1] = 1.0
    triples = [random_triple(rng, lam) for lam in lams]
    if plan is None:
        index, fixed = None, cascade._GRID
    else:
        index, fixed, rows, signs = cascade._ORACLE_PLANS[plan, seq_wing]
    chain = setting_spreads([t.directions for t in triples], seq_wing, tuple(lams), index)
    want = np.stack([
        reference_observer_setting_spreads(t.directions, seq_wing, t.lam, index) for t in triples
    ])
    assert chain.shape == want.shape
    assert chain.tobytes() == want.tobytes()
    factors = [chain if w == seq_wing else f for w, f in enumerate(fixed)]
    rhos = np.array([[random_mixed_state(rng) for _ in range(count)] for _ in range(m)])
    rhos = rhos.reshape((m,) + (1,) * (chain.ndim - 5) + rhos.shape[1:])
    tables = outcome_table(rhos, factors)
    want = reference_seven_add_outcome_table(rhos, factors)
    assert tables.shape == want.shape
    assert tables.tobytes() == want.tobytes()
    if plan is not None:
        for table in tables:
            got = [repr(x) for x in table_correlation(table[rows], signs)]
            assert got == [repr(x) for x in reference_cumsum_table_correlation(table[rows], signs)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scenario=st.sampled_from(list(Scenario)),
    m=st.integers(min_value=1, max_value=4),
    nan=st.booleans(),
)
def test_the_marginals_gather_is_the_moveaxis_reduction_by_repr(seed, scenario, m, nan):
    # any model's tables, with magnitudes over several decades so that the
    # order of the adds shows, give the deviation of the moveaxis reduction
    # through the one index built at import, a NaN included
    rng = np.random.default_rng(seed)
    shape = (m, 3, 3, 3, 8)
    tables = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 5, size=shape)
    if nan:
        tables[tuple(int(rng.integers(n)) for n in shape)] = np.nan
    spec = xyz_spec(scenario, InequalityKind.G1, GHZ, [0.5] * (m - 1) + [1.0])
    model = iter(tables)
    got = no_signalling_audit(spec, prob_fn=lambda *args: next(model))
    assert repr(got) == repr(reference_moveaxis_deviation(tables))


def test_outcome_table_refuses_state_stacks_that_miss_the_cells_axes():
    # m state stacks must come as (m, 1, ..., 1, n, 8, 8), one axis per
    # cell axis: one stack per observer in front of the full grid's
    # factors is refused rather than read along the grid's first axis,
    # as are stacks along any other cell axis
    rng = np.random.default_rng(61)
    triples = [random_triple(rng, lam) for lam in (0.4, 0.9, 1.0)]
    rhos = np.array([[random_mixed_state(rng) for _ in range(2)] for _ in triples])
    factors = [*cascade._GRID[:2], setting_spreads(triples[0].directions, 2, triples[0].lam)]
    for states in (rhos, rhos[:, None], rhos[None, :, None], rhos[:, None, None, None, None]):
        message = f"one axis per cell axis, here 3; got shape {states.shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            outcome_table(states, factors)
    got = outcome_table(rhos[:, None, None], factors)
    assert got.shape == (3, 3, 3, 8, 2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scenario=st.sampled_from(list(Scenario)),
    kind=st.sampled_from(list(InequalityKind)),
    n=st.integers(min_value=1, max_value=6),
)
def test_the_audit_is_its_per_observer_read_by_repr(seed, scenario, kind, n):
    # the one stacked audit table gives the deviation of one
    # outcome_table call per observer
    rng = np.random.default_rng(seed)
    lams = [float(rng.uniform(0.05, 1.0)) for _ in range(n - 1)] + [1.0]
    spec = ScenarioSpec(
        scenario=scenario,
        inequality=kind,
        state=StateSpec(StateKind.CUSTOM, custom=random_mixed_state(rng)),
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    assert repr(no_signalling_audit(spec)) == repr(reference_observer_audit(spec))


@pytest.mark.parametrize("scenario", list(Scenario))
def test_the_projective_factors_are_gathered_once_at_import(monkeypatch, scenario):
    # on every call, the oracle reads its plan's projective factors and the
    # audit the grid's, the same read-only objects each time, and gathers
    # only the sequential wing's factor, in one build for the whole chain
    rng = np.random.default_rng(59)
    seq_wing = scenario.sequential_wing
    spec = ScenarioSpec(
        scenario=scenario,
        inequality=InequalityKind.G2,
        state=GHZ,
        observers=tuple(random_triple(rng, lam) for lam in (0.5, 0.7, 1.0)),
    )
    index, fixed, _, _ = cascade._ORACLE_PLANS[spec.inequality, seq_wing]
    read, gathered = [], []
    real_table, real_spreads = cascade.outcome_table, cascade.setting_spreads

    def counted_table(rhos, factors):
        read.append(tuple(f for w, f in enumerate(factors) if w != seq_wing))
        return real_table(rhos, factors)

    def counted_spreads(dirs, wing, lam=None, index=None):
        gathered.append((wing, lam, index))
        return real_spreads(dirs, wing, lam, index)

    monkeypatch.setattr(cascade, "outcome_table", counted_table)
    monkeypatch.setattr(cascade, "setting_spreads", counted_spreads)
    for _ in range(2):
        run_cascade_oracle(spec)
        no_signalling_audit(spec)
    own = {w: f for w, f in enumerate(fixed) if w != seq_wing}
    grid = {w: f for w, f in enumerate(cascade._GRID) if w != seq_wing}
    n = len(spec.observers)
    assert len(read) == 2 * (n + 1)
    for call, factors in enumerate(read):
        want = grid if call % (n + 1) == n else own
        assert all(f is g for f, g in zip(factors, want.values()))
        assert not any(f.flags.writeable for f in factors)
    assert gathered == 2 * [(seq_wing, spec.lambdas, index), (seq_wing, spec.lambdas, None)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("scenario", list(Scenario))
def test_the_audit_validates_each_state_once(monkeypatch, scenario, n):
    # the first state where the walk starts, every later one in the
    # channel that hands it on; the default model reads each unchecked
    checked = []
    real_validate = measurement.validate_density

    def counted_validate(rho, *args, **kwargs):
        checked.append(np.shape(rho))
        return real_validate(rho, *args, **kwargs)

    lambdas = (0.6,) * (n - 1) + (1.0,)
    spec = xyz_spec(scenario, InequalityKind.W1, W, lambdas)
    unpatched = no_signalling_audit(spec)
    for module in (cascade, measurement):
        monkeypatch.setattr(module, "validate_density", counted_validate)
    assert repr(no_signalling_audit(spec)) == repr(unpatched)
    assert checked == [(8, 8)] * n


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scenario=st.sampled_from(list(Scenario)),
    kind=st.sampled_from(list(InequalityKind)),
    n=st.integers(min_value=1, max_value=4),
)
def test_stacked_audit_is_the_probability_loop_bit_for_bit(seed, scenario, kind, n):
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(
        scenario=scenario,
        inequality=kind,
        state=StateSpec(StateKind.CUSTOM, custom=random_mixed_state(rng)),
        observers=tuple(random_triple(rng, float(rng.uniform(0.05, 1.0))) for _ in range(n)),
    )
    want = repr(no_signalling_audit(spec, prob_fn=reference_probability_table))
    assert repr(no_signalling_audit(spec)) == want


def _audit_tables(seed, model):
    """A fresh prob_fn that draws each observer's table from seed: random
    values, signed zeros, a few exact levels, one value everywhere, or
    the quantum table with one wing leaking a remote setting; a NaN now
    and then."""
    rng = np.random.default_rng(seed)

    def prob_fn(rho, seq_wing, lam, dirs):
        if model == "leaky":
            leaking, remote = _LEAKS[rng.integers(len(_LEAKS))]
            shape = [3 if a == remote else 1 for a in range(4)]
            theta = np.reshape([d.theta for d in dirs[remote]], shape)
            leak = rng.choice([0.0, 1e-12, 0.01]) * theta * np.array(OUTCOMES)[:, leaking]
            p = joint_probability(rho, seq_wing, lam, dirs) + leak
        elif model == "random":
            p = rng.uniform(-1.0, 1.0, (3, 3, 3, 8))
        elif model == "uniform":
            p = np.full((3, 3, 3, 8), rng.choice([0.0, -0.0, 0.125, 1 / 3]))
        else:
            levels = [0.0, -0.0] if model == "zeros" else [0.0, -0.0, 0.125, 0.25, 1 / 3]
            p = rng.choice(levels, (3, 3, 3, 8))
        if rng.random() < 0.2:
            p[tuple(rng.integers(n) for n in p.shape)] = float("nan")
        return p

    return prob_fn


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    scenario=st.sampled_from(list(Scenario)),
    n=st.integers(min_value=1, max_value=4),
    model=st.sampled_from(["random", "zeros", "ties", "uniform", "leaky"]),
)
def test_the_stacked_audit_reduction_is_the_per_wing_loop_by_repr(seed, scenario, n, model):
    # the shape read is checked against the per-wing loop and against the
    # index tables it replaced
    rng = np.random.default_rng(seed)
    spec = ScenarioSpec(
        scenario=scenario,
        inequality=InequalityKind.G1,
        state=GHZ,
        observers=tuple(random_triple(rng, float(rng.uniform(0.05, 1.0))) for _ in range(n)),
    )
    want = repr(reference_audit(spec, prob_fn=_audit_tables(seed, model)))
    assert repr(reference_index_audit(spec, prob_fn=_audit_tables(seed, model))) == want
    assert repr(no_signalling_audit(spec, prob_fn=_audit_tables(seed, model))) == want


def test_audit_asks_for_each_probability_once():
    # one table per observer: its 3 directions and x, y, z on each
    # projective wing, every outcome triple
    asked = Counter()

    def counting(rho, seq_wing, lam, dirs):
        asked[lam, dirs] += 1
        return joint_probability(rho, seq_wing, lam, dirs)

    rng = np.random.default_rng(43)
    spec = ScenarioSpec(
        scenario=Scenario.A,
        inequality=InequalityKind.G2,
        state=GHZ,
        observers=(random_triple(rng, 0.45), random_triple(rng, 0.7), random_triple(rng, 1.0)),
    )
    assert no_signalling_audit(spec, prob_fn=counting) <= 1e-10
    xyz = (X_DIR, Y_DIR, Z_DIR)
    assert asked == {(triple.lam, (triple.directions, xyz, xyz)): 1 for triple in spec.observers}
