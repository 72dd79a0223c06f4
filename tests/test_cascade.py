import json
import tracemalloc
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    W,
    CascadeResult,
    InequalityKind,
    Optimizer,
    Scenario,
    ScenarioSpec,
    SettingTriple,
    StateKind,
    StateSpec,
    bloch_shrink_factor,
    build_state,
    direction_coefficients,
    joint_probability,
    no_signalling_audit,
    optimize_angles,
    run_cascade,
    run_cascade_oracle,
    threshold_lambda,
    xyz_spec,
)
from seqsteer import cascade, measurement
from seqsteer.cascade import states_along, value_from_state
from seqsteer.inequalities import required_terms, resolve
from seqsteer.measurement import OUTCOMES, selective_updates
from seqsteer.qop import X_DIR, Y_DIR, Z_DIR
from seqsteer.search import _coefficients, _settings_and_value
from util import (
    FROZEN_CHAINS,
    FROZEN_PRODUCT_STATE_VALUES,
    FROZEN_PURE_VALUES,
    oracle_bit_chains,
    random_mixed_state,
    random_pure_state,
    random_triple,
    reference_grow_branches,
    reference_probability_table,
    reference_term_expectations,
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


def test_value_from_state_rejects_correlations_outside_the_unit_range():
    # twice a state is not a state: its ('I', 'Z', 'Z') correlation is 2,
    # and term_expectations, the one trace every walk goes through,
    # refuses it, so the optimized directions never score it either
    rho, kind = 2 * build_state(GHZ), InequalityKind.G1
    message = r"expectation for \('I', 'Z', 'Z'\) out of \[-1, 1\]"
    with pytest.raises(ValueError, match=message):
        value_from_state(rho, Scenario.A, kind, SettingTriple.xyz(1.0))
    with pytest.raises(ValueError, match=message):
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
    want = reference_term_expectations(rho, kind, seq_wing)
    assert list(got) == list(want)
    for ops, (slot, x) in want.items():
        assert got[ops][0] == slot
        assert type(got[ops][1]) is type(x)
        assert np.asarray(got[ops][1]).tobytes() == np.asarray(x).tobytes()
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


def test_the_term_walk_makes_one_tensor3_call_per_term(monkeypatch):
    # a term that reads the observer's setting puts the three sigmas on
    # the sequential wing as one stack, so it is one call, not three:
    # W/w2 on Charlie's wing is 19 calls, where one per sigma made 47
    calls = []
    real = cascade.tensor3

    def counted(*mats):
        calls.append(mats)
        return real(*mats)

    monkeypatch.setattr(cascade, "tensor3", counted)
    cascade.term_expectations(build_state(W), InequalityKind.W2, 2)
    assert len(calls) == len(required_terms(InequalityKind.W2)) == 19
    for kind, seq_wing in product(InequalityKind, (0, 1, 2)):
        calls.clear()
        cascade.term_expectations(build_state(GHZ), kind, seq_wing)
        assert len(calls) == len(required_terms(kind))


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
    # one per branch or per (direction, outcome); per observer, one grid of
    # joint operators, and one stacked product of the eight operators of
    # each distinct cell the terms read against the whole branch stack,
    # shared by every term that reads the cell, however many branches
    rng = np.random.default_rng(47)
    lams = (0.4, 0.6, 0.8, 1.0)
    spec = ScenarioSpec(
        scenario=Scenario.A,
        inequality=InequalityKind.W2,
        state=W,
        observers=tuple(random_triple(rng, lam) for lam in lams),
    )
    unpatched = run_cascade_oracle(spec)
    updates, builds, traced = Counter(), Counter(), Counter()
    real_update = cascade.selective_updates
    real_operators = cascade.joint_operators
    real_table = cascade.outcome_table

    def counted_update(rho, *args):
        updates[rho.shape] += 1
        return real_update(rho, *args)

    def counted_operators(*args):
        ops = real_operators(*args)
        builds[ops.shape] += 1
        return ops

    def counted_table(rhos, ops):
        # outcome_table makes one product per call; count the cells it reads
        traced[rhos.shape] += np.reshape(ops, (-1, 8, 8, 8)).shape[0]
        return real_table(rhos, ops)

    monkeypatch.setattr(cascade, "selective_updates", counted_update)
    monkeypatch.setattr(cascade, "joint_operators", counted_operators)
    monkeypatch.setattr(cascade, "outcome_table", counted_table)
    assert run_cascade_oracle(spec) == unpatched
    assert updates == {(6**m, 8, 8): 1 for m in range(len(lams) - 1)}
    assert builds == {(3, 3, 3, 8, 8, 8): len(lams)}
    # a term reads a skipped sequential wing (wing 0 here) at its first
    # setting and any other skipped wing along z
    settings = {
        (axes[0] or 0, *(2 if a is None else a for a in axes[1:]))
        for axes in (resolve(t.ops) for t in required_terms(spec.inequality))
    }
    assert len(settings) < len(required_terms(spec.inequality))
    assert traced == {(6**m, 8, 8): len(settings) for m in range(len(lams))}


def test_the_oracle_holds_one_cells_product_at_a_time():
    # the last of 4 observers reads 216 branches; a product over all of a
    # grid's cells at once would hold several MB per cell read
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
    result = CascadeResult(InequalityKind.G1, (1.0,), (0.0,))
    assert result.detected == (False,)
    doc = json.loads(result.to_json())
    assert doc["observers"][0]["detected"] is False


def test_json_observer_numbering_is_one_based():
    result = run_cascade(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.7, 1.0)))
    doc = json.loads(result.to_json())
    assert [row["observer"] for row in doc["observers"]] == [1, 2]
    assert doc["inequality"] == "g1"


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


@pytest.mark.parametrize("shape", [(3, 3, 3, 7), (216, 2), (1, 1, 1, 8)])
def test_audit_rejects_a_table_of_the_wrong_size(shape):
    spec = xyz_spec(Scenario.B, InequalityKind.G2, GHZ, (0.8, 1.0))
    with pytest.raises(ValueError):
        no_signalling_audit(spec, prob_fn=lambda *args: np.full(shape, 0.125))


def test_the_default_audit_reads_one_stacked_table(monkeypatch):
    # one joint_probability table per observer, over its settings and the
    # projective direction pairs, from one grid of outcome stacks
    rng = np.random.default_rng(53)
    spec = ScenarioSpec(
        scenario=Scenario.B,
        inequality=InequalityKind.W1,
        state=W,
        observers=(random_triple(rng, 0.35), random_triple(rng, 0.8), random_triple(rng, 1.0)),
    )
    unpatched = no_signalling_audit(spec)
    builds = Counter()
    tables = Counter()
    real_operators = measurement.joint_operators
    real_probability = cascade.joint_probability

    def counted_operators(*args):
        ops = real_operators(*args)
        builds[ops.shape] += 1
        return ops

    def counted_probability(*args):
        p = real_probability(*args)
        tables[p.shape] += 1
        return p

    monkeypatch.setattr(measurement, "joint_operators", counted_operators)
    monkeypatch.setattr(cascade, "joint_probability", counted_probability)
    assert repr(no_signalling_audit(spec)) == repr(unpatched)
    assert builds == {(3, 3, 3, 8, 8, 8): len(spec.observers)}
    assert tables == {(3, 3, 3, 8): len(spec.observers)}


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
