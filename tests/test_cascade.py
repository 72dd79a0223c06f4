import json

import numpy as np
import pytest

from seqsteer import (
    GHZ,
    W,
    CascadeResult,
    InequalityKind,
    Scenario,
    ScenarioSpec,
    SettingTriple,
    StateKind,
    StateSpec,
    bloch_shrink_factor,
    build_state,
    ghz_state,
    no_signalling_audit,
    propagate,
    run_cascade,
    run_cascade_oracle,
    value_from_state,
    xyz_spec,
)
from util import (
    FROZEN_CHAINS,
    FROZEN_PRODUCT_STATE_VALUES,
    FROZEN_PURE_VALUES,
    random_pure_state,
    random_triple,
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
        rho_m = propagate(build_state(GHZ), 2, spec.observers[:m])
        direct = value_from_state(rho_m, Scenario.B, InequalityKind.G1, triple)
        assert direct == pytest.approx(result.values[m], abs=1e-12)
    assert np.allclose(rho, build_state(GHZ))  # inputs never mutated


def test_value_from_state_rejects_correlations_outside_the_unit_range():
    # twice a state is not a state: its ('I', 'Z', 'Z') correlation is 2,
    # and evaluate, the one sum every value goes through, refuses it
    with pytest.raises(ValueError, match=r"out of \[-1, 1\]"):
        value_from_state(
            2 * ghz_state(), Scenario.A, InequalityKind.G1, SettingTriple.xyz(1.0)
        )


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


def test_audit_flags_a_signalling_model():
    # corrupt the probability model so one wing's marginal leaks the
    # remote setting choice; the audit must see it
    from seqsteer import joint_probability

    def leaky(rho, seq_wing, setting, proj_dirs, outcomes):
        p = joint_probability(rho, seq_wing, setting, proj_dirs, outcomes)
        bias = 0.01 * proj_dirs[0].theta * outcomes[seq_wing]
        return p + bias / 8.0

    spec = xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (0.8, 1.0))
    assert no_signalling_audit(spec, prob_fn=leaky) > 1e-10
