from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    BlochDirection,
    SettingTriple,
    X_DIR,
    Y_DIR,
    Z_DIR,
    averaged_channel,
    bloch_shrink_factor,
    build_state,
    correlation,
    direction_observable,
    effect,
    joint_probability,
    luders_update,
    tensor3,
)
from seqsteer.measurement import OUTCOMES, joint_operators
from seqsteer.qop import projector
from util import (
    bloch_vector,
    partial_trace,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
    reference_averaged_channel,
    reference_correlation,
    reference_joint_operator,
)

lams = st.floats(min_value=1e-3, max_value=1.0)
angles = st.tuples(
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
)


def test_sharpness_range_enforced():
    with pytest.raises(ValueError):
        SettingTriple.xyz(1.0001)
    with pytest.raises(ValueError):
        SettingTriple.xyz(-0.3)
    with pytest.raises(ValueError):
        effect(Z_DIR, 1.0001, 1)


@pytest.mark.parametrize("directions", [(X_DIR, Y_DIR), (X_DIR, Y_DIR, Z_DIR, X_DIR)])
def test_triple_requires_three_directions(directions):
    with pytest.raises(ValueError, match="three directions"):
        SettingTriple(directions, 0.5)


@settings(max_examples=60)
@given(angles, lams)
def test_povm_completeness(angle, lam):
    d = BlochDirection(*angle)
    total = effect(d, lam, 1) + effect(d, lam, -1)
    assert np.allclose(total, np.eye(2), atol=1e-12)


@settings(max_examples=60)
@given(angles, lams, st.sampled_from([1, -1]))
def test_effects_are_positive(angle, lam, outcome):
    evals = np.linalg.eigvalsh(effect(BlochDirection(*angle), lam, outcome))
    assert evals.min() >= -1e-12


def test_projective_limit_recovers_projectors():
    assert np.allclose(effect(Z_DIR, 1.0, 1), np.diag([1.0, 0.0]))
    assert np.allclose(effect(Z_DIR, 1.0, -1), np.diag([0.0, 1.0]))


def test_luders_update_trace_is_born_probability():
    rng = np.random.default_rng(5)
    rho = random_pure_state(rng)
    d = random_direction(rng)
    for wing in range(3):
        for outcome in (1, -1):
            updated = luders_update(rho, wing, d, 0.73, outcome)
            prob = float(updated.trace().real)
            op = [np.eye(2)] * 3
            op[wing] = effect(d, 0.73, outcome)
            born = float(np.trace(tensor3(*op) @ rho).real)
            assert prob == pytest.approx(born, abs=1e-12)
            assert np.trace(updated).real == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("wing", [3, -1, "alice"])
def test_wings_outside_0_1_2_are_rejected(wing):
    # a negative index would otherwise silently measure Charlie
    rho = build_state(GHZ)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        luders_update(rho, wing, Z_DIR, 0.5, 1)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        joint_probability(rho, wing, Z_DIR, 0.5, (Z_DIR, Z_DIR), (1, 1, 1))


def test_luders_outcomes_sum_to_one():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng)
    d = random_direction(rng)
    probs = [float(luders_update(rho, 1, d, 0.41, o).trace().real) for o in (1, -1)]
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_averaged_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    for _ in range(60):
        rho = random_mixed_state(rng)
        triple = random_triple(rng, float(rng.uniform(0.05, 1.0)))
        wing = int(rng.integers(0, 3))
        out = averaged_channel(rho, wing, triple)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-10


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    wing=st.integers(min_value=0, max_value=2),
    lam=lams,
)
def test_averaged_channel_is_the_direction_outcome_loop_bit_for_bit(seed, wing, lam):
    # selective_updates hands the channel the same six updates, in the
    # same order, as the loop it replaced, and they are added the same way
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng)
    triple = random_triple(rng, lam)
    want = reference_averaged_channel(rho, wing, triple)
    assert averaged_channel(rho, wing, triple).tobytes() == want.tobytes()


def test_channel_leaves_other_wings_untouched():
    rng = np.random.default_rng(9)
    rho = random_pure_state(rng)
    out = averaged_channel(rho, 0, SettingTriple.xyz(0.5))
    for wing in (1, 2):
        assert np.allclose(
            partial_trace(out, wing), partial_trace(rho, wing), atol=1e-12
        )


def test_bloch_shrink_factor_values():
    assert bloch_shrink_factor(1.0) == pytest.approx(1 / 3)
    assert bloch_shrink_factor(0.627) == pytest.approx(0.8527, abs=1e-4)


def test_orthogonal_triple_shrinks_bloch_vector_isotropically():
    # the xyz-averaged channel multiplies the measured qubit's whole
    # Bloch vector by (1 + 2*sqrt(1-lam^2))/3, independent of the state
    rng = np.random.default_rng(10)
    for _ in range(50):
        rho = random_mixed_state(rng)
        lam = float(rng.uniform(0.05, 1.0))
        wing = int(rng.integers(0, 3))
        out = averaged_channel(rho, wing, SettingTriple.xyz(lam))
        before = bloch_vector(partial_trace(rho, wing))
        after = bloch_vector(partial_trace(out, wing))
        assert np.allclose(after, bloch_shrink_factor(lam) * before, atol=1e-12)


def test_joint_probabilities_form_a_distribution():
    rng = np.random.default_rng(12)
    rho = random_mixed_state(rng)
    d = random_direction(rng)
    dirs = (random_direction(rng), random_direction(rng))
    probs = [
        joint_probability(rho, 0, d, 0.66, dirs, outcomes)
        for outcomes in product((1, -1), repeat=3)
    ]
    assert all(p >= -1e-12 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_correlation_moment_scales_with_sharpness():
    # <O_lam x P x P> = lam * <O x P x P>
    rng = np.random.default_rng(14)
    for _ in range(50):
        rho = random_pure_state(rng)
        d = random_direction(rng)
        dirs = (random_direction(rng), random_direction(rng))
        lam = float(rng.uniform(0.05, 0.999))
        wing = int(rng.integers(0, 3))
        sharp = correlation((rho,), wing, d, 1.0, dirs, (0, 1, 2))
        unsharp = correlation((rho,), wing, d, lam, dirs, (0, 1, 2))
        assert unsharp == pytest.approx(lam * sharp, abs=1e-12)


def test_marginal_correlations_drop_the_right_wing():
    # marginalizing the unsharp wing of GHZ leaves <Z Z> = 1 on the rest
    rho = build_state(GHZ)
    two = correlation((rho,), 0, X_DIR, 0.5, (Z_DIR, Z_DIR), (1, 2))
    assert two == pytest.approx(1.0, abs=1e-12)
    one = correlation((rho,), 0, X_DIR, 0.5, (Z_DIR, Z_DIR), (1,))
    assert one == pytest.approx(0.0, abs=1e-12)


def test_correlation3_on_ghz_stabilizers():
    rho = build_state(GHZ)
    all3 = (0, 1, 2)
    assert correlation(
        (rho,), 0, X_DIR, 1.0, (X_DIR, X_DIR), all3
    ) == pytest.approx(1.0, abs=1e-12)
    assert correlation(
        (rho,), 0, Y_DIR, 1.0, (Y_DIR, X_DIR), all3
    ) == pytest.approx(-1.0, abs=1e-12)
    # correlations with an unsharp first wing scale by lam
    assert correlation(
        (rho,), 0, X_DIR, 0.25, (X_DIR, X_DIR), all3
    ) == pytest.approx(0.25, abs=1e-12)


def test_correlation_on_every_wing_subset_is_a_trace():
    # Tr[rho O_0 (x) O_1 (x) O_2] with lam n.sigma on the unsharp wing,
    # n.sigma on a projective wing and I on a wing outside the subset
    rng = np.random.default_rng(23)
    subsets = [tuple(w for w in range(3) if mask >> w & 1) for mask in range(1, 8)]
    for _ in range(30):
        rho = random_mixed_state(rng)
        seq_dir = random_direction(rng)
        lam = float(rng.uniform(0.05, 1.0))
        dirs = (random_direction(rng), random_direction(rng))
        for seq_wing in range(3):
            others = [w for w in range(3) if w != seq_wing]
            obs = [None, None, None]
            obs[seq_wing] = lam * direction_observable(seq_dir)
            for w, d in zip(others, dirs):
                obs[w] = direction_observable(d)
            for wings in subsets:
                mats = [obs[w] if w in wings else np.eye(2) for w in range(3)]
                expected = float(np.trace(rho @ tensor3(*mats)).real)
                got = correlation((rho,), seq_wing, seq_dir, lam, dirs, wings)
                assert abs(got - expected) < 1e-12, (seq_wing, wings)


def test_correlation_of_several_states_is_the_sum_of_each():
    # each state's outcome sum is kept apart and the totals are added in
    # the order given, so the bits equal the sum of single-state calls
    rng = np.random.default_rng(31)
    rhos = [random_mixed_state(rng) for _ in range(7)]
    d = random_direction(rng)
    dirs = (random_direction(rng), random_direction(rng))
    for wings in ((0,), (1, 2), (0, 1, 2)):
        each = sum(correlation((rho,), 1, d, 0.6, dirs, wings) for rho in rhos)
        assert correlation(rhos, 1, d, 0.6, dirs, wings) == each


WING_SUBSETS = [tuple(w for w in range(3) if mask >> w & 1) for mask in range(1, 8)]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
    seq_wing=st.integers(min_value=0, max_value=2),
    wings=st.sampled_from(WING_SUBSETS),
    lam=lams,
)
def test_stacked_correlation_is_the_per_state_loop_bit_for_bit(seed, count, seq_wing, wings, lam):
    rng = np.random.default_rng(seed)
    rhos = [random_mixed_state(rng) for _ in range(count)]
    seq_dir = random_direction(rng)
    dirs = (random_direction(rng), random_direction(rng))
    want = repr(reference_correlation(rhos, seq_wing, seq_dir, lam, dirs, wings))
    assert repr(correlation(rhos, seq_wing, seq_dir, lam, dirs, wings)) == want
    assert repr(correlation(np.array(rhos), seq_wing, seq_dir, lam, dirs, wings)) == want


def test_outcome_stack_places_each_factor_on_its_wing():
    # the unsharp effect on the sequential wing, the projectors on the
    # others in ascending wing order
    rng = np.random.default_rng(37)
    d = random_direction(rng)
    dirs = (random_direction(rng), random_direction(rng))
    for op, (a, b, c) in zip(joint_operators(2, d, 0.3, dirs), OUTCOMES):
        want = tensor3(projector(dirs[0], a), projector(dirs[1], b), effect(d, 0.3, c))
        assert op.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=lams,
)
def test_each_row_of_the_outcome_stack_is_the_per_outcome_operator(seed, seq_wing, lam):
    rng = np.random.default_rng(seed)
    seq_dir = random_direction(rng)
    dirs = (random_direction(rng), random_direction(rng))
    stack = joint_operators(seq_wing, seq_dir, lam, dirs)
    assert stack.shape == (8, 8, 8)
    assert OUTCOMES == tuple(product((1, -1), repeat=3))
    for row, outcomes in zip(stack, OUTCOMES):
        want = reference_joint_operator(seq_wing, seq_dir, lam, dirs, outcomes)
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes()


@pytest.mark.parametrize("outcomes", [(1, 0, 1), (1, -1), (1, 1, 1, 1), (2, 1, -1)])
def test_joint_probability_rejects_an_outcome_outside_plus_minus_one(outcomes):
    rho = build_state(GHZ)
    with pytest.raises(ValueError, match="outcomes must be three of"):
        joint_probability(rho, 0, Z_DIR, 0.5, (Z_DIR, Z_DIR), outcomes)
