import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    BlochDirection,
    SettingTriple,
    UnsharpSetting,
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
from util import (
    bloch_vector,
    partial_trace,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
)

lams = st.floats(min_value=1e-3, max_value=1.0)
angles = st.tuples(
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
)


def test_sharpness_range_enforced():
    with pytest.raises(ValueError):
        UnsharpSetting(Z_DIR, 1.0001)
    with pytest.raises(ValueError):
        SettingTriple.xyz(-0.3)


def test_triple_requires_shared_sharpness():
    a = UnsharpSetting(X_DIR, 0.5)
    b = UnsharpSetting(Y_DIR, 0.5)
    c = UnsharpSetting(Z_DIR, 0.7)
    with pytest.raises(ValueError, match="share"):
        SettingTriple(a, b, c)


@settings(max_examples=60)
@given(angles, lams)
def test_povm_completeness(angle, lam):
    s = UnsharpSetting(BlochDirection(*angle), lam)
    total = effect(s, 1) + effect(s, -1)
    assert np.allclose(total, np.eye(2), atol=1e-12)


@settings(max_examples=60)
@given(angles, lams, st.sampled_from([1, -1]))
def test_effects_are_positive(angle, lam, outcome):
    s = UnsharpSetting(BlochDirection(*angle), lam)
    evals = np.linalg.eigvalsh(effect(s, outcome))
    assert evals.min() >= -1e-12


def test_projective_limit_recovers_projectors():
    s = UnsharpSetting(Z_DIR, 1.0)
    assert np.allclose(effect(s, 1), np.diag([1.0, 0.0]))
    assert np.allclose(effect(s, -1), np.diag([0.0, 1.0]))


def test_luders_update_trace_is_born_probability():
    rng = np.random.default_rng(5)
    rho = random_pure_state(rng)
    s = UnsharpSetting(random_direction(rng), 0.73)
    for wing in range(3):
        for outcome in (1, -1):
            updated, prob = luders_update(rho, wing, s, outcome)
            op = [np.eye(2)] * 3
            op[wing] = effect(s, outcome)
            born = float(np.trace(tensor3(*op) @ rho).real)
            assert prob == pytest.approx(born, abs=1e-12)
            assert np.trace(updated).real == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("wing", [3, -1, "alice"])
def test_wings_outside_0_1_2_are_rejected(wing):
    # a negative index would otherwise silently measure Charlie
    rho = build_state(GHZ)
    s = UnsharpSetting(Z_DIR, 0.5)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        luders_update(rho, wing, s, 1)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        joint_probability(rho, wing, s, (Z_DIR, Z_DIR), (1, 1, 1))


def test_luders_outcomes_sum_to_one():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng)
    s = UnsharpSetting(random_direction(rng), 0.41)
    probs = [luders_update(rho, 1, s, o)[1] for o in (1, -1)]
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
    s = UnsharpSetting(random_direction(rng), 0.66)
    dirs = (random_direction(rng), random_direction(rng))
    from itertools import product

    probs = [
        joint_probability(rho, 0, s, dirs, outcomes)
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
        sharp = correlation(rho, wing, UnsharpSetting(d, 1.0), dirs, (0, 1, 2))
        unsharp = correlation(rho, wing, UnsharpSetting(d, lam), dirs, (0, 1, 2))
        assert unsharp == pytest.approx(lam * sharp, abs=1e-12)


def test_marginal_correlations_drop_the_right_wing():
    # marginalizing the unsharp wing of GHZ leaves <Z Z> = 1 on the rest
    rho = build_state(GHZ)
    s = UnsharpSetting(X_DIR, 0.5)
    two = correlation(rho, 0, s, (Z_DIR, Z_DIR), (1, 2))
    assert two == pytest.approx(1.0, abs=1e-12)
    one = correlation(rho, 0, s, (Z_DIR, Z_DIR), (1,))
    assert one == pytest.approx(0.0, abs=1e-12)


def test_correlation3_on_ghz_stabilizers():
    rho = build_state(GHZ)
    s = UnsharpSetting(X_DIR, 1.0)
    all3 = (0, 1, 2)
    assert correlation(rho, 0, s, (X_DIR, X_DIR), all3) == pytest.approx(1.0, abs=1e-12)
    assert correlation(
        rho, 0, UnsharpSetting(Y_DIR, 1.0), (Y_DIR, X_DIR), all3
    ) == pytest.approx(-1.0, abs=1e-12)
    # correlations with an unsharp first wing scale by lam
    assert correlation(
        rho, 0, UnsharpSetting(X_DIR, 0.25), (X_DIR, X_DIR), all3
    ) == pytest.approx(0.25, abs=1e-12)


def test_correlation_on_every_wing_subset_is_a_trace():
    # Tr[rho O_0 (x) O_1 (x) O_2] with lam n.sigma on the unsharp wing,
    # n.sigma on a projective wing and I on a wing outside the subset
    rng = np.random.default_rng(23)
    subsets = [tuple(w for w in range(3) if mask >> w & 1) for mask in range(1, 8)]
    for _ in range(30):
        rho = random_mixed_state(rng)
        setting = UnsharpSetting(random_direction(rng), float(rng.uniform(0.05, 1.0)))
        dirs = (random_direction(rng), random_direction(rng))
        for seq_wing in range(3):
            others = [w for w in range(3) if w != seq_wing]
            obs = [None, None, None]
            obs[seq_wing] = setting.lam * direction_observable(setting.direction)
            for w, d in zip(others, dirs):
                obs[w] = direction_observable(d)
            for wings in subsets:
                mats = [obs[w] if w in wings else np.eye(2) for w in range(3)]
                expected = float(np.trace(rho @ tensor3(*mats)).real)
                got = correlation(rho, seq_wing, setting, dirs, wings)
                assert abs(got - expected) < 1e-12, (seq_wing, wings)
