from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    BlochDirection,
    SettingTriple,
    bloch_shrink_factor,
    build_state,
    joint_probability,
)
from seqsteer.measurement import (
    OUTCOMES,
    averaged_channel,
    effect,
    joint_operators,
    outcome_table,
    selective_updates,
    table_correlation,
)
from seqsteer.qop import XYZ, X_DIR, Y_DIR, Z_DIR, projector, tensor3
from util import (
    bloch_vector,
    left_sum,
    partial_trace,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
    reference_averaged_channel,
    reference_correlation,
    reference_joint_operator,
    reference_outcome_table,
    reference_table_correlation,
    stacked_correlation,
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
    # row 2*i + j is directions[i] with outcome (1, -1)[j], and its trace
    # is that outcome's Born probability
    rng = np.random.default_rng(5)
    rho = random_pure_state(rng)
    triple = random_triple(rng, 0.73)
    for wing in range(3):
        updated = selective_updates(rho, wing, triple)
        assert updated.shape == (6, 8, 8)
        for (i, d), (j, outcome) in product(enumerate(triple.directions), enumerate((1, -1))):
            prob = float(updated[2 * i + j].trace().real)
            op = [np.eye(2)] * 3
            op[wing] = effect(d, 0.73, outcome)
            born = float(np.trace(tensor3(*op) @ rho).real)
            assert prob == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("wing", [3, -1, "alice"])
def test_wings_outside_0_1_2_are_rejected(wing):
    # a negative index would otherwise silently measure Charlie
    rho = build_state(GHZ)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        selective_updates(rho, wing, SettingTriple.xyz(0.5))
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        joint_probability(rho, wing, 0.5, ((Z_DIR,), (Z_DIR,), (Z_DIR,)))


def test_luders_outcomes_sum_to_one():
    rng = np.random.default_rng(6)
    rho = random_mixed_state(rng)
    triple = random_triple(rng, 0.41)
    probs = selective_updates(rho, 1, triple).trace(axis1=-2, axis2=-1).real
    for i in range(3):
        assert probs[2 * i] + probs[2 * i + 1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=36),
    wing=st.integers(min_value=0, max_value=2),
    lam=lams,
)
def test_a_stack_of_states_is_updated_state_by_state(seed, count, wing, lam):
    rng = np.random.default_rng(seed)
    stack = np.array([random_mixed_state(rng) for _ in range(count)])
    triple = random_triple(rng, lam)
    got = selective_updates(stack, wing, triple)
    assert got.shape == (count, 6, 8, 8)
    for s, rho in enumerate(stack):
        assert got[s].tobytes() == selective_updates(rho, wing, triple).tobytes()


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
    # every cell of the table, one per choice of directions, sums to 1
    rng = np.random.default_rng(12)
    rho = random_mixed_state(rng)
    dirs = [tuple(random_direction(rng) for _ in range(k)) for k in (2, 3, 1)]
    probs = joint_probability(rho, 0, 0.66, dirs)
    assert probs.shape == (2, 3, 1, 8)
    assert np.all(probs >= -1e-12)
    assert np.allclose(probs.sum(-1), 1.0, rtol=0, atol=1e-12)


def test_correlation_moment_scales_with_sharpness():
    # <O_lam x P x P> = lam * <O x P x P>
    rng = np.random.default_rng(14)
    for _ in range(50):
        rho = random_pure_state(rng)
        dirs = tuple(random_direction(rng) for _ in range(3))
        lam = float(rng.uniform(0.05, 0.999))
        wing = int(rng.integers(0, 3))
        sharp = stacked_correlation((rho,), wing, 1.0, dirs, (0, 1, 2))
        unsharp = stacked_correlation((rho,), wing, lam, dirs, (0, 1, 2))
        assert unsharp == pytest.approx(lam * sharp, abs=1e-12)


def test_marginal_correlations_drop_the_right_wing():
    # marginalizing the unsharp wing of GHZ leaves <Z Z> = 1 on the rest
    rho = build_state(GHZ)
    two = stacked_correlation((rho,), 0, 0.5, (X_DIR, Z_DIR, Z_DIR), (1, 2))
    assert two == pytest.approx(1.0, abs=1e-12)
    one = stacked_correlation((rho,), 0, 0.5, (X_DIR, Z_DIR, Z_DIR), (1,))
    assert one == pytest.approx(0.0, abs=1e-12)


def test_correlation3_on_ghz_stabilizers():
    rho = build_state(GHZ)
    all3 = (0, 1, 2)
    xxx, yyx = (X_DIR, X_DIR, X_DIR), (Y_DIR, Y_DIR, X_DIR)
    assert stacked_correlation((rho,), 0, 1.0, xxx, all3) == pytest.approx(1.0, abs=1e-12)
    assert stacked_correlation((rho,), 0, 1.0, yyx, all3) == pytest.approx(-1.0, abs=1e-12)
    # correlations with an unsharp first wing scale by lam
    assert stacked_correlation((rho,), 0, 0.25, xxx, all3) == pytest.approx(0.25, abs=1e-12)


def test_correlation_on_every_wing_subset_is_a_trace():
    # Tr[rho O_0 (x) O_1 (x) O_2] with lam n.sigma on the unsharp wing,
    # n.sigma on a projective wing and I on a wing outside the subset
    rng = np.random.default_rng(23)
    subsets = [tuple(w for w in range(3) if mask >> w & 1) for mask in range(1, 8)]
    for _ in range(30):
        rho = random_mixed_state(rng)
        lam = float(rng.uniform(0.05, 1.0))
        dirs = tuple(random_direction(rng) for _ in range(3))
        for seq_wing in range(3):
            obs = [d.observable for d in dirs]
            obs[seq_wing] = lam * obs[seq_wing]
            for wings in subsets:
                mats = [obs[w] if w in wings else np.eye(2) for w in range(3)]
                expected = float(np.trace(rho @ tensor3(*mats)).real)
                got = stacked_correlation((rho,), seq_wing, lam, dirs, wings)
                assert abs(got - expected) < 1e-12, (seq_wing, wings)


def test_correlation_of_several_states_is_the_sum_of_each():
    # each state's outcome sum is kept apart and the totals are added in
    # the order given, so the bits equal the sum of single-state calls
    rng = np.random.default_rng(31)
    rhos = [random_mixed_state(rng) for _ in range(7)]
    dirs = tuple(random_direction(rng) for _ in range(3))
    for wings in ((0,), (1, 2), (0, 1, 2)):
        each = left_sum(stacked_correlation((rho,), 1, 0.6, dirs, wings) for rho in rhos)
        assert stacked_correlation(rhos, 1, 0.6, dirs, wings) == each


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
    dirs = tuple(random_direction(rng) for _ in range(3))
    want = repr(reference_correlation(rhos, seq_wing, lam, dirs, wings))
    assert repr(stacked_correlation(rhos, seq_wing, lam, dirs, wings)) == want
    assert repr(stacked_correlation(np.array(rhos), seq_wing, lam, dirs, wings)) == want


def test_outcome_stack_places_each_factor_on_its_wing():
    # the unsharp effect on the sequential wing, the projectors on the
    # others, each along its own wing's direction
    rng = np.random.default_rng(37)
    d0, d1, d2 = (random_direction(rng) for _ in range(3))
    for op, (a, b, c) in zip(joint_operators(2, 0.3, ((d0,), (d1,), (d2,)))[0, 0, 0], OUTCOMES):
        want = tensor3(projector(d0, a), projector(d1, b), effect(d2, 0.3, c))
        assert op.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=lams,
)
def test_each_row_of_the_outcome_stack_is_the_per_outcome_operator(seed, seq_wing, lam):
    rng = np.random.default_rng(seed)
    dirs = tuple(random_direction(rng) for _ in range(3))
    stack = joint_operators(seq_wing, lam, [(d,) for d in dirs])
    assert stack.shape == (1, 1, 1, 8, 8, 8)
    assert OUTCOMES == tuple(product((1, -1), repeat=3))
    for row, outcomes in zip(stack[0, 0, 0], OUTCOMES):
        want = reference_joint_operator(seq_wing, lam, dirs, outcomes)
        assert row.dtype == want.dtype
        assert row.tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seq_wing=st.integers(min_value=0, max_value=2),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    lam=lams,
)
def test_each_cell_of_the_operator_grid_is_the_single_setting_stack(seed, seq_wing, sizes, lam):
    # each wing's tuple of directions gives one leading axis, in wing order
    rng = np.random.default_rng(seed)
    dirs = tuple(tuple(random_direction(rng) for _ in range(k)) for k in sizes)
    grid = joint_operators(seq_wing, lam, dirs)
    assert grid.shape == sizes + (8, 8, 8)
    for i, j, k in product(*(range(k) for k in sizes)):
        want = joint_operators(seq_wing, lam, ((dirs[0][i],), (dirs[1][j],), (dirs[2][k],)))
        assert grid[i, j, k].tobytes() == want.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
)
def test_the_outcome_table_is_each_operators_stacked_trace_bit_for_bit(seed, count):
    # the side-by-side product gives the bits of one 8x8 product and one
    # trace per state
    rng = np.random.default_rng(seed)
    stack = np.array([random_mixed_state(rng) for _ in range(count)])
    dirs = ((random_direction(rng),), (X_DIR,), (Y_DIR,))
    ops = joint_operators(int(rng.integers(3)), 0.7, dirs)[0, 0, 0]
    table = outcome_table(stack, ops)
    assert table.shape == (8, count)
    for row, op in zip(table, ops):
        assert row.tobytes() == (op @ stack).trace(axis1=1, axis2=2).real.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=3)] * 2),
)
def test_each_cell_of_an_outcome_table_is_the_per_operator_loop_bit_for_bit(seed, count, sizes):
    # one product over every operator of a grid gives the bits of one
    # product per operator, for every grid cell and for a single cell
    rng = np.random.default_rng(seed)
    rhos = [random_mixed_state(rng) for _ in range(count)]
    dirs = [tuple(random_direction(rng) for _ in range(k)) for k in sizes]
    seq_wing, lam = int(rng.integers(3)), float(rng.uniform(0.05, 1.0))
    grid = joint_operators(seq_wing, lam, (*dirs, (random_direction(rng),)))[:, :, 0]
    table = outcome_table(np.array(rhos), grid)
    assert table.shape == sizes + (8, count)
    for idx in np.ndindex(*sizes):
        assert table[idx].tobytes() == reference_outcome_table(rhos, grid[idx]).tobytes()
    assert outcome_table(rhos, grid[0, 0]).tobytes() == table[0, 0].tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_the_audit_table_and_joint_probability_are_their_own_traces_bit_for_bit(seed):
    # joint_probability reads outcome_table, and keeps the bits of the
    # trace expressions it had before: the audit's (216, 8, 8) stack and
    # one 8x8 product per outcome of a single cell
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng)
    seq_wing, triple = int(rng.integers(3)), random_triple(rng, float(rng.uniform(0.05, 1.0)))
    wing_dirs = [triple.directions if w == seq_wing else XYZ for w in range(3)]
    grid = joint_operators(seq_wing, triple.lam, wing_dirs)
    want = (grid.reshape(216, 8, 8) @ rho).trace(axis1=1, axis2=2).real
    got = joint_probability(rho, seq_wing, triple.lam, wing_dirs)
    assert got.shape == (3, 3, 3, 8)
    assert got.reshape(-1).tobytes() == want.tobytes()
    dirs = [(random_direction(rng),) for _ in range(3)]
    ops = joint_operators(seq_wing, triple.lam, dirs)[0, 0, 0]
    got = joint_probability(rho, seq_wing, triple.lam, dirs)[0, 0, 0]
    assert [repr(p) for p in got.tolist()] == [repr(float((op @ rho).trace().real)) for op in ops]


def _spread_table(rng, count):
    # magnitudes over several decades, so that any change in the order of
    # the additions shows in the last bits
    return rng.normal(size=(8, count)) * 10.0 ** rng.integers(-4, 5, size=(8, count))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
    wings=st.sampled_from([()] + WING_SUBSETS),
)
def test_the_signed_reduction_is_the_eight_row_loop_bit_for_bit(seed, count, wings):
    table = _spread_table(np.random.default_rng(seed), count)
    want = repr(reference_table_correlation(table, wings))
    assert repr(table_correlation(table, wings)) == want
    assert repr(table_correlation(table, wings[::-1])) == want


@pytest.mark.parametrize("wings", [()] + WING_SUBSETS)
def test_the_signed_reduction_of_one_state_is_the_eight_row_loop_bit_for_bit(wings):
    # with one state, a pairwise sum over the outcomes gives other bits
    rng = np.random.default_rng(59)
    for _ in range(200):
        table = _spread_table(rng, 1)
        want = repr(reference_table_correlation(table, wings))
        assert repr(table_correlation(table, wings)) == want


def test_the_branch_totals_are_added_left_to_right_from_zero():
    # a compensated sum, as builtin sum is from Python 3.12 on, gives 1.0
    table = np.zeros((8, 3))
    table[0] = [1e16, 1.0, -1e16]
    for wings in WING_SUBSETS:
        assert table_correlation(table, wings) == 0.0
