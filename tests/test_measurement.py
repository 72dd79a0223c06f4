import functools
import math
import operator
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    BlochDirection,
    SettingTriple,
    bloch_shrink_factor,
    build_state,
    joint_probability,
)
from seqsteer import measurement
from seqsteer.measurement import (
    OUTCOMES,
    averaged_channel,
    effect,
    outcome_signs,
    selective_updates,
    table_correlation,
)
from seqsteer.qop import XYZ, X_DIR, Y_DIR, Z_DIR, projector_stack
from util import (
    bloch_vector,
    direction_outcome_table,
    left_sum,
    partial_trace,
    projector,
    random_direction,
    random_mixed_state,
    random_pure_state,
    random_triple,
    reference_averaged_channel,
    reference_correlation,
    reference_cumsum_table_correlation,
    reference_effect,
    reference_spread_tensor3,
    reference_joint_grid,
    reference_joint_operator,
    reference_outcome_table,
    reference_table_correlation,
    reference_term_correlations,
    reference_wide_outcome_table,
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
        effect(projector_stack((Z_DIR,)), 1.0001)


@pytest.mark.parametrize("directions", [(X_DIR, Y_DIR), (X_DIR, Y_DIR, Z_DIR, X_DIR)])
def test_triple_requires_three_directions(directions):
    with pytest.raises(ValueError, match="three directions"):
        SettingTriple(directions, 0.5)


@pytest.mark.parametrize("directions", [("x", "y", "z"), (X_DIR, Y_DIR, (0.0, 0.0))])
def test_triple_rejects_a_direction_that_is_not_a_bloch_direction(directions):
    with pytest.raises(ValueError, match="BlochDirection"):
        SettingTriple(directions, 0.5)


@settings(max_examples=60)
@given(angles, lams)
def test_povm_completeness(angle, lam):
    plus, minus = effect(projector_stack((BlochDirection(*angle),)), lam)[0]
    assert np.allclose(plus + minus, np.eye(2), atol=1e-12)


@settings(max_examples=60)
@given(angles, lams)
def test_effects_are_positive(angle, lam):
    evals = np.linalg.eigvalsh(effect(projector_stack((BlochDirection(*angle),)), lam))
    assert evals.min() >= -1e-12


def test_projective_limit_recovers_projectors():
    plus, minus = effect(projector_stack((Z_DIR,)), 1.0)[0]
    assert np.allclose(plus, np.diag([1.0, 0.0]))
    assert np.allclose(minus, np.diag([0.0, 1.0]))


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
            op[wing] = reference_effect(d, 0.73, outcome)
            born = float(np.trace(reference_spread_tensor3(*op) @ rho).real)
            assert prob == pytest.approx(born, abs=1e-12)


@pytest.mark.parametrize("wing", [3, -1, "alice", True, False, np.True_, 1.0, None])
def test_wings_outside_0_1_2_are_rejected(wing):
    # a negative index would otherwise silently measure Charlie, and a
    # bool or a float would pass for wing 0 or 1
    rho = build_state(GHZ)
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        selective_updates(rho, wing, SettingTriple.xyz(0.5))
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        joint_probability(rho, wing, 0.5, ((Z_DIR,), (Z_DIR,), (Z_DIR,)))
    with pytest.raises(ValueError, match="expected 0, 1 or 2"):
        averaged_channel(rho, wing, SettingTriple.xyz(0.5))


def test_a_numpy_integer_is_a_wing():
    rho, triple = build_state(GHZ), SettingTriple.xyz(0.5)
    assert averaged_channel(rho, np.int64(2), triple).tobytes() == (
        averaged_channel(rho, 2, triple).tobytes()
    )


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


def test_the_channel_adds_the_six_updates_to_zero(monkeypatch):
    # the updates are added to 0.0, as the loop's running sum added them,
    # so an entry that is -0.0 in all six updates comes out +0.0
    rho = np.full((8, 8), complex(-0.0, -0.0))
    rho[0, 0] = 1.0
    monkeypatch.setattr(measurement, "selective_updates", lambda *args: np.stack([rho / 2] * 6))
    out = averaged_channel(rho, 0, SettingTriple.xyz(0.5))
    want = functools.reduce(operator.add, [rho / 2] * 6, 0.0) / 3
    assert out.tobytes() == want.tobytes()
    assert not np.signbit(out.real).any() and not np.signbit(out.imag).any()


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


@pytest.mark.parametrize("lam", [0.0, -0.5, 1.5, math.nan])
def test_bloch_shrink_factor_rejects_a_sharpness_outside_0_1(lam):
    # as every other public sharpness input does, instead of returning
    # 1.0, a factor above 1/3 for a negative lam, or nan
    with pytest.raises(ValueError, match=r"sharpness must lie in \(0, 1\], got "):
        bloch_shrink_factor(lam)


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


def test_joint_probability_rejects_a_matrix_that_is_not_a_state():
    # the audit's default model is public, so it checks its state as the
    # channel does, instead of returning a table that is no distribution
    dirs = (XYZ, XYZ, XYZ)
    with pytest.raises(ValueError, match=r"state trace is 2\.0+, expected 1"):
        joint_probability(2 * build_state(GHZ), 0, 0.5, dirs)
    with pytest.raises(ValueError, match=r"state must be 8x8, got \(4, 4\)"):
        joint_probability(np.eye(4) / 4, 0, 0.5, dirs)


@pytest.mark.parametrize(
    "dirs, message",
    [
        ((XYZ, XYZ), r"three non-empty wing tuples, got lengths \[3, 3\]"),
        ((XYZ,) * 4, r"three non-empty wing tuples, got lengths \[3, 3, 3, 3\]"),
        ((XYZ, (X_DIR, "x"), XYZ), r"dirs must be of type BlochDirection, got 'x'"),
        ((XYZ, (), XYZ), r"three non-empty wing tuples, got lengths \[3, 0, 3\]"),
    ],
    ids=["two wings", "four wings", "a string entry", "an empty wing"],
)
def test_joint_probability_rejects_malformed_directions(dirs, message):
    # each used to fail deep inside with an error that named nothing:
    # IndexError, a reshape ValueError or an AttributeError
    with pytest.raises(ValueError, match=message):
        joint_probability(build_state(GHZ), 0, 0.5, dirs)


def test_joint_probability_takes_a_wing_of_any_iterable():
    # each wing is made a tuple once, so an iterator or a generator is
    # read whole, not spent by the length check, and gives the tuple's bits
    rho = random_mixed_state(np.random.default_rng(38))
    want = joint_probability(rho, 0, 0.5, (XYZ, XYZ, XYZ))
    for dirs in (
        (iter(XYZ), XYZ, XYZ),
        (XYZ, XYZ, (d for d in XYZ)),
        (wing for wing in (XYZ, iter(XYZ), XYZ)),
    ):
        assert joint_probability(rho, 0, 0.5, dirs).tobytes() == want.tobytes()
    # a wing that is not iterable is named by its index, not as dirs
    with pytest.raises(ValueError, match="^wing 0's directions must be iterable, got None$"):
        joint_probability(rho, 0, 0.5, (None, XYZ, XYZ))
    with pytest.raises(ValueError, match="^wing 2's directions must be iterable, got 0$"):
        joint_probability(rho, 0, 0.5, (XYZ, XYZ, 0))


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
                expected = float(np.trace(rho @ reference_spread_tensor3(*mats)).real)
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


def test_outcome_table_places_each_factor_on_its_wing():
    # the unsharp effect on the sequential wing, the projectors on the
    # others, each along its own wing's direction
    rng = np.random.default_rng(37)
    d0, d1, d2 = (random_direction(rng) for _ in range(3))
    rhos = np.array([random_mixed_state(rng) for _ in range(5)])
    ops = [
        reference_spread_tensor3(
            projector(d0, a), projector(d1, b), reference_effect(d2, 0.3, c)
        )
        for a, b, c in OUTCOMES
    ]
    table = direction_outcome_table(rhos, 2, 0.3, ((d0,), (d1,), (d2,)), (0, 0, 0))
    assert table.tobytes() == reference_outcome_table(rhos, ops).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=lams,
    count=st.integers(min_value=1, max_value=20),
)
def test_each_row_of_an_outcome_table_is_the_per_outcome_operator(seed, seq_wing, lam, count):
    rng = np.random.default_rng(seed)
    dirs = tuple(random_direction(rng) for _ in range(3))
    rhos = np.array([random_mixed_state(rng) for _ in range(count)])
    table = direction_outcome_table(rhos, seq_wing, lam, [(d,) for d in dirs], (0, 0, 0))
    assert table.shape == (8, count)
    assert table.dtype == np.float64
    assert OUTCOMES == tuple(product((1, -1), repeat=3))
    ops = [reference_joint_operator(seq_wing, lam, dirs, outcomes) for outcomes in OUTCOMES]
    assert table.tobytes() == reference_outcome_table(rhos, ops).tobytes()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    seq_wing=st.integers(min_value=0, max_value=2),
    sizes=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3),
    lam=lams,
)
def test_each_cell_of_the_grid_table_is_the_single_setting_table(seed, seq_wing, sizes, lam):
    # each wing's tuple of directions gives one leading axis, in wing
    # order, and each cell is the table of its own directions alone
    rng = np.random.default_rng(seed)
    dirs = tuple(tuple(random_direction(rng) for _ in range(k)) for k in sizes)
    rhos = np.array([random_mixed_state(rng) for _ in range(3)])
    grid = direction_outcome_table(rhos, seq_wing, lam, dirs, np.ix_(*(range(k) for k in sizes)))
    assert grid.shape == sizes + (8, 3)
    for i, j, k in product(*(range(k) for k in sizes)):
        alone = ((dirs[0][i],), (dirs[1][j],), (dirs[2][k],))
        want = direction_outcome_table(rhos, seq_wing, lam, alone, (0, 0, 0))
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
    seq_wing = int(rng.integers(3))
    ops = reference_joint_grid(seq_wing, 0.7, dirs)[0, 0, 0]
    table = direction_outcome_table(stack, seq_wing, 0.7, dirs, (0, 0, 0))
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
    # product per operator, for every grid cell
    rng = np.random.default_rng(seed)
    rhos = np.array([random_mixed_state(rng) for _ in range(count)])
    dirs = [tuple(random_direction(rng) for _ in range(k)) for k in sizes]
    seq_wing, lam = int(rng.integers(3)), float(rng.uniform(0.05, 1.0))
    dirs = (*dirs, (random_direction(rng),))
    table = direction_outcome_table(rhos, seq_wing, lam, dirs, (*np.ix_(*map(range, sizes)), 0))
    assert table.shape == sizes + (8, count)
    grid = reference_joint_grid(seq_wing, lam, dirs)[:, :, 0]
    for idx in np.ndindex(*sizes):
        assert table[idx].tobytes() == reference_outcome_table(rhos, grid[idx]).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cell_count=st.integers(min_value=1, max_value=8),
    count=st.integers(min_value=1, max_value=300),
)
@example(seed=61, cell_count=1, count=1)
@example(seed=61, cell_count=8, count=1)
@example(seed=61, cell_count=1, count=9)
@example(seed=61, cell_count=8, count=9)
def test_the_diagonal_only_table_is_the_wide_product_bit_for_bit(seed, cell_count, count):
    # forming only the diagonals keeps the bits of the full product, for
    # 8 to 64 operators and for state counts that are not multiples of
    # 8; the examples run the fewest and the most operators with a
    # padded and an unpadded state count on every pass
    rng = np.random.default_rng(seed)
    rhos = np.array([random_mixed_state(rng) for _ in range(count)])
    dirs = tuple(tuple(random_direction(rng) for _ in range(rng.integers(1, 4))) for _ in range(3))
    cells = tuple(rng.integers(len(d), size=cell_count) for d in dirs)
    seq_wing, lam = int(rng.integers(3)), float(rng.uniform(0.05, 1.0))
    table = direction_outcome_table(rhos, seq_wing, lam, dirs, cells)
    assert table.shape == (cell_count, 8, count)
    ops = reference_joint_grid(seq_wing, lam, dirs)[cells]
    assert table.tobytes() == reference_wide_outcome_table(rhos, ops).tobytes()


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
    grid = reference_joint_grid(seq_wing, triple.lam, wing_dirs)
    want = (grid.reshape(216, 8, 8) @ rho).trace(axis1=1, axis2=2).real
    got = joint_probability(rho, seq_wing, triple.lam, wing_dirs)
    assert got.shape == (3, 3, 3, 8)
    assert got.reshape(-1).tobytes() == want.tobytes()
    dirs = [(random_direction(rng),) for _ in range(3)]
    ops = reference_joint_grid(seq_wing, triple.lam, dirs)[0, 0, 0]
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
    signs = outcome_signs([wings, wings[::-1]])
    assert [repr(x) for x in table_correlation([table] * 2, signs)] == [want] * 2


@pytest.mark.parametrize("wings", [()] + WING_SUBSETS)
def test_the_signed_reduction_of_one_state_is_the_eight_row_loop_bit_for_bit(wings):
    # with one state, a pairwise sum over the outcomes gives other bits
    rng = np.random.default_rng(59)
    for _ in range(200):
        table = _spread_table(rng, 1)
        want = repr(reference_table_correlation(table, wings))
        assert repr(table_correlation([table], outcome_signs([wings]))[0]) == want


def test_the_branch_totals_are_added_left_to_right_from_zero():
    # a compensated sum, as builtin sum is from Python 3.12 on, gives 1.0
    table = np.zeros((8, 3))
    table[0] = [1e16, 1.0, -1e16]
    assert table_correlation([table] * 7, outcome_signs(WING_SUBSETS)) == [0.0] * 7


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=1, max_value=216),
    wings=st.lists(st.sampled_from([()] + WING_SUBSETS), min_size=1, max_size=10),
    zeros=st.booleans(),
    nan=st.booleans(),
)
def test_the_one_signed_reduction_is_the_per_term_loop_bit_for_bit(seed, count, wings, zeros, nan):
    # every term's table signed and summed in one stacked reduction gives
    # the bits of one call per term, a NaN and a sum of -0.0 totals too
    rng = np.random.default_rng(seed)
    tables = np.array([_spread_table(rng, count) for _ in wings])
    if zeros:
        # each of the first term's signed outcomes, so each state's total, is -0.0
        signs = np.array([math.prod(o[w] for w in wings[0]) for o in OUTCOMES], dtype=float)
        tables[0] = -0.0 * signs[:, None]
    if nan:
        tables[rng.integers(len(wings)), rng.integers(8), rng.integers(count)] = np.nan
    want = [repr(x) for x in reference_term_correlations(tables, wings)]
    assert [repr(x) for x in table_correlation(tables, outcome_signs(wings))] == want


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.sampled_from([1, 6, 36, 216]),
    wings=st.lists(st.sampled_from([()] + WING_SUBSETS), min_size=1, max_size=10),
    zeros=st.booleans(),
    nan=st.booleans(),
)
def test_the_whole_array_adds_are_the_outcome_cumsum_bit_for_bit(seed, count, wings, zeros, nan):
    # seven adds of whole arrays in OUTCOMES order give the bits of the
    # ordered cumsum along the strided outcome axis, at the oracle's branch
    # counts, for totals of -0.0 and a NaN too
    rng = np.random.default_rng(seed)
    tables = np.array([_spread_table(rng, count) for _ in wings])
    signs = outcome_signs(wings)
    if zeros:
        tables[0] = -0.0 * signs[0]
    if nan:
        tables[rng.integers(len(wings)), rng.integers(8), rng.integers(count)] = np.nan
    want = [repr(x) for x in reference_cumsum_table_correlation(tables, signs)]
    assert [repr(x) for x in table_correlation(tables, signs)] == want


# Bloch angles with the signed zeros and exact axes among them: -0.0
# gives a unit vector, and so projectors, with zeros of the other sign
_signed_angles = st.tuples(
    st.one_of(st.floats(0.0, np.pi), st.sampled_from([0.0, -0.0, np.pi / 2, np.pi])),
    st.one_of(st.floats(0.0, 2 * np.pi), st.sampled_from([0.0, -0.0, np.pi, 3 * np.pi / 2])),
)


@settings(max_examples=80, deadline=None)
@given(
    angles=st.tuples(*[st.lists(_signed_angles, min_size=1, max_size=3)] * 3),
    seq_wing=st.integers(min_value=0, max_value=2),
    lam=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    picks=st.none() | st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=1, max_size=27),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_factor_stack_build_is_the_nested_list_grid_bit_for_bit(
    angles, seq_wing, lam, picks, seed
):
    # the full grid (picks None) or any list of cells, repeats included,
    # has the bits of the tables of the same cells of the grid built one
    # effect or projector per direction and outcome
    dirs = tuple(tuple(BlochDirection(*a) for a in wing) for wing in angles)
    if picks is None:
        cells = np.ix_(*(range(len(d)) for d in dirs))
    else:
        cells = tuple(np.array([c[w] % len(dirs[w]) for c in picks]) for w in range(3))
    rng = np.random.default_rng(seed)
    rhos = np.array([random_mixed_state(rng) for _ in range(rng.integers(1, 10))])
    got = direction_outcome_table(rhos, seq_wing, lam, dirs, cells)
    want = reference_wide_outcome_table(rhos, reference_joint_grid(seq_wing, lam, dirs)[cells])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
