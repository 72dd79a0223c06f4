import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsteer import (
    GHZ,
    BlochDirection,
    InequalityKind,
    Scenario,
    ScenarioSpec,
    SettingTriple,
    bloch_shrink_factor,
    build_state,
    direction_coefficients,
    joint_probability,
    no_signalling_audit,
    xyz_spec,
)
from seqsteer.measurement import effect
from seqsteer.qop import (
    I2,
    XYZ,
    X_DIR,
    Y_DIR,
    Z_DIR,
    _PAULI,
    effect_sqrt,
    projector_stack,
    spread,
    spread_product,
    validate_density,
)
from util import (
    partial_trace,
    pauli,
    projector,
    random_direction,
    random_mixed_state,
    random_pure_state,
    reference_np_sqrt_effect_sqrt,
    reference_tensor3,
)

angles = st.tuples(
    st.floats(min_value=0.0, max_value=np.pi),
    st.floats(min_value=0.0, max_value=2 * np.pi - 1e-9),
)


def test_pauli_algebra():
    x, y, z = pauli("x"), pauli("y"), pauli("z")
    assert np.allclose(x @ y, 1j * z)
    assert np.allclose(y @ z, 1j * x)
    assert np.allclose(z @ x, 1j * y)
    for s in (x, y, z):
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s, s.conj().T)
        assert abs(np.trace(s)) < 1e-15


def test_pauli_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        pauli("q")


def test_cardinal_directions_recover_paulis():
    assert np.allclose(X_DIR.observable, pauli("x"))
    assert np.allclose(Y_DIR.observable, pauli("y"))
    assert np.allclose(Z_DIR.observable, pauli("z"))


@given(angles)
def test_direction_observable_is_a_spin_component(angle):
    d = BlochDirection(*angle)
    obs = d.observable
    assert np.allclose(obs, obs.conj().T)
    # eigenvalues of n.sigma are exactly +1 and -1
    evals = np.sort(np.linalg.eigvalsh(obs))
    assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)


def test_direction_arrays_are_built_once_and_read_only():
    d = BlochDirection(0.7, 2.1)
    assert d.unit_vector is d.unit_vector
    assert d.observable is d.observable
    assert d.projectors is d.projectors
    for a in (d.unit_vector, d.observable, d.projectors):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_direction_attributes_cannot_be_rebound():
    # the cached arrays are attributes of a frozen direction, so neither
    # assigning nor deleting one can hand later reads another array
    d = BlochDirection(0.7, 2.1)
    for name in ("unit_vector", "observable", "projectors"):
        before = getattr(d, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, np.zeros_like(before))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(d, name)
        assert getattr(d, name) is before


def test_identity_and_paulis_are_read_only():
    # every projector and effect is built from them, so a write would
    # change the physics of every direction built after it
    before = projector(BlochDirection(0.3, 0.2), 1).tobytes()
    for a in (I2, *_PAULI.values()):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 2
    assert projector(BlochDirection(0.3, 0.2), 1).tobytes() == before
    assert I2.tobytes() == np.eye(2, dtype=complex).tobytes()
    for axis, m in _PAULI.items():
        assert m.tobytes() == pauli(axis).tobytes()


def test_equal_directions_keep_their_own_signed_zeros():
    # equal directions that hash alike may still differ in their bits,
    # so no direction may be handed another one's arrays
    plus, minus = BlochDirection(0.0, 0.0), BlochDirection(-0.0, 0.0)
    assert plus == minus and hash(plus) == hash(minus)
    assert not np.signbit(plus.unit_vector[:2]).any()
    plus.observable
    assert np.signbit(minus.unit_vector[:2]).all()
    assert np.signbit(minus.theta)
    assert plus == minus


def test_direction_eq_hash_and_repr_ignore_the_cache():
    fresh, used = BlochDirection(1.1, 0.4), BlochDirection(1.1, 0.4)
    before = (hash(used), repr(used))
    used.observable
    used.projectors
    assert used == fresh and fresh == used
    assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))


def test_validate_density_rejects_an_asymmetric_matrix():
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"^state is not Hermitian \(max deviation 1\.000e-06\)$"):
        validate_density(rho)


@pytest.mark.parametrize("rho", ["x", object(), [[1.0], [1.0, 2.0]]], ids=["str", "object", "ragged"])
def test_validate_density_rejects_what_is_not_an_array_of_numbers(rho):
    # numpy's own ValueError for a string or a ragged list, and its
    # TypeError for an object, used to leave the function unnamed
    message = f"state must be an 8x8 array of numbers, got {rho!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_density(rho)


def test_direction_angle_ranges_validated():
    with pytest.raises(ValueError, match="theta"):
        BlochDirection(-0.2, 0.0)
    with pytest.raises(ValueError, match="phi"):
        BlochDirection(1.0, 7.0)


@pytest.mark.parametrize("angle", ["1", True, None])
def test_an_angle_that_is_not_a_real_number_is_rejected(angle):
    # a string, a bool or None is no angle, even where float() reads it,
    # and the message shows it by repr: "1" is not the number 1
    message = f"must lie in [0, pi], got {angle!r}"
    with pytest.raises(ValueError, match=f"^theta {re.escape(message)}$"):
        BlochDirection(angle, 0.0)
    message = f"must lie in [0, 2*pi], got {angle!r}"
    with pytest.raises(ValueError, match=f"^phi {re.escape(message)}$"):
        BlochDirection(1.0, angle)


def kron3(a, b, c):
    """The spread_product of a, b and c spread on wings 0, 1 and 2."""
    return spread_product(spread(a, 0), spread(b, 1), spread(c, 2))


def test_the_product_of_three_spreads_matches_explicit_kron():
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(kron3(a, b, c), np.kron(np.kron(a, b), c))


def test_the_product_of_three_spreads_is_kron_bit_for_bit():
    # the product must take kron's products in kron's order, (a * b) * c,
    # so every bit and the dtype match, for any entries and dtype
    rng = np.random.default_rng(29)
    triples = [
        tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        for _ in range(200)
    ]
    factors = [I2, *(d.observable for d in XYZ)]
    for _ in range(4):
        pair = projector_stack((random_direction(rng),))[0]
        lam = float(rng.uniform(0.05, 1.0))
        factors += [*pair, *effect(pair, lam), *effect_sqrt(pair, lam)]
    triples += [
        tuple(factors[int(i)] for i in rng.integers(len(factors), size=3))
        for _ in range(300)
    ]
    # signed zeros, infinities, nan and the smallest subnormal, in real and
    # complex entries, and inputs that are not complex128
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.0, -2.5]
    for dtype in (np.float64, np.complex128, np.float32, np.complex64):
        for _ in range(200):
            re, im = rng.choice(specials, size=(2, 3, 2, 2))
            z = re.astype(dtype)
            if z.dtype.kind == "c":
                z.imag = im
            triples.append(tuple(z))
    triples += [tuple(rng.integers(-9, 10, size=(3, 2, 2))) for _ in range(100)]
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf give nan
        for a, b, c in triples:
            got, want = kron3(a, b, c), np.kron(np.kron(a, b), c)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


# leading stack shape of each factor, drawn so that the three broadcast
_lead = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=3)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lead=_lead,
    masks=st.tuples(*[st.lists(st.booleans(), min_size=3, max_size=3)] * 3),
    drops=st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
)
def test_the_product_of_three_stacked_spreads_is_kron_bit_for_bit(seed, lead, masks, drops):
    # each factor keeps the trailing dims of the common leading shape,
    # with some of them broadcast as 1; every 8x8 product must be the
    # kron of its three 2x2 factors, bit for bit
    rng = np.random.default_rng(seed)
    shapes = [
        tuple(1 if keep else n for n, keep in zip(lead, mask))[min(drop, len(lead)):]
        for mask, drop in zip(masks, drops)
    ]
    factors = [rng.normal(size=s + (2, 2)) + 1j * rng.normal(size=s + (2, 2)) for s in shapes]
    got = kron3(*factors)
    full = np.broadcast_shapes(*shapes)
    assert got.shape == full + (8, 8)
    assert got.tobytes() == reference_tensor3(*factors).tobytes()
    wide = [np.broadcast_to(f, full + (2, 2)) for f in factors]
    for idx in np.ndindex(*full):
        want = np.kron(np.kron(wide[0][idx], wide[1][idx]), wide[2][idx])
        assert got[idx].dtype == want.dtype
        assert got[idx].tobytes() == want.tobytes()


def test_spread_rejects_wrong_shapes():
    with pytest.raises(ValueError, match=re.escape("wing 1 must be 2x2 or a stack of 2x2, got (4, 4)")):
        kron3(np.eye(2), np.eye(4), np.eye(2))
    with pytest.raises(ValueError, match=re.escape("wing 2 must be 2x2 or a stack of 2x2, got (3, 2, 3)")):
        spread(np.ones((3, 2, 3)), 2)
    # a bool, a negative or a float wing used to index the gather table
    # silently, as wing 1 with an extra axis, wing 2 or an IndexError
    for wing in (True, -1, 3, 1.0):
        with pytest.raises(ValueError, match=f"^unknown wing {re.escape(repr(wing))}; expected 0, 1 or 2$"):
            spread(I2, wing)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    singles = [random_mixed_state(rng, dim=2) for _ in range(3)]
    rho = kron3(*singles)
    for wing in range(3):
        reduced = partial_trace(rho, wing)
        assert np.allclose(reduced, singles[wing], atol=1e-12)


def test_partial_trace_is_trace_preserving():
    rng = np.random.default_rng(13)
    rho = random_pure_state(rng)
    for wing in range(3):
        assert abs(np.trace(partial_trace(rho, wing)) - 1.0) < 1e-12


@settings(max_examples=60)
@given(angles, st.floats(min_value=1e-3, max_value=1.0))
def test_effect_sqrt_squares_to_the_effect(angle, lam):
    d = BlochDirection(*angle)
    roots = effect_sqrt(projector_stack((d,)), lam)[0]
    for root, outcome in zip(roots, (1, -1)):
        proj = (np.eye(2) + outcome * d.observable) / 2
        target = lam * proj + (1 - lam) * np.eye(2) / 2
        assert np.allclose(root @ root, target, atol=1e-12)
        assert np.allclose(root, root.conj().T, atol=1e-12)


def test_a_projector_stack_holds_each_directions_plus_and_minus_projector():
    rng = np.random.default_rng(31)
    dirs = [random_direction(rng) for _ in range(4)]
    stack = projector_stack(dirs)
    assert stack.shape == (4, 2, 2, 2)
    for pair, d in zip(stack, dirs):
        for p, outcome in zip(pair, (1, -1)):
            assert p.tobytes() == projector(d, outcome).tobytes()


@given(angles, st.floats(min_value=1e-3, max_value=1.0))
@example(angle=(0.015625, 0.0), lam=1.0)
def test_effect_sqrt_agrees_with_eigendecomposition(angle, lam):
    d = BlochDirection(*angle)
    obs = d.observable
    proj = (np.eye(2) + obs) / 2
    target = lam * proj + (1 - lam) * np.eye(2) / 2
    # eigh's eigenvectors with the exact eigenvalues, in its ascending
    # order: the square root of a round-off eigenvalue near zero would
    # be off by far more than the tolerance
    _, u = np.linalg.eigh(target)
    w = np.array([(1 - lam) / 2, (1 + lam) / 2])
    reference = u @ np.diag(np.sqrt(w)) @ u.conj().T
    assert np.allclose(effect_sqrt(projector_stack((d,)), lam)[0, 0], reference, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    observers=st.lists(st.lists(angles, min_size=3, max_size=3), min_size=1, max_size=4),
    lam=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
    numpy_scalar=st.booleans(),
)
def test_the_math_roots_are_the_numpy_roots_bit_for_bit(observers, lam, numpy_scalar):
    # math.sqrt and np.sqrt both round the root of a double correctly, so
    # the roots, and every Kraus operator of 1-4 observers' settings, keep
    # their bits, for a Python float and a numpy float64 sharpness alike
    stack = np.array([projector_stack([BlochDirection(*a) for a in o]) for o in observers])
    lam = np.float64(lam) if numpy_scalar else lam
    got, want = effect_sqrt(stack, lam), reference_np_sqrt_effect_sqrt(stack, lam)
    assert got.shape == want.shape == (len(observers), 3, 2, 2, 2)
    assert got.tobytes() == want.tobytes()


def test_effect_sqrt_validates_inputs():
    for lam in (0.0, 1.2, -0.5, float("nan")):
        with pytest.raises(ValueError, match="sharpness"):
            effect_sqrt(projector_stack((Z_DIR,)), lam)


# every public entry that takes a sharpness, each given a valid rest
_SHARPNESS_TAKERS = {
    "SettingTriple": lambda lam: SettingTriple(XYZ, lam),
    "SettingTriple.xyz": SettingTriple.xyz,
    "effect": lambda lam: effect(projector_stack(XYZ), lam),
    "effect_sqrt": lambda lam: effect_sqrt(projector_stack(XYZ), lam),
    "bloch_shrink_factor": bloch_shrink_factor,
    "direction_coefficients": lambda lam: direction_coefficients(
        build_state(GHZ), Scenario.A, InequalityKind.G1, lam
    ),
    "joint_probability": lambda lam: joint_probability(build_state(GHZ), 0, lam, (XYZ,) * 3),
}


@pytest.mark.parametrize("lam", ["0.5", None, True, np.True_, 1.5], ids=repr)
@pytest.mark.parametrize("taker", sorted(_SHARPNESS_TAKERS))
def test_every_sharpness_meets_the_one_rule(taker, lam):
    # a string or None used to raise TypeError from the comparison, and
    # True or np.True_ passed as sharpness 1
    message = f"sharpness must lie in (0, 1], got {lam!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SHARPNESS_TAKERS[taker](lam)


# each public entry that used to raise TypeError on an argument that is
# not iterable, or on a model that is not callable, with the message it
# gives now
_WRONG_KIND = {
    "SettingTriple-None": (lambda: SettingTriple(None, 0.5), "directions must be iterable, got None"),
    "SettingTriple-3": (lambda: SettingTriple(3, 0.5), "directions must be iterable, got 3"),
    "ScenarioSpec-None": (
        lambda: ScenarioSpec(Scenario.A, InequalityKind.G1, GHZ, observers=None),
        "observers must be iterable, got None",
    ),
    "xyz_spec-None": (
        lambda: xyz_spec(Scenario.A, InequalityKind.G1, GHZ, None),
        "lambdas must be iterable, got None",
    ),
    "joint_probability-None": (
        lambda: joint_probability(build_state(GHZ), 0, 0.5, None),
        "dirs must be iterable, got None",
    ),
    "joint_probability-wing-None": (
        lambda: joint_probability(build_state(GHZ), 0, 0.5, (XYZ, None, XYZ)),
        "wing 1's directions must be iterable, got None",
    ),
    "no_signalling_audit-3": (
        lambda: no_signalling_audit(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (1.0,)), 3),
        "prob_fn must be callable, got 3",
    ),
    # a falsy model used to stand for the default one
    "no_signalling_audit-0": (
        lambda: no_signalling_audit(xyz_spec(Scenario.A, InequalityKind.G1, GHZ, (1.0,)), 0),
        "prob_fn must be callable, got 0",
    ),
}


@pytest.mark.parametrize("case", sorted(_WRONG_KIND))
def test_a_value_that_is_not_iterable_or_callable_is_a_value_error(case):
    call, message = _WRONG_KIND[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
