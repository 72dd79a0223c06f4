import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsteer import BlochDirection
from seqsteer.cascade import _SIGMAS
from seqsteer.measurement import effect
from seqsteer.qop import (
    I2,
    X_DIR,
    Y_DIR,
    Z_DIR,
    _PAULI,
    effect_sqrt,
    projector,
    tensor3,
    validate_density,
)
from util import (
    partial_trace,
    pauli,
    random_direction,
    random_mixed_state,
    random_pure_state,
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
    assert projector(d, 1) is projector(d, 1)
    assert projector(d, -1) is projector(d, -1)
    for a in (d.unit_vector, d.observable, projector(d, 1), projector(d, -1)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_direction_attributes_cannot_be_rebound():
    # the cached arrays are attributes of a frozen direction, so neither
    # assigning nor deleting one can hand later reads another array
    d = BlochDirection(0.7, 2.1)
    for name in ("unit_vector", "observable"):
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
    projector(used, -1)
    assert used == fresh and fresh == used
    assert (hash(used), repr(used)) == before == (hash(fresh), repr(fresh))


def test_validate_density_rejects_an_asymmetric_matrix():
    rho = np.eye(8, dtype=complex) / 8
    rho[0, 1] = 1e-6
    with pytest.raises(ValueError, match=r"^state is not Hermitian \(max deviation 1\.000e-06\)$"):
        validate_density(rho)


def test_direction_angle_ranges_validated():
    with pytest.raises(ValueError, match="theta"):
        BlochDirection(-0.2, 0.0)
    with pytest.raises(ValueError, match="phi"):
        BlochDirection(1.0, 7.0)


def test_tensor3_matches_explicit_kron():
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor3(a, b, c), np.kron(np.kron(a, b), c))


def test_tensor3_is_kron_bit_for_bit():
    # the broadcast product must take kron's products in kron's order,
    # (a * b) * c, so every bit and the dtype match
    rng = np.random.default_rng(29)
    triples = [
        tuple(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        for _ in range(200)
    ]
    factors = [I2, *_SIGMAS]
    for _ in range(4):
        d = random_direction(rng)
        lam = float(rng.uniform(0.05, 1.0))
        for outcome in (1, -1):
            factors.append(projector(d, outcome))
            factors.append(effect(d, lam, outcome))
            factors.append(effect_sqrt(d, lam, outcome))
    triples += [
        tuple(factors[int(i)] for i in rng.integers(len(factors), size=3))
        for _ in range(300)
    ]
    for a, b, c in triples:
        got, want = tensor3(a, b, c), np.kron(np.kron(a, b), c)
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
def test_stacked_tensor3_is_kron_bit_for_bit(seed, lead, masks, drops):
    # each factor keeps the trailing dims of the common leading shape,
    # with some of them broadcast as 1; every 8x8 product must be the
    # kron of its three 2x2 factors, bit for bit
    rng = np.random.default_rng(seed)
    shapes = [
        tuple(1 if keep else n for n, keep in zip(lead, mask))[min(drop, len(lead)):]
        for mask, drop in zip(masks, drops)
    ]
    factors = [rng.normal(size=s + (2, 2)) + 1j * rng.normal(size=s + (2, 2)) for s in shapes]
    got = tensor3(*factors)
    full = np.broadcast_shapes(*shapes)
    assert got.shape == full + (8, 8)
    wide = [np.broadcast_to(f, full + (2, 2)) for f in factors]
    for idx in np.ndindex(*full):
        want = np.kron(np.kron(wide[0][idx], wide[1][idx]), wide[2][idx])
        assert got[idx].dtype == want.dtype
        assert got[idx].tobytes() == want.tobytes()


def test_tensor3_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        tensor3(np.eye(2), np.eye(4), np.eye(2))
    with pytest.raises(ValueError, match="factor c"):
        tensor3(np.eye(2), np.eye(2), np.ones((3, 2, 3)))


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(11)
    singles = [random_mixed_state(rng, dim=2) for _ in range(3)]
    rho = tensor3(*singles)
    for wing in range(3):
        reduced = partial_trace(rho, wing)
        assert np.allclose(reduced, singles[wing], atol=1e-12)


def test_partial_trace_is_trace_preserving():
    rng = np.random.default_rng(13)
    rho = random_pure_state(rng)
    for wing in range(3):
        assert abs(np.trace(partial_trace(rho, wing)) - 1.0) < 1e-12


@settings(max_examples=60)
@given(
    angles,
    st.floats(min_value=1e-3, max_value=1.0),
    st.sampled_from([1, -1]),
)
def test_effect_sqrt_squares_to_the_effect(angle, lam, outcome):
    d = BlochDirection(*angle)
    obs = d.observable
    proj = (np.eye(2) + outcome * obs) / 2
    target = lam * proj + (1 - lam) * np.eye(2) / 2
    root = effect_sqrt(d, lam, outcome)
    assert np.allclose(root @ root, target, atol=1e-12)
    assert np.allclose(root, root.conj().T, atol=1e-12)


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
    assert np.allclose(effect_sqrt(d, lam, 1), reference, atol=1e-12)


def test_effect_sqrt_validates_inputs():
    with pytest.raises(ValueError):
        effect_sqrt(Z_DIR, 0.0, 1)
    with pytest.raises(ValueError):
        effect_sqrt(Z_DIR, 1.2, 1)
    with pytest.raises(ValueError):
        effect_sqrt(Z_DIR, 0.5, 2)
