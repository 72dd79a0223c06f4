import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqsteer import (
    BlochDirection,
    X_DIR,
    Y_DIR,
    Z_DIR,
    direction_observable,
    effect_sqrt,
    tensor3,
)
from util import partial_trace, pauli, random_mixed_state, random_pure_state

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
    assert np.allclose(direction_observable(X_DIR), pauli("x"))
    assert np.allclose(direction_observable(Y_DIR), pauli("y"))
    assert np.allclose(direction_observable(Z_DIR), pauli("z"))


@given(angles)
def test_direction_observable_is_a_spin_component(angle):
    d = BlochDirection(*angle)
    obs = direction_observable(d)
    assert np.allclose(obs, obs.conj().T)
    # eigenvalues of n.sigma are exactly +1 and -1
    evals = np.sort(np.linalg.eigvalsh(obs))
    assert np.allclose(evals, [-1.0, 1.0], atol=1e-12)


def test_direction_angle_ranges_validated():
    with pytest.raises(ValueError, match="theta"):
        BlochDirection(-0.2, 0.0)
    with pytest.raises(ValueError, match="phi"):
        BlochDirection(1.0, 7.0)


def test_tensor3_matches_explicit_kron():
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor3(a, b, c), np.kron(np.kron(a, b), c))


def test_tensor3_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        tensor3(np.eye(2), np.eye(4), np.eye(2))


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
    obs = direction_observable(d)
    proj = (np.eye(2) + outcome * obs) / 2
    target = lam * proj + (1 - lam) * np.eye(2) / 2
    root = effect_sqrt(d, lam, outcome)
    assert np.allclose(root @ root, target, atol=1e-12)
    assert np.allclose(root, root.conj().T, atol=1e-12)


@given(angles, st.floats(min_value=1e-3, max_value=1.0))
@example(angle=(0.015625, 0.0), lam=1.0)
def test_effect_sqrt_agrees_with_eigendecomposition(angle, lam):
    d = BlochDirection(*angle)
    obs = direction_observable(d)
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
