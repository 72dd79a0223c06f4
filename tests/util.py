"""Shared helpers and frozen reference values for the test suite.

The numeric constants below were produced by an independent scratch
implementation (plain matrix algebra, no package imports) and are kept
frozen here so regressions in the package cannot silently re-derive
them.
"""

import numpy as np

from seqsteer import GHZ, W, InequalityKind, Scenario

# ladder of minimal sharpness values per observer, bisection tolerance
# 1e-4, upper bracket endpoint reported, predecessors pinned at their
# reported value plus the tolerance; None marks the row where even a
# projective measurement stops violating
FROZEN_LADDERS = {
    ("ghz", "A", "g1"): (0.577393, 0.657898, 0.787598, None),
    ("ghz", "A", "g2"): (0.584412, 0.668518, 0.806335, None),
    ("ghz", "B", "g1"): (0.440979, 0.473328, 0.514160, 0.568054, 0.644104, 0.763855, None),
    ("ghz", "B", "g2"): (0.584412, 0.668518, 0.806335, None),
    ("w", "A", "w1"): (0.588379, 0.674500, 0.817139, None),
    ("w", "A", "w2"): (0.677673, 0.822876, None),
    ("w", "B", "w1"): (0.521667, 0.578308, 0.659302, 0.790039, None),
    ("w", "B", "w2"): (0.634216, 0.747253, 0.962646, None),
}

# single projective observer on the published settings
FROZEN_PURE_VALUES = {
    ("ghz", "g1"): -0.8453,
    ("ghz", "g2"): -0.581,
    ("w", "w1"): -0.7595,
    ("w", "w2"): -0.48037,
}

# the same four functionals on the product state |000>
FROZEN_PRODUCT_STATE_VALUES = {
    "g1": 0.488,
    "g2": 0.451,
    "w1": 2.7317,
    "w2": 2.5651,
}

# worked chains: (scenario, lambdas) -> per-observer values
FROZEN_CHAINS = {
    ("A", (0.627, 1.0)): (-0.0993, -0.550659),
    ("A", (0.627, 0.736, 1.0)): (-0.0993, -0.100444, -0.183417),
    ("B", (0.507, 1.0)): (-0.0999, -0.706140),
    ("B", (0.507, 0.558, 1.0)): (-0.0999, -0.099364, -0.550410),
}

TABLE_CASES = [
    (GHZ, Scenario.A, InequalityKind.G1),
    (GHZ, Scenario.A, InequalityKind.G2),
    (GHZ, Scenario.B, InequalityKind.G1),
    (GHZ, Scenario.B, InequalityKind.G2),
    (W, Scenario.A, InequalityKind.W1),
    (W, Scenario.A, InequalityKind.W2),
    (W, Scenario.B, InequalityKind.W1),
    (W, Scenario.B, InequalityKind.W2),
]


def table_key(state, scenario, inequality):
    return (state.kind.value, scenario.value, inequality.value)


def random_pure_state(rng, dim=8):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_mixed_state(rng, dim=8):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


def random_direction(rng):
    from seqsteer import BlochDirection

    return BlochDirection(
        theta=float(rng.uniform(0.0, np.pi)),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def random_triple(rng, lam):
    from seqsteer import SettingTriple

    dirs = tuple(random_direction(rng) for _ in range(3))
    return SettingTriple.from_directions(dirs, lam)


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis):
    """Return the 2x2 Pauli matrix for axis 'X', 'Y' or 'Z'."""
    key = str(axis).upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of X, Y, Z")
    return _PAULI[key].copy()


def partial_trace(rho, keep):
    """Reduce an 8x8 state to the single kept wing's 2x2 state."""
    if np.shape(rho) != (8, 8):
        raise ValueError(f"partial_trace expects an 8x8 matrix, got {np.shape(rho)}")
    t = np.asarray(rho).reshape(2, 2, 2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ijkljk->il", t)
    if keep == 1:
        return np.einsum("ijkimk->jm", t)
    return np.einsum("ijkijn->kn", t)


def bloch_vector(rho2):
    """Cartesian Bloch components of a single-qubit state."""
    return np.array(
        [float(np.trace(rho2 @ pauli(ax)).real) for ax in ("x", "y", "z")]
    )


def save_state_file(path, rho):
    """Write a density matrix in the format understood by load_state_file."""
    from seqsteer.qop import validate_density

    rho = validate_density(rho, name="state")
    with open(path, "w") as fh:
        for row in rho:
            fh.write(" ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")
