"""Dense qubit and three-qubit linear algebra primitives.

Everything here is plain numpy on 2x2, 4x4 and 8x8 complex arrays. Wing
ordering is fixed throughout the package: index 0 is Alice, 1 is Bob,
2 is Charlie, and basis labels read |abc> in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def _read_only(a):
    a.flags.writeable = False
    return a


# read-only, since every projector and effect is built from them
I2 = _read_only(np.eye(2, dtype=complex))

_PAULI = {
    "X": _read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": _read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def resolve_wing(wing):
    """Check a wing index: 0 (Alice), 1 (Bob) or 2 (Charlie)."""
    if wing not in (0, 1, 2):
        raise ValueError(f"unknown wing {wing!r}; expected 0, 1 or 2")
    return int(wing)


@dataclass(frozen=True)
class BlochDirection:
    """A unit direction on the Bloch sphere, polar angle theta in [0, pi]
    and azimuth phi in [0, 2*pi]."""

    theta: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", float(self.phi))
        if not 0.0 <= self.theta <= np.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi <= 2 * np.pi + 1e-12:
            raise ValueError(f"phi must lie in [0, 2*pi], got {self.phi}")

    # Each direction builds its unit vector, n.sigma and both projectors
    # once, on first use, into its own __dict__, so fields, eq, hash and
    # repr are untouched, and every later read returns the same read-only
    # array. A cache shared between equal directions would not do:
    # BlochDirection(0.0, 0.0) == BlochDirection(-0.0, 0.0), but their
    # unit vectors differ in the sign of zero.

    @cached_property
    def unit_vector(self):
        """Cartesian components (sin t cos p, sin t sin p, cos t)."""
        st = np.sin(self.theta)
        return _read_only(
            np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])
        )

    @cached_property
    def observable(self):
        """Spin component n.sigma, Hermitian with eigenvalues +1 and -1."""
        n = self.unit_vector
        return _read_only(n[0] * _PAULI["X"] + n[1] * _PAULI["Y"] + n[2] * _PAULI["Z"])

    @cached_property
    def _projectors(self):
        return {a: _read_only((I2 + a * self.observable) / 2) for a in (1, -1)}


X_DIR = BlochDirection(np.pi / 2, 0.0)
Y_DIR = BlochDirection(np.pi / 2, np.pi / 2)
Z_DIR = BlochDirection(0.0, 0.0)
XYZ = (X_DIR, Y_DIR, Z_DIR)


def projector(d: BlochDirection, outcome):
    """Projector (I + a n.sigma)/2 onto outcome a = +1 or -1 along d.

    Built once per direction and outcome: every call returns the same
    read-only array.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return d._projectors[outcome]


def tensor3(a, b, c):
    """Kronecker product a (x) b (x) c of three 2x2 matrices, wing order
    Alice (x) Bob (x) Charlie.

    Each factor may also be a stack of 2x2 matrices, shape (..., 2, 2);
    the stacks broadcast against each other and every 8x8 product is
    taken as if its three factors were passed alone.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    for name, m in (("a", a), ("b", b), ("c", c)):
        if m.shape[-2:] != (2, 2):
            raise ValueError(f"tensor3 factor {name} must be 2x2 or a stack of 2x2, got {m.shape}")
    # entry (ikm, jln) is (a_ij * b_kl) * c_mn, the products np.kron takes
    # in the same order, so the bits match kron(kron(a, b), c)
    out = (
        a[..., :, None, None, :, None, None]
        * b[..., None, :, None, None, :, None]
        * c[..., None, None, :, None, None, :]
    )
    return out.reshape(out.shape[:-6] + (8, 8))


def effect_sqrt(d: BlochDirection, lam, outcome):
    """Square root of the unsharp effect for outcome +1 or -1 along d.

    The effect lam*P_a + (1-lam)*I/2 is diagonal in the measurement basis,
    so its root is sqrt((1+lam)/2)*P_a + sqrt((1-lam)/2)*P_(-a) in closed
    form, with P_a the projector onto outcome a.

    Args:
        d: measurement direction.
        lam: sharpness in (0, 1].
        outcome: +1 or -1.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {lam}")
    root_a, root_b = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    return root_a * projector(d, outcome) + root_b * projector(d, -outcome)


def validate_density(rho, name="state"):
    """Check an 8x8 state for finite entries, Hermiticity, unit trace and
    positive semidefiniteness.

    Returns the matrix as a complex ndarray; raises ValueError with the
    offending property otherwise.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (8, 8):
        raise ValueError(f"{name} must be 8x8, got {rho.shape}")
    # every comparison with NaN is false, so the checks below cannot see one
    if not np.isfinite(rho).all():
        raise ValueError(f"{name} has a non-finite entry (NaN or inf)")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian (max deviation {herm:.3e})")
    tr = rho.trace()
    if abs(tr - 1) > TRACE_TOL:
        raise ValueError(f"{name} trace is {tr:.12f}, expected 1")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -PSD_TOL:
        raise ValueError(f"{name} is not positive semidefinite (eigenvalue {smallest:.3e})")
    return rho
