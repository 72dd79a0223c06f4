"""Dense qubit and three-qubit linear algebra primitives.

Everything here is plain numpy on 2x2, 4x4 and 8x8 complex arrays. Wing
ordering is fixed throughout the package: index 0 is Alice, 1 is Bob,
2 is Charlie, and basis labels read |abc> in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def read_only(a):
    a.flags.writeable = False
    return a


# read-only, since every projector and effect is built from them
I2 = read_only(np.eye(2, dtype=complex))

_PAULI = {
    "X": read_only(np.array([[0, 1], [1, 0]], dtype=complex)),
    "Y": read_only(np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "Z": read_only(np.array([[1, 0], [0, -1]], dtype=complex)),
}


def _is_real(x):
    """Whether x is a real number, a Python or numpy int or float; a bool is not."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def resolve_wing(wing):
    """Check a wing index, the int 0 (Alice), 1 (Bob) or 2 (Charlie); a bool is not one."""
    if isinstance(wing, bool) or not isinstance(wing, (int, np.integer)) or wing not in (0, 1, 2):
        raise ValueError(f"unknown wing {wing!r}; expected 0, 1 or 2")
    return int(wing)


def require_type(name, cls, *values):
    """Raise ValueError naming the argument unless every value is a cls."""
    for value in values:
        if not isinstance(value, cls):
            raise ValueError(f"{name} must be of type {cls.__name__}, got {value!r}")


def require_iterable(name, value):
    """tuple(value); ValueError naming the argument unless value is iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {value!r}") from None


def require_sharpness(lam):
    """Raise ValueError unless lam is a real number in (0, 1]; a bool is not."""
    if not (_is_real(lam) and 0.0 < lam <= 1.0):
        raise ValueError(f"sharpness must lie in (0, 1], got {lam!r}")


@dataclass(frozen=True)
class BlochDirection:
    """A unit direction on the Bloch sphere, polar angle theta in [0, pi]
    and azimuth phi in [0, 2*pi], with its unit vector, its observable
    n.sigma and its projectors as read-only attributes."""

    theta: float
    phi: float

    def __post_init__(self):
        for name, top, span in (("theta", np.pi, "[0, pi]"), ("phi", 2 * np.pi, "[0, 2*pi]")):
            angle = getattr(self, name)
            angle = float(angle) if _is_real(angle) else angle
            if not (_is_real(angle) and 0.0 <= angle <= top + 1e-12):
                raise ValueError(f"{name} must lie in {span}, got {angle!r}")
            object.__setattr__(self, name, angle)

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
        return read_only(
            np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])
        )

    @cached_property
    def observable(self):
        """Spin component n.sigma, Hermitian with eigenvalues +1 and -1."""
        n = self.unit_vector
        return read_only(n[0] * _PAULI["X"] + n[1] * _PAULI["Y"] + n[2] * _PAULI["Z"])

    @cached_property
    def projectors(self):
        """The +1 and -1 projectors (I + a n.sigma)/2 as one (2, 2, 2) stack."""
        return read_only(np.array([(I2 + a * self.observable) / 2 for a in (1, -1)]))


X_DIR = BlochDirection(np.pi / 2, 0.0)
Y_DIR = BlochDirection(np.pi / 2, np.pi / 2)
Z_DIR = BlochDirection(0.0, 0.0)
XYZ = (X_DIR, Y_DIR, Z_DIR)


def projector_stack(directions):
    """The +1 and -1 projectors along each direction as one stack, shape
    (len(directions), 2, 2, 2): entry [i] is directions[i].projectors."""
    return np.array([d.projectors for d in directions])


# wing w's flat index 2*bit(r) + bit(c) into its 2x2 factor for each entry
# 8r + c of an 8x8 product in order, wing 0 the high bit of r and of c
_SPREAD = read_only(
    np.array([2 * (np.arange(64) >> 3 + s & 1) + (np.arange(64) >> s & 1) for s in (2, 1, 0)])
)


def spread(m, wing):
    """A 2x2 matrix m, or a stack of them (..., 2, 2), gathered over the
    64 entries of its 8x8 product at wing's place, shape (..., 64): the
    spread_product of a, b and c spread on wings 0, 1 and 2 is np.kron's
    a (x) b (x) c bit for bit, entry (ikm, jln) being (a_ij * b_kl) * c_mn."""
    if m.shape[-2:] != (2, 2):
        raise ValueError(f"a factor on wing {wing} must be 2x2 or a stack of 2x2, got {m.shape}")
    return m.reshape(m.shape[:-2] + (4,)).take(_SPREAD[resolve_wing(wing)], axis=-1)


# each wing's spreads, (3, 4, 64): row 0 is I2's and row 1 + a is the
# spread of n.sigma along axis a of XYZ, as BlochDirection.observable
# gives it, not the exact Pauli: the last bits of direction_coefficients
# depend on its cos(pi/2) terms. The Kraus stack and the term walk read
# their identity and sigma factors from it.
SIGMA_SPREADS = read_only(
    np.array([spread(np.array([I2, *(d.observable for d in XYZ)]), w) for w in (0, 1, 2)])
)


def spread_product(a, b, c):
    """(a * b) * c of spreads on wings 0, 1 and 2, as (..., 8, 8) products."""
    out = (a * b) * c
    return out.reshape(out.shape[:-1] + (8, 8))


def effect_sqrt(projectors, lam):
    """Square roots of the unsharp effects of a projector_stack, shape
    (..., 2, 2, 2), axis -3 the outcome +1, -1.

    The effect lam*P_a + (1-lam)*I/2 is diagonal in the measurement basis,
    so its root is sqrt((1+lam)/2)*P_a + sqrt((1-lam)/2)*P_(-a) in closed
    form, with P_a the projector onto outcome a; lam lies in (0, 1].
    """
    require_sharpness(lam)
    root_a, root_b = math.sqrt((1 + lam) / 2), math.sqrt((1 - lam) / 2)
    return root_a * projectors + root_b * projectors[..., ::-1, :, :]


def validate_density(rho, name="state"):
    """Check an 8x8 state for finite entries, Hermiticity, unit trace and
    positive semidefiniteness.

    Returns the matrix as a complex ndarray; raises ValueError with the
    offending property otherwise.
    """
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be an 8x8 array of numbers, got {rho!r}") from None
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
        raise ValueError(f"{name} trace is {tr.real:.12f}, expected 1")
    smallest = float(np.linalg.eigvalsh(rho)[0])
    if smallest < -PSD_TOL:
        raise ValueError(f"{name} is not positive semidefinite (eigenvalue {smallest:.3e})")
    return rho
