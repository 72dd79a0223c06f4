"""Unsharp measurements on one wing of a three-qubit state.

A sharpness parameter lam in (0, 1] interpolates between no measurement
and a projective one: the effects are E_a = lam*P_a + (1-lam)*I/2. The
post-measurement state follows the Lueders rule sqrt(E) rho sqrt(E), and
the state handed to the next observer on the same wing is the average of
that update over both outcomes and all three equally likely settings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .qop import (
    I2,
    XYZ,
    BlochDirection,
    effect_sqrt,
    projector,
    resolve_wing,
    tensor3,
    validate_density,
)


@dataclass(frozen=True)
class SettingTriple:
    """One observer's three settings: three BlochDirections, taken as a
    tuple, and the one sharpness lam in (0, 1] that all three share."""

    directions: tuple
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "directions", tuple(self.directions))
        if len(self.directions) != 3:
            raise ValueError(f"a triple needs three directions, got {len(self.directions)}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"sharpness must lie in (0, 1], got {self.lam}")

    @classmethod
    def from_directions(cls, directions, lam):
        """Same as SettingTriple(directions, lam)."""
        return cls(directions, lam)

    @classmethod
    def xyz(cls, lam=1.0):
        """The x, y, z triple used as every observer's default settings."""
        return cls(XYZ, lam)


def effect(d: BlochDirection, lam, outcome):
    """Unsharp effect lam*P_a + (1-lam)*I/2 for outcome a = +1 or -1
    along d, with lam in (0, 1]."""
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {lam}")
    return lam * projector(d, outcome) + (1 - lam) * I2 / 2


def luders_update(rho, wing, d: BlochDirection, lam, outcome):
    """Selective Lueders update on one wing: the unnormalized
    post-measurement state sqrt(E) rho sqrt(E), identity on the other
    wings. Its trace is the outcome probability Tr[rho E].

    rho may also be a stack of states, shape (..., 8, 8); each is
    updated as if passed alone."""
    mats = [I2, I2, I2]
    mats[resolve_wing(wing)] = effect_sqrt(d, lam, outcome)
    k = tensor3(*mats)
    return k @ rho @ k


def selective_updates(rho, wing, triple: SettingTriple):
    """The six luders_update results of one observer on rho, a state or
    a stack: one per (direction, outcome), in direction, then outcome
    (+1, -1) order."""
    return [
        luders_update(rho, wing, d, triple.lam, outcome)
        for d in triple.directions
        for outcome in (1, -1)
    ]


def averaged_channel(rho, wing, triple: SettingTriple):
    """Non-selective update averaged over the three settings.

    (1/3) sum over settings and outcomes of sqrt(E) rho sqrt(E). Trace
    preserving and completely positive; this is the state the next
    observer on the wing receives when settings are equally likely and
    neither outcomes nor settings are communicated.
    """
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for update in selective_updates(rho, wing, triple):
        out += update
    return validate_density(out / 3, name="channel output")


def bloch_shrink_factor(lam):
    """Factor (1 + 2*sqrt(1-lam^2))/3 by which the averaged channel with
    three mutually orthogonal settings scales every Bloch component of
    the measured qubit."""
    return (1 + 2 * np.sqrt(1 - lam * lam)) / 3


# every outcome triple (a, b, c) for wings 0, 1, 2, in the order of the
# rows of joint_operators
OUTCOMES = tuple(product((1, -1), repeat=3))

# wing w's factors for outcomes +1 and -1 lie along axis w of a 2x2x2
# grid of outcome triples
_GRID_SHAPES = ((2, 1, 1, 2, 2), (1, 2, 1, 2, 2), (1, 1, 2, 2, 2))


def joint_operators(seq_wing, seq_dir, lam, proj_dirs):
    """The (8, 8, 8) stack of the operators E (x) P (x) P of every
    outcome triple, one unsharp wing and two projective, row k for the
    triple OUTCOMES[k].

    Args:
        seq_wing: which wing carries the unsharp measurement.
        seq_dir, lam: that wing's BlochDirection and sharpness.
        proj_dirs: BlochDirections of the two projective wings, in
            ascending wing order.

    The factors are placed on their wings, and the stack is one tensor3
    product over a grid of outcome triples.
    """
    seq_wing = resolve_wing(seq_wing)
    factors = [[projector(d, a) for a in (1, -1)] for d in proj_dirs]
    factors.insert(seq_wing, [effect(seq_dir, lam, a) for a in (1, -1)])
    grid = [np.reshape(f, shape) for f, shape in zip(factors, _GRID_SHAPES)]
    return tensor3(*grid).reshape(8, 8, 8)


def joint_probability(rho, seq_wing, seq_dir, lam, proj_dirs, outcomes):
    """Probability Tr[(E (x) P (x) P) rho] of the outcome triple (a, b, c)
    for wings 0, 1, 2, each +1 or -1, on the 8x8 state rho: its row of
    joint_operators, which takes the other arguments, traced against rho."""
    key = tuple(outcomes)
    if key not in OUTCOMES:
        raise ValueError(f"outcomes must be three of +1 or -1, got {outcomes}")
    op = joint_operators(seq_wing, seq_dir, lam, proj_dirs)[OUTCOMES.index(key)]
    return float((op @ rho).trace().real)


def correlation(rhos, seq_wing, seq_dir, lam, proj_dirs, wings):
    """Expectation of the product of the outcomes on wings, every other
    wing's outcome marginalized, summed over the states in rhos.

    Takes joint_operators' arguments, the unsharp wing's setting as
    (seq_dir, lam), with wings a tuple of wing indices; rhos is a
    sequence or an (n, 8, 8) stack of states. The eight outcome
    operators are built as one joint_operators stack, and each is traced
    against the whole state stack in one product; each state keeps its
    own running total over the outcomes, and the totals are summed in
    the order of rhos. A correlation that includes the unsharp wing is
    lam times the projective one, since the unsharp observable's moment
    operator is E(+) - E(-) = lam * n.sigma.
    """
    stack = np.asarray(rhos)
    totals = np.zeros(len(stack))
    ops = joint_operators(seq_wing, seq_dir, lam, proj_dirs)
    for op, outcomes in zip(ops, OUTCOMES):
        w = 1.0
        for wing in wings:
            w *= outcomes[wing]
        totals += w * (op @ stack).trace(axis1=1, axis2=2).real
    return sum(totals.tolist())
