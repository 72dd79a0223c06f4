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
    wings. Its trace is the outcome probability Tr[rho E]."""
    mats = [I2, I2, I2]
    mats[resolve_wing(wing)] = effect_sqrt(d, lam, outcome)
    k = tensor3(*mats)
    return k @ rho @ k


def averaged_channel(rho, wing, triple: SettingTriple):
    """Non-selective update averaged over the three settings.

    (1/3) sum over settings and outcomes of sqrt(E) rho sqrt(E). Trace
    preserving and completely positive; this is the state the next
    observer on the wing receives when settings are equally likely and
    neither outcomes nor settings are communicated.
    """
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for d in triple.directions:
        for outcome in (1, -1):
            out += luders_update(rho, wing, d, triple.lam, outcome)
    return validate_density(out / 3, name="channel output")


def bloch_shrink_factor(lam):
    """Factor (1 + 2*sqrt(1-lam^2))/3 by which the averaged channel with
    three mutually orthogonal settings scales every Bloch component of
    the measured qubit."""
    return (1 + 2 * np.sqrt(1 - lam * lam)) / 3


def joint_operator(seq_wing, seq_dir, lam, proj_dirs, outcomes):
    """The 8x8 operator E (x) P (x) P of an outcome triple, one unsharp
    wing and two projective.

    Args:
        seq_wing: which wing carries the unsharp measurement.
        seq_dir, lam: that wing's BlochDirection and sharpness.
        proj_dirs: BlochDirections of the two projective wings, in
            ascending wing order.
        outcomes: (a, b, c) for wings 0, 1, 2, each +1 or -1.

    The factors are placed on their wings.
    """
    seq_wing = resolve_wing(seq_wing)
    others = [w for w in (0, 1, 2) if w != seq_wing]
    ops = [None, None, None]
    ops[seq_wing] = effect(seq_dir, lam, outcomes[seq_wing])
    for w, d in zip(others, proj_dirs):
        ops[w] = projector(d, outcomes[w])
    return tensor3(*ops)


def joint_probability(rho, seq_wing, seq_dir, lam, proj_dirs, outcomes):
    """Probability Tr[(E (x) P (x) P) rho] of an outcome triple on the
    8x8 state rho; the other arguments are joint_operator's."""
    op = joint_operator(seq_wing, seq_dir, lam, proj_dirs, outcomes)
    return float((op @ rho).trace().real)


def correlation(rhos, seq_wing, seq_dir, lam, proj_dirs, wings):
    """Expectation of the product of the outcomes on wings, every other
    wing's outcome marginalized, summed over the states in rhos.

    Takes joint_operator's arguments, the unsharp wing's setting as
    (seq_dir, lam), with wings a tuple of wing indices. Each outcome's
    operator is built once and traced against every state; each state
    keeps its own running total over the outcomes, and the totals are
    summed in the order of rhos. A
    correlation that includes the unsharp wing is lam times the
    projective one, since the unsharp observable's moment operator is
    E(+) - E(-) = lam * n.sigma.
    """
    totals = [0.0] * len(rhos)
    for outcomes in product((1, -1), repeat=3):
        w = 1.0
        for wing in wings:
            w *= outcomes[wing]
        op = joint_operator(seq_wing, seq_dir, lam, proj_dirs, outcomes)
        for i, rho in enumerate(rhos):
            totals[i] += w * float((op @ rho).trace().real)
    return sum(totals)
