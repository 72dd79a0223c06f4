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
    BlochDirection,
    X_DIR,
    Y_DIR,
    Z_DIR,
    effect_sqrt,
    projector,
    resolve_wing,
    tensor3,
    validate_density,
)


@dataclass(frozen=True)
class UnsharpSetting:
    """A measurement direction with a sharpness lam in (0, 1]."""

    direction: BlochDirection
    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"sharpness must lie in (0, 1], got {self.lam}")


@dataclass(frozen=True)
class SettingTriple:
    """One observer's three settings, sharing a single sharpness."""

    s0: UnsharpSetting
    s1: UnsharpSetting
    s2: UnsharpSetting

    def __post_init__(self):
        lams = {self.s0.lam, self.s1.lam, self.s2.lam}
        if len(lams) != 1:
            raise ValueError(f"all three settings must share one sharpness, got {sorted(lams)}")

    @property
    def lam(self):
        return self.s0.lam

    @property
    def settings(self):
        return (self.s0, self.s1, self.s2)

    @property
    def directions(self):
        return (self.s0.direction, self.s1.direction, self.s2.direction)

    @classmethod
    def from_directions(cls, directions, lam):
        d0, d1, d2 = directions
        return cls(
            UnsharpSetting(d0, lam), UnsharpSetting(d1, lam), UnsharpSetting(d2, lam)
        )

    @classmethod
    def xyz(cls, lam=1.0):
        """The x, y, z triple used as every observer's default settings."""
        return cls.from_directions((X_DIR, Y_DIR, Z_DIR), lam)


def effect(setting: UnsharpSetting, outcome):
    """Unsharp effect lam*P_a + (1-lam)*I/2 for outcome a = +1 or -1."""
    proj = projector(setting.direction, outcome)
    return setting.lam * proj + (1 - setting.lam) * I2 / 2


def luders_update(rho, wing, setting: UnsharpSetting, outcome):
    """Selective Lueders update on one wing.

    Returns the unnormalized post-measurement state sqrt(E) rho sqrt(E)
    (identity on the other wings) and its trace, which is the outcome
    probability Tr[rho E].
    """
    mats = [I2, I2, I2]
    mats[resolve_wing(wing)] = effect_sqrt(setting.direction, setting.lam, outcome)
    k = tensor3(*mats)
    updated = k @ rho @ k
    return updated, float(updated.trace().real)


def averaged_channel(rho, wing, triple: SettingTriple):
    """Non-selective update averaged over the three settings.

    (1/3) sum over settings and outcomes of sqrt(E) rho sqrt(E). Trace
    preserving and completely positive; this is the state the next
    observer on the wing receives when settings are equally likely and
    neither outcomes nor settings are communicated.
    """
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for setting in triple.settings:
        for outcome in (1, -1):
            out += luders_update(rho, wing, setting, outcome)[0]
    return validate_density(out / 3, name="channel output")


def bloch_shrink_factor(lam):
    """Factor (1 + 2*sqrt(1-lam^2))/3 by which the averaged channel with
    three mutually orthogonal settings scales every Bloch component of
    the measured qubit."""
    return (1 + 2 * np.sqrt(1 - lam * lam)) / 3


def joint_probability(rho, seq_wing, seq_setting: UnsharpSetting, proj_dirs, outcomes):
    """Probability of an outcome triple, one unsharp wing and two projective.

    Args:
        rho: 8x8 state.
        seq_wing: which wing carries the unsharp measurement.
        seq_setting: that wing's direction and sharpness.
        proj_dirs: BlochDirections of the two projective wings, in
            ascending wing order.
        outcomes: (a, b, c) for wings 0, 1, 2, each +1 or -1.

    Returns Tr[(E (x) P (x) P) rho] with the factors placed on their wings.
    """
    seq_wing = resolve_wing(seq_wing)
    others = [w for w in (0, 1, 2) if w != seq_wing]
    ops = [None, None, None]
    ops[seq_wing] = effect(seq_setting, outcomes[seq_wing])
    for w, d in zip(others, proj_dirs):
        ops[w] = projector(d, outcomes[w])
    return float(np.trace(tensor3(*ops) @ rho).real)


def correlation(rho, seq_wing, seq_setting, proj_dirs, wings):
    """Expectation of the product of the outcomes on wings, every other
    wing's outcome marginalized.

    Takes joint_probability's arguments, with wings a tuple of wing
    indices. A correlation that includes the unsharp wing is lam times
    the projective one, since the unsharp observable's moment operator
    is E(+) - E(-) = lam * n.sigma.
    """
    total = 0.0
    for outcomes in product((1, -1), repeat=3):
        w = 1.0
        for wing in wings:
            w *= outcomes[wing]
        total += w * joint_probability(rho, seq_wing, seq_setting, proj_dirs, outcomes)
    return total
