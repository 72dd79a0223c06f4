"""Unsharp measurements on one wing of a three-qubit state.

A sharpness parameter lam in (0, 1] interpolates between no measurement
and a projective one: the effects are E_a = lam*P_a + (1-lam)*I/2. The
post-measurement state follows the Lueders rule sqrt(E) rho sqrt(E), and
the state handed to the next observer on the same wing is the average of
that update over both outcomes and all three equally likely settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .qop import (
    I2,
    XYZ,
    BlochDirection,
    effect_sqrt,
    projector_stack,
    read_only,
    require_iterable,
    require_sharpness,
    require_type,
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
        object.__setattr__(self, "directions", require_iterable("directions", self.directions))
        if len(self.directions) != 3:
            raise ValueError(f"a triple needs three directions, got {len(self.directions)}")
        require_type("direction", BlochDirection, *self.directions)
        require_sharpness(self.lam)

    @classmethod
    def from_directions(cls, directions, lam):
        """Same as SettingTriple(directions, lam)."""
        return cls(directions, lam)

    @classmethod
    def xyz(cls, lam=1.0):
        """The x, y, z triple used as every observer's default settings."""
        return cls(XYZ, lam)


def effect(projectors, lam):
    """Unsharp effects lam*P + (1-lam)*I/2 of a stack of projectors P,
    shape (..., 2, 2), with lam in (0, 1]."""
    require_sharpness(lam)
    return lam * projectors + (1 - lam) * I2 / 2


def selective_updates(rho, wing, triple: SettingTriple):
    """One observer's six Lueders updates sqrt(E) rho sqrt(E) on one
    wing, identity on the others, as one (..., 6, 8, 8) array for rho
    of shape (..., 8, 8): row 2*i + j is the unnormalized state after
    directions[i] gave outcome (1, -1)[j], and its trace is that
    outcome's probability Tr[rho E]."""
    mats = [I2, I2, I2]
    roots = effect_sqrt(projector_stack(triple.directions), triple.lam)
    mats[resolve_wing(wing)] = roots.reshape(6, 2, 2)
    k = tensor3(*mats)  # the six Kraus operators as one stack
    return k @ np.expand_dims(rho, -3) @ k


def averaged_channel(rho, wing, triple: SettingTriple):
    """Non-selective update averaged over the three settings.

    (1/3) sum over settings and outcomes of sqrt(E) rho sqrt(E). Trace
    preserving and completely positive; this is the state the next
    observer on the wing receives when settings are equally likely and
    neither outcomes nor settings are communicated.
    """
    out = selective_updates(rho, wing, triple).sum(axis=-3, initial=0.0)
    return validate_density(out / 3, name="channel output")


def bloch_shrink_factor(lam):
    """Factor (1 + 2*sqrt(1-lam^2))/3 by which the averaged channel with
    three mutually orthogonal settings scales every Bloch component of
    the measured qubit, with lam in (0, 1]."""
    require_sharpness(lam)
    return (1 + 2 * np.sqrt(1 - lam * lam)) / 3


# every outcome triple (a, b, c) for wings 0, 1, 2, in the order of
# outcome_table's outcome axis
OUTCOMES = tuple(product((1, -1), repeat=3))


def joint_probability(rho, seq_wing, lam, dirs):
    """Probability Tr[(E (x) P (x) P) rho] of every outcome triple on the
    8x8 state rho for every combination of dirs, one tuple of
    BlochDirections per wing in wing order: the outcome_table of the
    full grid, as a (len(dirs[0]), len(dirs[1]), len(dirs[2]), 8) table
    whose last axis is in OUTCOMES order. rho must pass validate_density,
    and dirs must hold three non-empty wing tuples; ValueError otherwise."""
    dirs = tuple(require_iterable("dirs", wing) for wing in require_iterable("dirs", dirs))
    lengths = [len(wing) for wing in dirs]
    if len(lengths) != 3 or 0 in lengths:
        raise ValueError(f"dirs must hold three non-empty wing tuples, got lengths {lengths}")
    require_type("dirs", BlochDirection, *(d for wing in dirs for d in wing))
    return unchecked_joint_probability(validate_density(rho), seq_wing, lam, dirs)


def unchecked_joint_probability(rho, seq_wing, lam, dirs):
    """joint_probability on a rho already known to pass validate_density,
    such as a state averaged_channel handed on."""
    grid = np.ix_(*(range(len(d)) for d in dirs))
    return outcome_table(rho[None], seq_wing, lam, dirs, grid)[..., 0]


def outcome_table(rhos, seq_wing, lam, dirs, cells):
    """P(OUTCOMES[k]) = Tr[(E (x) P (x) P) rho] on each state of an
    (n, 8, 8) stack rhos, E the unsharp effect on seq_wing with sharpness
    lam and P the projectors elsewhere, as an array of the cells' shape
    followed by (8, n): entry [..., k, i] is outcome triple k on state i.

    dirs holds one tuple of BlochDirections per wing and cells one array
    of indices into each wing's tuple, both in wing order; the three
    index arrays broadcast against each other into the cells. np.ix_
    over every wing's directions gives the full grid, three equal-length
    arrays just those cells. Each wing's factors are one projector_stack,
    its effects on seq_wing, taken at the wing's indices with their
    outcome axis at the wing's place, and the operators are their
    tensor3, K = 8 per cell.

    Only the diagonals are formed: entry r of op @ rho is row r of op
    times column r of rho, so one batched product of the K operators'
    rows r, (8, K, 8), with the n states' columns r, (8, 8, n), gives
    every diagonal entry. n is zero-padded to a multiple of 8, as K is
    already: that keeps every entry on the BLAS kernel path (OpenBLAS
    0.3.31, Haswell) of the full (8K, 8) @ (8, 8n) product this
    replaced, and so its bits; unpadded, counts such as 1, 2 or 6 change
    the last bits. Only the n real state columns of the padded product
    are reduced: the eight real parts are added in the pairwise order of
    numpy's sum over eight contiguous values; real and imaginary parts
    add apart, so taking .real first keeps the bits of the complex trace."""
    seq_wing = resolve_wing(seq_wing)
    factors = []
    for wing, (wing_dirs, index) in enumerate(zip(dirs, cells)):
        stack = projector_stack(wing_dirs)
        if wing == seq_wing:
            stack = effect(stack, lam)
        shape = [1, 1, 1, 2, 2]  # the outcome axes, then the 2x2 factor
        shape[wing] = 2
        factors.append(np.take(stack, index, axis=0).reshape(np.shape(index) + tuple(shape)))
    ops = tensor3(*factors)
    n = len(rhos)
    cols = np.zeros((8, 8, -(-n // 8) * 8), complex)
    cols[..., :n] = rhos.transpose(2, 1, 0)
    d = (ops.reshape(-1, 8, 8).transpose(1, 0, 2) @ cols)[..., :n].real
    traces = ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] + d[7]))
    return traces.reshape(ops.shape[:-5] + (8, n))


# each wing subset's column of outcome-product signs, in OUTCOMES order
_SIGNS = {
    wings: read_only(np.array([[math.prod(o[w] for w in wings)] for o in OUTCOMES], dtype=float))
    for wings in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
}


def table_correlation(tables, wings):
    """Expectations of the product of the outcomes on wings[t] (a tuple
    of wing indices), every other wing marginalized, summed over the
    states of tables[t], an (8, n) outcome_table, as a list with one
    float per t; on the unsharp wing each is lam times the projective
    one, as E(+) - E(-) is lam * n.sigma. Each state's eight signed
    outcomes, then the states' totals, are added left to right, one
    ordered cumsum per axis; 0.0 + the last gives the bits, signed
    zeros included, of adding them to 0.0 (builtin sum compensates from
    3.12 on)."""
    signs = np.array([_SIGNS[tuple(sorted(w))] for w in wings])
    totals = np.cumsum(signs * tables, axis=1)[:, -1]
    return (0.0 + np.cumsum(totals, axis=1)[:, -1]).tolist()
