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
    SIGMA_SPREADS,
    XYZ,
    BlochDirection,
    effect_sqrt,
    projector_stack,
    require_iterable,
    require_sharpness,
    require_type,
    resolve_wing,
    spread,
    spread_product,
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
    shape (..., 2, 2), with lam in (0, 1], or with lam a tuple of m such
    values of m stacks, shape (m, ..., 2, 2), stack i at lam[i]."""
    for x in lam if isinstance(lam, tuple) else (lam,):
        require_sharpness(x)
    if isinstance(lam, tuple):
        lam = np.reshape(lam, (-1,) + (1,) * (projectors.ndim - 1))
    return lam * projectors + (1 - lam) * I2 / 2


def setting_spreads(dirs, wing, lam=None, index=None):
    """outcome_table's factor of a wing: the spreads on wing of the +1
    and -1 projectors along each of the BlochDirections dirs, or of their
    unsharp effects at sharpness lam, taken at index, an array of indices
    into dirs of the cells' shape, or with index None along the wing's
    own axis of the full grid. Its shape is the cells', then the three
    outcome axes, 2 at the wing's place and 1 elsewhere, then the 64
    entries. With lam a chain's tuple of sharpness values and dirs its
    tuple of directions per value, the observers' factors come on a leading axis."""
    k = int(isinstance(lam, tuple))  # 1 with the observers' axis in front
    stack = np.array([projector_stack(d) for d in dirs]) if k else projector_stack(dirs)
    spreads = spread(stack if lam is None else effect(stack, lam), wing)
    if index is None:
        index = np.arange(spreads.shape[k]).reshape([-1 if w == wing else 1 for w in (0, 1, 2)])
    outcomes = [1, 1, 1, 64]
    outcomes[wing] = 2
    lead = spreads.shape[:k]
    return np.take(spreads, index, axis=k).reshape(lead + np.shape(index) + tuple(outcomes))


def selective_updates(rho, wing, triple: SettingTriple):
    """One observer's six Lueders updates sqrt(E) rho sqrt(E) on one
    wing, identity on the others, as one (..., 6, 8, 8) array for rho
    of shape (..., 8, 8): row 2*i + j is the unnormalized state after
    directions[i] gave outcome (1, -1)[j], and its trace is that
    outcome's probability Tr[rho E]."""
    wing = resolve_wing(wing)
    roots = effect_sqrt(projector_stack(triple.directions), triple.lam)
    # I2's spread off the measured wing
    factors = [SIGMA_SPREADS[w, 0] for w in (0, 1, 2)]
    factors[wing] = spread(roots.reshape(6, 2, 2), wing)
    k = spread_product(*factors)  # the six Kraus operators as one stack
    return k @ rho[..., None, :, :] @ k


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
    wings = enumerate(require_iterable("dirs", dirs))
    dirs = tuple(require_iterable(f"wing {w}'s directions", d) for w, d in wings)
    lengths = [len(wing) for wing in dirs]
    if len(lengths) != 3 or 0 in lengths:
        raise ValueError(f"dirs must hold three non-empty wing tuples, got lengths {lengths}")
    require_type("dirs", BlochDirection, *(d for wing in dirs for d in wing))
    rho = validate_density(rho)
    seq_wing = resolve_wing(seq_wing)
    require_sharpness(lam)
    factors = [setting_spreads(d, w, lam if w == seq_wing else None) for w, d in enumerate(dirs)]
    return outcome_table(rho[None], factors)[..., 0]


def outcome_table(rhos, factors):
    """P(OUTCOMES[k]) = Tr[(E (x) P (x) P) rho] on each state of a stack
    rhos of n states, E the unsharp effects on the sequential wing and P
    the projectors elsewhere, as an array of the cells' shape followed by
    (8, n): entry [..., k, i] is outcome triple k on state i.

    factors holds each wing's setting_spreads at the cells, in wing
    order; their cell axes broadcast against each other into the cells,
    and the operators are their spread_product, K = 8 per cell. rhos is
    (n, 8, 8), read at every cell, or (m, 1, ..., 1, n, 8, 8) with one
    axis per cell axis: m stacks, each read along its own entry of the
    cells' first axis, which is m or 1. Any other shape raises
    ValueError.

    Only the diagonals are formed: entry r of op @ rho is row r of op
    times column r of rho, so one batched product of the K operators'
    rows r, (8, K, 8), with the n states' columns r, (8, 8, n), gives
    every diagonal entry, and the m stacks are m such products in one
    batch. n is zero-padded to a multiple of 8, as K is already: that
    keeps every entry on the BLAS kernel path (OpenBLAS 0.3.31, Haswell)
    of the full (8K, 8) @ (8, 8n) product this replaced, and so its
    bits; unpadded, counts such as 1, 2 or 6 change the last bits. Only
    the n real state columns of the padded product are reduced: the
    eight real parts are added in the pairwise order of numpy's sum over
    eight contiguous values, as three adds of half stacks: rows 0-3 plus
    4-7, even plus odd, then the two; real and imaginary parts add
    apart, so taking .real first keeps the bits of the complex trace."""
    ops = spread_product(*factors)
    cells = ops.shape[:-5]
    k = int(rhos.ndim > 3)  # row r's axis goes in front of the m stacks
    if k and rhos.shape[1:-3] + (1,) != (1,) * len(cells):
        raise ValueError(
            f"a stack of state stacks must be (m, 1, ..., 1, n, 8, 8), one axis "
            f"per cell axis, here {len(cells)}; got shape {rhos.shape}"
        )
    n = rhos.shape[-3]
    rows = ops.reshape(cells[:k] + (-1, 8, 8)).transpose(k + 1, *range(k + 1), k + 2)
    cols = np.zeros((8, *rhos.shape[:k], 8, -(-n // 8) * 8), complex)
    cols[..., :n] = rhos.reshape(rhos.shape[:k] + (n, 8, 8)).transpose(k + 2, *range(k), k + 1, k)
    d = (rows @ cols)[..., :n].real
    d = d[:4] + d[4:]  # ((d0 + d4) + (d1 + d5)) + ((d2 + d6) + (d3 + d7))
    d = d[::2] + d[1::2]
    traces = d[0] + d[1]
    return traces.reshape(traces.shape[:-2] + cells[k:] + (8, n))


def outcome_signs(wings):
    """The product of the outcomes on each wings[t], a tuple of wing
    indices, for every outcome triple in OUTCOMES order, as the
    (len(wings), 8, 1) float stack that table_correlation reads."""
    return np.array([[[math.prod(o[w] for w in s)] for o in OUTCOMES] for s in wings], float)


def table_correlation(tables, signs):
    """Expectations of the product of the outcomes on a wing subset,
    every other wing marginalized, summed over the states of tables[t],
    an (8, n) outcome_table, with signs[t] the subset's outcome_signs,
    as a list with one float per t; on the unsharp wing each is lam
    times the projective one, as E(+) - E(-) is lam * n.sigma. Each
    state's eight signed outcomes are added left to right, seven adds of
    whole arrays, then the states' totals in one ordered cumsum; 0.0 +
    its last gives the bits, signed zeros included, of adding them to
    0.0 (builtin sum compensates from 3.12 on)."""
    signed = (signs * tables).transpose(1, 0, 2)  # the outcome axis first
    totals = sum(signed[1:], signed[0])
    return (0.0 + np.cumsum(totals, axis=1)[:, -1]).tolist()
