"""Chains of observers measuring one wing of a shared three-qubit state.

Scenario A puts the chain on the first qubit (a line of Alices), Scenario
B on the third (a line of Charlies). Every observer in the chain measures
unsharply except the last, whose measurement is projective. The remaining
two wings each host a single projective observer.

Observer m's inequality value is computed on the state left behind by
observers 1..m-1. Two independent computations are provided: the fast
path propagates the state through the averaged non-selective channel,
while the oracle path enumerates every predecessor setting and outcome
explicitly and marginalizes at the probability level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .inequalities import InequalityKind, check_expectation, evaluate, required_terms
from .measurement import (
    SettingTriple,
    averaged_channel,
    outcome_signs,
    outcome_table,
    selective_updates,
    setting_spreads,
    table_correlation,
)
from .qop import SIGMA_SPREADS, XYZ, read_only, require_iterable, require_type, spread_product
from .qop import validate_density
from .states import StateSpec, build_state

ORACLE_MAX_OBSERVERS = 4


class Scenario(Enum):
    A = "A"
    B = "B"

    @property
    def sequential_wing(self):
        return 0 if self is Scenario.A else 2

# each term's factors, per functional and sequential wing: the rows of
# SIGMA_SPREADS for I2 where the term skips a wing and for its axis's
# sigma elsewhere, and the x, y, z stack on the sequential wing if the
# term has a slot there
_TERM_FACTORS = {
    (kind, seq): tuple(
        tuple(
            SIGMA_SPREADS[w, 0 if a is None else slice(1, 4) if w == seq else 1 + a]
            for w, a in enumerate(t.axes)
        )
        for t in required_terms(kind)
    )
    for kind, seq in product(InequalityKind, (0, 1, 2))
}

# each wing's x, y, z projector factors on the audit's full 3x3x3 grid,
# gathered once: the audit's factors on the projective wings
_GRID = tuple(read_only(setting_spreads(XYZ, w)) for w in (0, 1, 2))

# the audit's reads of an observer's flat (216,) table: [w, d, r, k] is wing
# w's k-th +1 outcome, in outcome order, at its direction d and remote cell r
_MARGINALS = read_only(np.stack([
    np.moveaxis(np.arange(216).reshape(3, 3, 3, 2, 2, 2).take(0, 3 + w), w, 0).reshape(3, 9, 4)
    for w in (0, 1, 2)
]))


def _oracle_plan(kind, seq_wing):
    """The cells of an observer's grid the terms read, as the index array
    on the sequential wing and the x, y, z projector factors on the
    others (None on the sequential wing), each term's row among the cells
    and the terms' outcome_signs. A skipped wing is marginalized, so any
    direction serves; the first setting on the sequential wing and z on
    the others keep the last bits of the values that oracle_bits.json pins."""
    terms = required_terms(kind)
    reads = [
        tuple((0 if w == seq_wing else 2) if a is None else a for w, a in enumerate(t.axes))
        for t in terms
    ]
    cells = sorted(set(reads))
    index = [read_only(np.array(i)) for i in zip(*cells)]
    fixed = tuple(
        None if w == seq_wing else read_only(setting_spreads(XYZ, w, index=i))
        for w, i in enumerate(index)
    )
    rows = read_only(np.array([cells.index(cell) for cell in reads]))
    signs = outcome_signs([[w for w, a in enumerate(t.axes) if a is not None] for t in terms])
    return index[seq_wing], fixed, rows, read_only(signs)


_ORACLE_PLANS = {key: _oracle_plan(*key) for key in product(InequalityKind, (0, 1, 2))}


@dataclass(frozen=True)
class ScenarioSpec:
    """A full chain description: who measures, what they measure, on what.

    observers holds one SettingTriple per chain member in order.
    """

    scenario: Scenario
    inequality: InequalityKind
    state: StateSpec
    observers: tuple

    def __post_init__(self):
        # an empty chain is allowed as a search prefix; running a cascade
        # or an audit on it is rejected by require_observers
        object.__setattr__(self, "observers", require_iterable("observers", self.observers))
        require_type("scenario", Scenario, self.scenario)
        require_type("inequality", InequalityKind, self.inequality)
        require_type("state", StateSpec, self.state)
        require_type("observer", SettingTriple, *self.observers)

    @property
    def sequential_wing(self):
        return self.scenario.sequential_wing

    @property
    def lambdas(self):
        return tuple(t.lam for t in self.observers)

    def require_observers(self):
        if not self.observers:
            raise ValueError("the chain has no observers")

    def require_projective_last(self):
        self.require_observers()
        if self.observers[-1].lam != 1.0:
            raise ValueError(
                f"the last observer's measurement must be projective "
                f"(sharpness 1), got {self.observers[-1].lam}"
            )


def xyz_spec(scenario, inequality, state, lambdas):
    """Spec with every observer on the x, y, z settings at the given
    sharpness values."""
    observers = [SettingTriple.xyz(lam) for lam in require_iterable("lambdas", lambdas)]
    return ScenarioSpec(scenario, inequality, state, observers)


def term_expectations(rho, inequality, seq_wing):
    """Each term of the functional traced once on rho: a tuple of (slot, x) in term order.

    slot is the term's axis on the sequential wing; x is the term's
    expectation when slot is None, and otherwise the 3-vector of its
    expectations with sigma_x, sigma_y, sigma_z on the sequential wing,
    sharpness not applied. rho may also be an (n, 8, 8) stack of states:
    then x holds one row per state, a list of n floats or an (n, 3)
    array. Any traced value outside [-1, 1] raises check_expectation's
    ValueError.
    """
    table = []
    for term, factors in zip(required_terms(inequality), _TERM_FACTORS[inequality, seq_wing]):
        slot = term.axes[seq_wing]
        rows = rho if slot is None else rho[..., None, :, :]
        x = (rows @ spread_product(*factors)).trace(axis1=-2, axis2=-1).real
        for e in x.reshape(-1).tolist():
            check_expectation(term.ops, e)
        table.append((slot, x.tolist() if slot is None else x))
    return tuple(table)


def value_from_terms(terms, inequality, triple):
    """Inequality value for the settings triple, given term_expectations
    of the state the observer receives.

    Correlations involving the observer's own wing scale with the
    sharpness, because the unsharp observable's moment operator is
    lam times the spin component.
    """
    units = [d.unit_vector for d in triple.directions]
    return evaluate(inequality, [
        x if slot is None else float(units[slot] @ x) * triple.lam for slot, x in terms
    ])


def states_along(rho, seq_wing, triples):
    """rho, then the state after each triple's averaged channel in turn,
    each step run lazily: zipped with a chain's observers, observers
    first, it applies no channel after the last one."""
    yield rho
    for triple in triples:
        rho = averaged_channel(rho, seq_wing, triple)
        yield rho


@dataclass(frozen=True)
class CascadeResult:
    """Per-observer inequality values for one chain, in chain order."""

    values: tuple

    @property
    def detected(self):
        """Strict negativity per observer; a value of exactly zero does
        not count as detection."""
        return tuple(v < 0.0 for v in self.values)


def run_cascade(spec: ScenarioSpec) -> CascadeResult:
    """Channel-path evaluation of every observer in the chain: one term
    walk over the stack of the states the observers receive, each
    observer's value read from its row."""
    require_type("spec", ScenarioSpec, spec)
    spec.require_projective_last()
    rhos = states_along(build_state(spec.state), spec.sequential_wing, spec.observers)
    stack = np.stack([rho for _, rho in zip(spec.observers, rhos)])
    terms = term_expectations(stack, spec.inequality, spec.sequential_wing)
    values = tuple(
        value_from_terms([(slot, x[m]) for slot, x in terms], spec.inequality, triple)
        for m, triple in enumerate(spec.observers)
    )
    return CascadeResult(values)


def run_cascade_oracle(spec: ScenarioSpec) -> CascadeResult:
    """Tree-path evaluation: identical contract to run_cascade, computed
    by explicit enumeration instead of the averaged channel.

    The branches over predecessor settings and outcomes grow along the
    chain as one (6^m, 8, 8) stack of unnormalized states, each setting
    weighted 1/3, and each (direction, outcome) update is applied to the
    whole stack at once. Of an observer's grid, its directions on the
    sequential wing and x, y, z on both projective ones, one
    outcome_table call builds only the cells the terms read and traces
    their eight operators each against the whole stack, each cell's
    table shared by every term that reads it, and all the terms' signed
    sums are one table_correlation call. The projective wings' factors
    at those cells come from the read plan built at import; per call
    only the observer's effects are gathered.
    Cost grows as 6^(n-1), so chains longer than ORACLE_MAX_OBSERVERS
    are refused.
    """
    require_type("spec", ScenarioSpec, spec)
    spec.require_projective_last()
    n = len(spec.observers)
    if n > ORACLE_MAX_OBSERVERS:
        raise ValueError(
            f"explicit enumeration is limited to {ORACLE_MAX_OBSERVERS} observers "
            f"({6 ** (ORACLE_MAX_OBSERVERS - 1)} branches); got n={n}. "
            "Use run_cascade for longer chains."
        )
    seq_wing = spec.sequential_wing
    index, fixed, rows, signs = _ORACLE_PLANS[spec.inequality, seq_wing]
    branches = build_state(spec.state)[None]
    values = []
    chain = setting_spreads([t.directions for t in spec.observers], seq_wing, spec.lambdas, index)
    for m, (triple, effects) in enumerate(zip(spec.observers, chain)):
        tables = outcome_table(branches, [effects if f is None else f for f in fixed])[rows]
        weight = (1.0 / 3.0) ** m
        values.append(
            evaluate(spec.inequality, [weight * x for x in table_correlation(tables, signs)])
        )
        if m + 1 < n:
            # a branch's six children sit together, in selective_updates order
            branches = selective_updates(branches, seq_wing, triple).reshape(-1, 8, 8)
    return CascadeResult(tuple(values))


def no_signalling_audit(spec: ScenarioSpec, prob_fn=None) -> float:
    """Largest dependence of any single-wing marginal on a remote setting.

    For every observer in the chain, each wing's outcome distribution is
    compared across all choices of the other wings' measurement
    directions. Quantum mechanics makes every such difference vanish, so
    anything above numerical round-off (about 1e-10) indicates a broken
    probability model, and a NaN anywhere makes the result NaN. An empty
    chain is refused with ValueError.

    The model is asked once per observer for its (3, 3, 3, 8) table of
    probabilities, 3 directions on each wing and the 8 outcome triples:
    prob_fn(rho, seq_wing, lam, dirs), with the signature of
    measurement.joint_probability; dirs holds each wing's three
    directions, in wing order. A table of any other shape, even of the
    same size, or of anything but real numbers raises ValueError.

    Each state is validated once: the first where the walk starts, the
    others by the averaged channel that hands them on. With prob_fn None
    the quantum model reads every state unchecked in one outcome_table
    call of the full grid: the observers' states stacked, their
    setting_spreads on the sequential wing stacked, and the x, y, z
    factors gathered at import on the projective wings.
    """
    require_type("spec", ScenarioSpec, spec)
    spec.require_observers()
    if not (prob_fn is None or callable(prob_fn)):
        raise ValueError(f"prob_fn must be callable, got {prob_fn!r}")
    seq_wing = spec.sequential_wing
    rhos = states_along(validate_density(build_state(spec.state)), seq_wing, spec.observers)
    if prob_fn is None:
        # every observer's state and effects stacked: one table of them all
        states = np.stack([rho for _, rho in zip(spec.observers, rhos)])
        states = states.reshape(-1, 1, 1, 1, 1, 8, 8)  # one state per observer
        effects = setting_spreads([t.directions for t in spec.observers], seq_wing, spec.lambdas)
        factors = [effects if w == seq_wing else f for w, f in enumerate(_GRID)]
        tables = outcome_table(states, factors)
    else:
        tables = []
        for triple, rho in zip(spec.observers, rhos):
            dirs = tuple(triple.directions if w == seq_wing else XYZ for w in (0, 1, 2))
            table = np.asarray(prob_fn(rho, seq_wing, triple.lam, dirs))
            if table.shape != (3, 3, 3, 8):
                raise ValueError(
                    f"the model's table must have shape (3, 3, 3, 8), got {table.shape}"
                )
            if table.dtype.kind not in "iuf":
                raise ValueError(
                    f"the model's table must hold real numbers, got dtype {table.dtype}"
                )
            tables.append(table)
    # plus[m, w, d, r]: wing w's P(+1), which must not move along r, its four
    # +1 outcomes added in order from 0.0: the bits that oracle_bits.json pins
    plus = sum(np.moveaxis(np.reshape(tables, (-1, 216))[:, _MARGINALS], -1, 0), 0.0)
    return float(np.max(np.max(plus, axis=-1) - np.min(plus, axis=-1)))
