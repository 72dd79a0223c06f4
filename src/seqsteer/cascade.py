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

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .inequalities import InequalityKind, check_expectation, evaluate, required_terms, resolve
from .measurement import (
    OUTCOMES,
    SettingTriple,
    averaged_channel,
    joint_operators,
    joint_probability,
    outcome_table,
    selective_updates,
    table_correlation,
)
from .qop import I2, XYZ, tensor3
from .states import StateSpec, build_state

ORACLE_MAX_OBSERVERS = 4


class Scenario(Enum):
    A = "A"
    B = "B"

    @property
    def sequential_wing(self):
        return 0 if self is Scenario.A else 2

# n.sigma along x, y, z from BlochDirection.observable, not the exact
# Paulis: the last bits of direction_coefficients depend on its cos(pi/2)
# terms. One stack on the sequential wing gives a slot term's three operators.
_SIGMAS = np.stack([d.observable for d in XYZ])
_SIGMAS.flags.writeable = False


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
        object.__setattr__(self, "observers", tuple(self.observers))

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
    return ScenarioSpec(
        scenario=scenario,
        inequality=inequality,
        state=state,
        observers=tuple(SettingTriple.xyz(lam) for lam in lambdas),
    )


def term_expectations(rho, inequality, seq_wing):
    """Each term of the functional traced once on rho, as ops -> (slot, x).

    slot is resolve's axis of the sequential wing; x is the term's
    expectation when slot is None, and otherwise the 3-vector of its
    expectations with sigma_x, sigma_y, sigma_z on the sequential wing,
    sharpness not applied. Any traced value outside [-1, 1] raises
    check_expectation's ValueError.
    """
    table = {}
    for term in required_terms(inequality):
        axes = resolve(term.ops)
        slot = axes[seq_wing]
        mats = [I2 if a is None else _SIGMAS[a] for a in axes]
        if slot is not None:
            mats[seq_wing] = _SIGMAS
        x = (rho @ tensor3(*mats)).trace(axis1=-2, axis2=-1).real
        for e in x.reshape(-1).tolist():
            check_expectation(term.ops, e)
        table[term.ops] = (slot, float(x) if slot is None else x)
    return table


def value_from_terms(terms, inequality, triple):
    """Inequality value for the settings triple, given term_expectations
    of the state the observer receives.

    Correlations involving the observer's own wing scale with the
    sharpness, because the unsharp observable's moment operator is
    lam times the spin component.
    """
    units = [d.unit_vector for d in triple.directions]
    return evaluate(inequality, {
        ops: x if slot is None else float(units[slot] @ x) * triple.lam
        for ops, (slot, x) in terms.items()
    })


def value_from_state(rho, scenario, inequality, triple):
    """Inequality value for one observer given the state they receive."""
    seq_wing = scenario.sequential_wing
    return value_from_terms(term_expectations(rho, inequality, seq_wing), inequality, triple)


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
    """Per-observer inequality values for one chain."""

    inequality: InequalityKind
    lambdas: tuple
    values: tuple

    @property
    def detected(self):
        """Strict negativity per observer; a value of exactly zero does
        not count as detection."""
        return tuple(v < 0.0 for v in self.values)

    def to_json(self):
        doc = {
            "inequality": self.inequality.value,
            "observers": [
                {"observer": m, "lambda": lam, "value": value, "detected": bool(flag)}
                for m, (lam, value, flag) in enumerate(
                    zip(self.lambdas, self.values, self.detected), start=1
                )
            ],
        }
        return json.dumps(doc, indent=2)


def run_cascade(spec: ScenarioSpec) -> CascadeResult:
    """Channel-path evaluation of every observer in the chain."""
    spec.require_projective_last()
    rhos = states_along(build_state(spec.state), spec.sequential_wing, spec.observers)
    values = tuple(
        value_from_state(rho, spec.scenario, spec.inequality, triple)
        for triple, rho in zip(spec.observers, rhos)
    )
    return CascadeResult(spec.inequality, spec.lambdas, values)


def _wing_directions(seq_wing, triple):
    """Each wing's directions in wing order: the triple's on the
    sequential wing and x, y, z on the projective ones."""
    return tuple(triple.directions if w == seq_wing else XYZ for w in (0, 1, 2))


def run_cascade_oracle(spec: ScenarioSpec) -> CascadeResult:
    """Tree-path evaluation: identical contract to run_cascade, computed
    by explicit enumeration instead of the averaged channel.

    The branches over predecessor settings and outcomes grow along the
    chain as one (6^m, 8, 8) stack of unnormalized states, each setting
    weighted 1/3, and each (direction, outcome) update is applied to the
    whole stack at once. Each observer's joint operators are built as one
    grid over its directions and x, y, z on both projective wings; each
    cell a term reads has its eight operators traced against the whole
    stack in one product, into an outcome table every such term shares.
    Cost grows as 6^(n-1), so chains longer than ORACLE_MAX_OBSERVERS
    are refused.
    """
    spec.require_projective_last()
    n = len(spec.observers)
    if n > ORACLE_MAX_OBSERVERS:
        raise ValueError(
            f"explicit enumeration is limited to {ORACLE_MAX_OBSERVERS} observers "
            f"({6 ** (ORACLE_MAX_OBSERVERS - 1)} branches); got n={n}. "
            "Use run_cascade for longer chains."
        )
    seq_wing = spec.sequential_wing
    # each term's cell of an observer's grid, and the wings it multiplies; a
    # skipped wing is marginalized, so any direction serves; the first
    # setting on the sequential wing and z on the others keep the last
    # bits of the values that oracle_bits.json pins
    readings = {}
    for term in required_terms(spec.inequality):
        axes = resolve(term.ops)
        cell = tuple((0 if w == seq_wing else 2) if a is None else a for w, a in enumerate(axes))
        readings[term.ops] = cell, tuple(w for w, a in enumerate(axes) if a is not None)
    branches = build_state(spec.state)[None]
    values = []
    for m, triple in enumerate(spec.observers):
        grid = joint_operators(seq_wing, triple.lam, _wing_directions(seq_wing, triple))
        tables = {s: outcome_table(branches, grid[s]) for s in {s for s, _ in readings.values()}}
        weight = (1.0 / 3.0) ** m
        values.append(evaluate(spec.inequality, {
            ops: weight * table_correlation(tables[s], wings)
            for ops, (s, wings) in readings.items()
        }))
        if m + 1 < n:
            # a branch's six children sit together, in selective_updates order
            branches = selective_updates(branches, seq_wing, triple).reshape(-1, 8, 8)
    return CascadeResult(spec.inequality, spec.lambdas, tuple(values))


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
    measurement.joint_probability, the quantum model used when prob_fn is
    None; dirs holds each wing's three directions, in wing order. A table
    of any other size raises ValueError.
    """
    spec.require_observers()
    prob_fn = prob_fn or joint_probability
    seq_wing = spec.sequential_wing
    rhos = states_along(build_state(spec.state), seq_wing, spec.observers)
    spreads = []
    for triple, rho in zip(spec.observers, rhos):
        p = prob_fn(rho, seq_wing, triple.lam, _wing_directions(seq_wing, triple))
        # p[i, j, k, o] has axes wing 0's, 1's and 2's direction, then the
        # outcome triple; each wing's P(+1) must not move along the others'
        p = np.reshape(p, (3, 3, 3, 8))
        for wing in (0, 1, 2):
            plus = sum(p[..., k] for k, o in enumerate(OUTCOMES) if o[wing] == 1)
            remote = tuple(a for a in (0, 1, 2) if a != wing)
            spreads.append(np.max(plus, axis=remote) - np.min(plus, axis=remote))
    return float(np.max(spreads))
