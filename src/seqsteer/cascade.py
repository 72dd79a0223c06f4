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
from itertools import product

import numpy as np

from .inequalities import InequalityKind, evaluate, required_terms, resolve
from .measurement import (
    OUTCOMES,
    SettingTriple,
    averaged_channel,
    correlation,
    joint_operators,
    selective_updates,
)
from .qop import I2, XYZ, Z_DIR, direction_observable, tensor3
from .states import StateSpec, build_state

ORACLE_MAX_OBSERVERS = 4


class Scenario(Enum):
    A = "A"
    B = "B"

    @property
    def sequential_wing(self):
        return 0 if self is Scenario.A else 2

# n.sigma along x, y, z from direction_observable, not the exact Paulis:
# the last bits of direction_coefficients depend on its cos(pi/2) terms
_SIGMAS = tuple(direction_observable(d) for d in XYZ)


@dataclass(frozen=True)
class ScenarioSpec:
    """A full chain description: who measures, what they measure, on what.

    observers holds one SettingTriple per chain member in order; the
    steering direction is the one the inequality is built for.
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

    slot is resolve's; x is the term's expectation when slot is None, and
    otherwise the 3-vector of its expectations with sigma_x, sigma_y,
    sigma_z on the sequential wing, sharpness not applied.
    """
    table = {}
    for term in required_terms(inequality).terms:
        slot, axes = resolve(term.ops, seq_wing)
        mats = [I2 if a is None else _SIGMAS[a] for a in axes]
        if slot is None:
            table[term.ops] = (slot, float(np.trace(rho @ tensor3(*mats)).real))
            continue
        x = np.empty(3)
        for k, sigma in enumerate(_SIGMAS):
            mats[seq_wing] = sigma
            x[k] = np.trace(rho @ tensor3(*mats)).real
        table[term.ops] = (slot, x)
    return table


def value_from_terms(terms, inequality, triple):
    """Inequality value for the settings triple, given term_expectations
    of the state the observer receives.

    Correlations involving the observer's own wing scale with the
    sharpness, because the unsharp observable's moment operator is
    lam times the spin component.
    """
    units = [d.unit_vector() for d in triple.directions]
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


def _term_correlation(branches, seq_wing, triple, ops):
    """One term's expectation from outcome probabilities, summed over
    the branch states.

    Linear in each state, so unnormalized branch states may be passed
    directly. Wings the term skips are marginalized over.
    """
    slot, axes = resolve(ops, seq_wing)
    # a skipped wing is marginalized, so any setting or direction serves
    seq_dir = triple.directions[slot or 0]
    proj_dirs = tuple(
        Z_DIR if a is None else XYZ[a] for w, a in enumerate(axes) if w != seq_wing
    )
    wings = tuple(w for w, sym in enumerate(ops) if sym != "I")
    return correlation(branches, seq_wing, seq_dir, triple.lam, proj_dirs, wings)


def run_cascade_oracle(spec: ScenarioSpec) -> CascadeResult:
    """Tree-path evaluation: identical contract to run_cascade, computed
    by explicit enumeration instead of the averaged channel.

    The branches over predecessor settings and outcomes grow along the
    chain as one (6^m, 8, 8) stack of unnormalized states, each setting
    weighted 1/3, and each (direction, outcome) update is applied to the
    whole stack at once. For each observer and term, every outcome's
    joint operator is built once and traced against the whole stack.
    Cost grows as 6^(n-1), so chains longer than 4 are refused.
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
    terms = required_terms(spec.inequality).terms
    branches = build_state(spec.state)[None]
    values = []
    for m, triple in enumerate(spec.observers):
        weight = (1.0 / 3.0) ** m
        values.append(evaluate(spec.inequality, {
            term.ops: weight * _term_correlation(branches, seq_wing, triple, term.ops)
            for term in terms
        }))
        if m + 1 < n:
            # a branch's six children sit together, in selective_updates order
            children = selective_updates(branches, seq_wing, triple)
            branches = np.stack(children, axis=1).reshape(-1, 8, 8)
    return CascadeResult(spec.inequality, spec.lambdas, tuple(values))


def no_signalling_audit(spec: ScenarioSpec, prob_fn=None) -> float:
    """Largest dependence of any single-wing marginal on a remote setting.

    For every observer in the chain, each wing's outcome distribution is
    compared across all choices of the other wings' measurement
    directions. Quantum mechanics makes every such difference vanish, so
    anything above numerical round-off (about 1e-10) indicates a broken
    probability model, and a NaN anywhere makes the result NaN. An empty
    chain is refused with ValueError.

    By default each observer's 216 probabilities (3 settings, 9
    projective direction pairs, 8 outcome triples) are read as one table:
    the (216, 8, 8) stack of their joint_operators rows, traced against
    the state in one product. An alternative probability function may be
    passed to audit a foreign model with the same signature as
    measurement.joint_probability,
    prob_fn(rho, seq_wing, seq_dir, lam, proj_dirs, outcomes). It is
    called once per observer, sequential direction, projective direction
    pair and outcome triple, 216 times per observer.
    """
    spec.require_observers()
    seq_wing = spec.sequential_wing
    first, second = (w for w in (0, 1, 2) if w != seq_wing)
    # p[s, i, j, k] has axes setting, first and second projective
    # direction, outcome triple; each wing's P(+1) must not move along
    # the axes of the other wings' choices
    remote_axes = {seq_wing: (1, 2), first: (0, 2), second: (0, 1)}
    rhos = states_along(build_state(spec.state), seq_wing, spec.observers)
    spreads = []
    for triple, rho in zip(spec.observers, rhos):
        settings = [(d, pair) for d in triple.directions for pair in product(XYZ, repeat=2)]
        if prob_fn is None:
            ops = np.concatenate([
                joint_operators(seq_wing, d, triple.lam, pair) for d, pair in settings
            ])
            p = (ops @ rho).trace(axis1=1, axis2=2).real
        else:
            p = np.array([
                prob_fn(rho, seq_wing, d, triple.lam, pair, o)
                for d, pair in settings
                for o in OUTCOMES
            ])
        p = p.reshape(3, 3, 3, 8)
        for wing, axes in remote_axes.items():
            plus = sum(p[..., k] for k, o in enumerate(OUTCOMES) if o[wing] == 1)
            spreads.append(np.max(plus, axis=axes) - np.min(plus, axis=axes))
    return float(np.max(spreads))
