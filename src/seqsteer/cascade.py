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
    SettingTriple,
    averaged_channel,
    correlation,
    joint_probability,
    luders_update,
)
from .qop import I2, X_DIR, Y_DIR, Z_DIR, direction_observable, tensor3
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
_SIGMAS = tuple(direction_observable(d) for d in (X_DIR, Y_DIR, Z_DIR))


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
        # on it is rejected by require_projective_last
        object.__setattr__(self, "observers", tuple(self.observers))

    @property
    def sequential_wing(self):
        return self.scenario.sequential_wing

    @property
    def lambdas(self):
        return tuple(t.lam for t in self.observers)

    def require_projective_last(self):
        if not self.observers:
            raise ValueError("the chain has no observers")
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
        slot, dirs = resolve(term.ops, seq_wing)
        mats = [I2 if d is None else direction_observable(d) for d in dirs]
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


def propagate(rho, seq_wing, triples):
    """Fold the averaged channel over a list of predecessor triples."""
    for triple in triples:
        rho = averaged_channel(rho, seq_wing, triple)
    return rho


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
                {
                    "observer": m + 1,
                    "lambda": self.lambdas[m],
                    "value": self.values[m],
                    "detected": bool(self.values[m] < 0.0),
                }
                for m in range(len(self.values))
            ],
        }
        return json.dumps(doc, indent=2)


def run_cascade(spec: ScenarioSpec) -> CascadeResult:
    """Channel-path evaluation of every observer in the chain."""
    spec.require_projective_last()
    seq_wing = spec.sequential_wing
    rho = build_state(spec.state)
    values = []
    for m, triple in enumerate(spec.observers):
        values.append(value_from_state(rho, spec.scenario, spec.inequality, triple))
        if m + 1 < len(spec.observers):
            rho = averaged_channel(rho, seq_wing, triple)
    return CascadeResult(spec.inequality, spec.lambdas, tuple(values))


def _term_correlation(rho, seq_wing, triple, ops):
    """One term's expectation from outcome probabilities.

    Linear in rho, so unnormalized branch states may be passed directly.
    Wings the term skips are marginalized over.
    """
    slot, dirs = resolve(ops, seq_wing)
    # a skipped wing is marginalized, so any setting or direction serves
    setting = triple.settings[slot or 0]
    proj_dirs = tuple(d or Z_DIR for w, d in enumerate(dirs) if w != seq_wing)
    wings = tuple(w for w, sym in enumerate(ops) if sym != "I")
    return correlation(rho, seq_wing, setting, proj_dirs, wings)


def run_cascade_oracle(spec: ScenarioSpec) -> CascadeResult:
    """Tree-path evaluation: identical contract to run_cascade, computed
    by explicit enumeration instead of the averaged channel.

    The branches over predecessor settings and outcomes grow along the
    chain as unnormalized states, each setting weighted 1/3. Cost grows as 6^(n-1), so chains longer than 4 are refused.
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
    branches = [build_state(spec.state)]
    values = []
    for m, triple in enumerate(spec.observers):
        weight = (1.0 / 3.0) ** m
        values.append(evaluate(spec.inequality, {
            term.ops: weight * sum(
                _term_correlation(rho, seq_wing, triple, term.ops) for rho in branches
            )
            for term in terms
        }))
        if m + 1 < n:
            branches = [
                luders_update(rho, seq_wing, setting, outcome)[0]
                for rho in branches
                for setting in triple.settings
                for outcome in (1, -1)
            ]
    return CascadeResult(spec.inequality, spec.lambdas, tuple(values))


def _marginal(prob_fn, rho, seq_wing, setting, proj_dirs, wing):
    """P(outcome = +1) on one wing, all other outcomes summed over."""
    total = 0.0
    for outcomes in product((1, -1), repeat=3):
        if outcomes[wing] == 1:
            total += prob_fn(rho, seq_wing, setting, proj_dirs, outcomes)
    return total


def no_signalling_audit(spec: ScenarioSpec, prob_fn=None) -> float:
    """Largest dependence of any single-wing marginal on a remote setting.

    For every observer in the chain, each wing's outcome distribution is
    compared across all choices of the other wings' measurement
    directions. Quantum mechanics makes every such difference vanish, so
    anything above numerical round-off (about 1e-10) indicates a broken
    probability model. An alternative probability function may be passed
    to audit a foreign model with the same signature as
    measurement.joint_probability.
    """
    if prob_fn is None:
        prob_fn = joint_probability
    seq_wing = spec.sequential_wing
    proj_wings = [w for w in (0, 1, 2) if w != seq_wing]
    candidates = (X_DIR, Y_DIR, Z_DIR)
    rho = build_state(spec.state)
    worst = 0.0
    for m, triple in enumerate(spec.observers):
        if m > 0:
            rho = averaged_channel(rho, seq_wing, spec.observers[m - 1])
        # sequential wing's marginal must ignore both projective wings
        for setting in triple.settings:
            seen = [
                _marginal(prob_fn, rho, seq_wing, setting, (d1, d2), seq_wing)
                for d1 in candidates
                for d2 in candidates
            ]
            worst = max(worst, max(seen) - min(seen))
        # each projective wing's marginal must ignore the sequential
        # setting and the other projective wing's direction
        for probe_pos, probe_wing in enumerate(proj_wings):
            other_pos = 1 - probe_pos
            for own_dir in candidates:
                seen = []
                for setting in triple.settings:
                    for remote in candidates:
                        proj_dirs = [None, None]
                        proj_dirs[probe_pos] = own_dir
                        proj_dirs[other_pos] = remote
                        seen.append(
                            _marginal(
                                prob_fn, rho, seq_wing, setting,
                                tuple(proj_dirs), probe_wing,
                            )
                        )
                worst = max(worst, max(seen) - min(seen))
    return worst
