"""Sharpness thresholds, observer-count tables and setting-angle search.

For a fixed chain prefix the inequality value seen by the next observer
is affine in that observer's sharpness, so two evaluations give its
root in closed form; the threshold is the upper end of the dyadic
tol-bracket replayed around that root, with tol at least MIN_TOL so that
the replay always ends.  A table walks one running state down the chain:
each observer is pinned just above their own threshold and their averaged
channel applied once, until even a projective measurement stops violating.
"""

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar

import numpy as np

from .cascade import Scenario, states_along, term_expectations, value_from_terms
from .inequalities import required_terms
from .measurement import SettingTriple, averaged_channel
from .qop import BlochDirection, X_DIR, Y_DIR, Z_DIR
from .states import build_state

# Smallest sharpness probed.  Exactly zero is not a valid measurement
# (the effects become trivial), so the threshold bracket starts here.
LAMBDA_FLOOR = 1e-9

# Smallest tol, 2**-53, the float spacing just below 1: while hi - lo > tol
# with hi <= 1, a rounded midpoint is off by at most 2**-54, so it lies
# strictly inside the bracket and the bracket always shrinks.
MIN_TOL = 2.0**-53


class SearchError(RuntimeError):
    """A search precondition failed: the value must decrease with sharpness."""


class Optimizer(Enum):
    """How each observer's three measurement directions are chosen.

    FIXED_XYZ scores the x, y, z settings as-is.  GRID_REFINE puts each
    setting at its closed-form optimum -v/|v| (see
    direction_coefficients); it keeps the name of the grid search it
    replaced so that existing configs still select it.
    """

    FIXED_XYZ = "fixed-xyz"
    GRID_REFINE = "grid-refine"


@dataclass(frozen=True)
class SearchConfig:
    # constants, not fields: the guard band that keeps floating-point
    # zeros from counting as strict violations, and the table row cap
    guard: ClassVar[float] = 1e-9
    max_rows: ClassVar[int] = 64
    tol: float = 1e-4
    optimizer: Optimizer = Optimizer.FIXED_XYZ

    def __post_init__(self):
        if not MIN_TOL <= self.tol < 1.0:
            raise ValueError(f"tol must lie in [2**-53 = {MIN_TOL:.3g}, 1), got {self.tol}")
        if not isinstance(self.optimizer, Optimizer):
            raise ValueError(f"optimizer must be an Optimizer, got {self.optimizer!r}")


def direction_coefficients(rho, scenario, inequality, lam):
    """Decompose the inequality value over the sequential observer's
    directions.

    Every correlation term uses at most one of the observer's three
    settings, so for fixed trusted-wing directions the value is

        base + sum_i  n_i . vec_i

    where n_i is the unit vector of setting i.  Returns (base, vecs)
    with vecs a list of three length-3 arrays; the sharpness lam is
    already folded into the vectors.
    """
    terms = term_expectations(rho, inequality, scenario.sequential_wing)
    return _coefficients(terms, inequality, lam)


def _coefficients(terms, inequality, lam):
    """direction_coefficients from the state's term_expectations."""
    base = 1.0
    vecs = [np.zeros(3) for _ in range(3)]
    for term in required_terms(inequality):
        slot, x = terms[term.ops]
        if slot is None:
            base += term.coeff * x
        else:
            vecs[slot] += term.coeff * lam * x
    return base, vecs


def _direction_from_vector(v):
    norm = float(np.linalg.norm(v))
    if norm < 1e-15:
        return Z_DIR
    theta = math.acos(max(-1.0, min(1.0, float(v[2]) / norm)))
    phi = math.atan2(float(v[1]), float(v[0])) % (2.0 * math.pi)
    return BlochDirection(theta, phi)


# The six signed axes, tried before the analytic direction so that an
# exact axis optimum keeps its exact angles.
_AXES = (
    Z_DIR,
    X_DIR,
    Y_DIR,
    BlochDirection(math.pi / 2, math.pi),
    BlochDirection(math.pi / 2, 3 * math.pi / 2),
    BlochDirection(math.pi, 0.0),
)


def _best_direction(vec):
    """Direction n minimizing n . vec, with the value it attains.

    The optimum is n = -vec/|vec| with value -|vec|.  A later candidate
    replaces an earlier one only when it is lower by more than 1e-15, so
    on an axis the rounding noise of -vec/|vec| never shows in the
    angles.
    """
    best, low = None, math.inf
    for d in _AXES + (_direction_from_vector(-vec),):
        value = float(d.unit_vector @ vec)
        if value < low - 1e-15:
            best, low = d, value
    return best, low


def _settings_and_value(terms, inequality, lam, optimizer):
    """The next observer's settings at sharpness lam, chosen per the
    optimizer, and the inequality value they attain on the state whose
    term_expectations are terms."""
    if optimizer is Optimizer.FIXED_XYZ:
        triple = SettingTriple.xyz(lam)
        return triple, value_from_terms(terms, inequality, triple)
    base, vecs = _coefficients(terms, inequality, lam)
    directions = []
    total = base
    for vec in vecs:
        direction, low = _best_direction(vec)
        directions.append(direction)
        total += low
    return SettingTriple(directions, lam), total


def optimize_angles(spec, m, config=None):
    """Best measurement directions for observer m (1-based) of a chain.

    Predecessor observers keep the settings recorded in the spec; only
    observer m's three directions are chosen.  Returns the optimized
    SettingTriple together with the inequality value it attains.  With
    the FIXED_XYZ optimizer the x, y, z settings are scored as-is.
    """
    config = config or SearchConfig()
    if not 1 <= m <= len(spec.observers):
        raise ValueError(f"observer index must lie in 1..{len(spec.observers)}, got {m}")
    seq = spec.sequential_wing
    *_, rho = states_along(build_state(spec.state), seq, spec.observers[: m - 1])
    terms = term_expectations(rho, spec.inequality, seq)
    lam = spec.observers[m - 1].lam
    return _settings_and_value(terms, spec.inequality, lam, config.optimizer)


def threshold_lambda(prefix, config=None):
    """Minimal sharpness at which the next observer still violates.

    prefix is a ScenarioSpec holding the observers that have already
    measured (possibly none).  The candidate observer is appended with
    settings chosen per the configured optimizer.  The value is
    evaluated at sharpness 1 and near 0 only; the closed-form root of
    that affine law is bracketed by replaying the dyadic bisection to
    config.tol.  Returns the bracket's upper end, which violates, or
    None when even a projective measurement does not violate.
    """
    config = config or SearchConfig()
    seq = prefix.sequential_wing
    *_, rho = states_along(build_state(prefix.state), seq, prefix.observers)
    terms = term_expectations(rho, prefix.inequality, seq)
    return _threshold(terms, prefix.inequality, config)


def _threshold(terms, inequality, config):
    """threshold_lambda for the state whose term_expectations are terms."""

    def f(lam):
        return _settings_and_value(terms, inequality, lam, config.optimizer)[1]

    f_sharp = f(1.0)
    if f_sharp >= -config.guard:
        return None
    f_floor = f(LAMBDA_FLOOR)
    if not f_sharp < f_floor:
        raise SearchError(
            "the inequality value does not decrease with sharpness "
            f"({f_sharp:.6g} at 1 vs {f_floor:.6g} near 0); its root "
            "would be wrong"
        )
    # f is affine in lam, so a midpoint violates exactly when it lies
    # above the root; the bracket is replayed without evaluating f again
    span = 1.0 - LAMBDA_FLOOR
    root = LAMBDA_FLOOR + (-config.guard - f_floor) * span / (f_sharp - f_floor)
    lo, hi = LAMBDA_FLOOR, 1.0
    while hi - lo > config.tol:
        mid = 0.5 * (lo + hi)
        if mid > root:
            hi = mid
        else:
            lo = mid
    return hi


def ladder_rows(rows):
    """Ladder rows (m, lambda_min) as their JSON objects and as CSV lines
    under the header; lambda_min None is the chain's "none" row."""
    docs, lines = [], ["m,lambda_min,status"]
    for m, lam in rows:
        status = "none" if lam is None else "ok"
        cell = "" if lam is None else f"{lam:.6f}"
        docs.append({"m": m, "lambda_min": lam, "status": status})
        lines.append(f"{m},{cell},{status}")
    return docs, lines


@dataclass(frozen=True)
class ThresholdTable:
    """Per-observer minimal sharpness for one scenario column.

    rows holds (m, lambda_min) pairs with lambda_min None on the row
    where the chain ends; truncated marks a table cut by the row cap
    rather than by a non-violating row.
    """

    state: str
    scenario: Scenario
    inequality: object
    rows: tuple
    truncated: bool = False

    @property
    def max_observers(self):
        return sum(1 for _, lam in self.rows if lam is not None)

    def to_csv(self):
        return "\n".join(ladder_rows(self.rows)[1]) + "\n"

    def to_json(self):
        return json.dumps(
            {
                "state": self.state,
                "scenario": self.scenario.value,
                "direction": self.inequality.direction.value,
                "inequality": self.inequality.value,
                "rows": ladder_rows(self.rows)[0],
                "truncated": self.truncated,
            },
            indent=2,
        )


def build_table(scenario, inequality, state, config=None):
    """Threshold ladder: sharpness minima row by row until the chain ends.

    One state walks down the chain: it starts as the shared state and,
    after each row, passes through that observer's averaged channel with
    the observer pinned at their reported minimum (the upper end of the
    tol-bracket around the closed-form root) plus the tolerance, so each
    of them violates in their own right.  The table ends on the first
    "none" row, or at config.max_rows if every row keeps violating.
    """
    config = config or SearchConfig()
    seq = scenario.sequential_wing
    rho = build_state(state)
    rows = []
    for m in range(1, config.max_rows + 1):
        lam = _threshold(term_expectations(rho, inequality, seq), inequality, config)
        rows.append((m, lam))
        if lam is None:
            break
        rho = averaged_channel(rho, seq, SettingTriple.xyz(min(1.0, lam + config.tol)))
    return ThresholdTable(
        state=state.kind.value,
        scenario=scenario,
        inequality=inequality,
        rows=tuple(rows),
        truncated=lam is not None,
    )
