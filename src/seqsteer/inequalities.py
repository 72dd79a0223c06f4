"""The four genuine tripartite steering functionals.

Each functional is 1 plus a signed sum of one-, two- and
three-party correlations. A value below zero certifies genuine tripartite
steering; zero or above is consistent with a non-genuine model.

Term symbols per wing:
    "I"                    identity (wing not measured in the term)
    "X", "Y", "Z"          a trusted wing's fixed Pauli observable
    "A1".."A3", "B1".."B3" an untrusted wing's numbered setting; at the
                           published optimum these are the x, y, z spin
                           components in that order
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class InequalityKind(Enum):
    G1 = "g1"
    G2 = "g2"
    W1 = "w1"
    W2 = "w2"

    @property
    def direction(self):
        """Who steers whom: "1to2" (one untrusted party) or "2to1" (two)."""
        return "1to2" if self in (InequalityKind.G1, InequalityKind.W1) else "2to1"


# Each symbol's axis (0, 1, 2 for x, y, z): a fixed Pauli's, or a
# numbered setting's at the published optimum. A Term's axes, fixed when
# it is built, are its wings' in wing order, None where it skips a wing.
_AXIS = {"X": 0, "Y": 1, "Z": 2, "A1": 0, "A2": 1, "A3": 2, "B1": 0, "B2": 1, "B3": 2}


@dataclass(frozen=True)
class Term:
    coeff: float
    ops: tuple  # (wing0 symbol, wing1 symbol, wing2 symbol)
    axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(None if s == "I" else _AXIS[s] for s in self.ops))


# The paper's coefficients under its names: g_alpha and 1/3 in g1, alpha
# and beta in g2, w_alpha to w_phi in w1 and w_kappa to w_xi in w2.
G_ALPHA = 0.1547
THIRD = 1.0 / 3.0
ALPHA = 0.183
BETA = 0.258
W_ALPHA = 0.4405
W_BETA = 0.0037
W_GAMMA = 0.1570
W_DELTA = 0.2424
W_EPSILON = 0.1848
W_PHI = 0.2533
W_KAPPA = 0.2517
W_LAMBDA = 0.3520
W_ETA = 0.1112
W_MU = 0.1296
W_NU = 0.1943
W_OMEGA = 0.2277
W_PI = 0.1590
W_THETA = 0.2228
W_XI = 0.2298

# Each functional's value is 1 plus the signed sum of its terms.
_TERMS = {
    InequalityKind.G1: (
        Term(G_ALPHA, ("I", "Z", "Z")),
        Term(-THIRD, ("A3", "Z", "I")),
        Term(-THIRD, ("A3", "I", "Z")),
        Term(-THIRD, ("A1", "X", "X")),
        Term(THIRD, ("A1", "Y", "Y")),
        Term(THIRD, ("A2", "X", "Y")),
        Term(THIRD, ("A2", "Y", "X")),
    ),
    InequalityKind.G2: (
        Term(-ALPHA, ("A3", "B3", "I")),
        Term(-ALPHA, ("A3", "I", "Z")),
        Term(-ALPHA, ("I", "B3", "Z")),
        Term(-BETA, ("A1", "B1", "X")),
        Term(BETA, ("A1", "B2", "Y")),
        Term(BETA, ("A2", "B1", "Y")),
        Term(BETA, ("A2", "B2", "X")),
    ),
    InequalityKind.W1: (
        Term(W_ALPHA, ("I", "Z", "I")),
        Term(W_ALPHA, ("I", "I", "Z")),
        Term(-W_BETA, ("I", "Z", "Z")),
        Term(-W_GAMMA, ("I", "X", "X")),
        Term(-W_GAMMA, ("I", "Y", "Y")),
        Term(-W_GAMMA, ("A3", "X", "X")),
        Term(-W_GAMMA, ("A3", "Y", "Y")),
        Term(W_DELTA, ("A3", "I", "I")),
        Term(W_DELTA, ("A3", "Z", "Z")),
        Term(W_EPSILON, ("A3", "Z", "I")),
        Term(W_EPSILON, ("A3", "I", "Z")),
        Term(-W_PHI, ("A1", "X", "I")),
        Term(-W_PHI, ("A1", "I", "X")),
        Term(-W_PHI, ("A2", "Y", "I")),
        Term(-W_PHI, ("A2", "I", "Y")),
        Term(-W_PHI, ("A1", "X", "Z")),
        Term(-W_PHI, ("A1", "Z", "X")),
        Term(-W_PHI, ("A2", "Y", "Z")),
        Term(-W_PHI, ("A2", "Z", "Y")),
    ),
    InequalityKind.W2: (
        Term(W_KAPPA, ("A3", "I", "I")),
        Term(W_KAPPA, ("I", "B3", "I")),
        Term(W_LAMBDA, ("I", "I", "Z")),
        Term(-W_ETA, ("A1", "I", "X")),
        Term(-W_ETA, ("A2", "I", "Y")),
        Term(-W_ETA, ("I", "B1", "X")),
        Term(-W_ETA, ("I", "B2", "Y")),
        Term(W_MU, ("A3", "I", "Z")),
        Term(W_MU, ("I", "B3", "Z")),
        Term(-W_NU, ("A1", "B1", "I")),
        Term(-W_NU, ("A2", "B2", "I")),
        Term(W_OMEGA, ("A3", "B3", "I")),
        Term(-W_PI, ("A1", "B1", "Z")),
        Term(-W_PI, ("A2", "B2", "Z")),
        Term(W_THETA, ("A3", "B3", "Z")),
        Term(-W_XI, ("A1", "B3", "X")),
        Term(-W_XI, ("A2", "B3", "Y")),
        Term(-W_XI, ("A3", "B1", "X")),
        Term(-W_XI, ("A3", "B2", "Y")),
    ),
}


def required_terms(kind: InequalityKind) -> tuple:
    """Every correlation term the functional needs, with signed
    coefficients, as a tuple of Terms; the value is 1 plus their sum."""
    return _TERMS[kind]


def check_expectation(ops, e):
    """Raise ValueError unless e, the expectation of the term ops, lies
    in [-1, 1] up to 1e-9 (a NaN does not)."""
    if not -1.0 - 1e-9 <= e <= 1.0 + 1e-9:
        raise ValueError(f"expectation for {ops} out of [-1, 1]: {e}")


def evaluate(kind: InequalityKind, expectations) -> float:
    """Value of the functional given each term's expectation in
    required_terms order.

    Negative means genuine tripartite steering is detected; exactly zero
    counts as not detected. A table of the wrong length, or an
    expectation outside [-1, 1], raises ValueError.
    """
    value = 1.0
    for term, e in zip(required_terms(kind), expectations, strict=True):
        check_expectation(term.ops, e)
        value += term.coeff * e
    return float(value)
