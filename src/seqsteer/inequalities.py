"""The four genuine tripartite steering functionals.

Each functional is a constant plus a signed sum of one-, two- and
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

from dataclasses import dataclass
from enum import Enum


class SteeringDirection(Enum):
    """Who steers whom: one untrusted party steering two trusted ones, or
    two untrusted parties steering one trusted one."""

    ONE_TO_TWO = "1to2"
    TWO_TO_ONE = "2to1"


class InequalityKind(Enum):
    G1 = "g1"
    G2 = "g2"
    W1 = "w1"
    W2 = "w2"

    @property
    def direction(self):
        if self in (InequalityKind.G1, InequalityKind.W1):
            return SteeringDirection.ONE_TO_TWO
        return SteeringDirection.TWO_TO_ONE


@dataclass(frozen=True)
class Term:
    coeff: float
    ops: tuple  # (wing0 symbol, wing1 symbol, wing2 symbol)


@dataclass(frozen=True)
class TermList:
    constant: float
    terms: tuple


COEFFICIENTS = {
    InequalityKind.G1: {"g_alpha": 0.1547},
    InequalityKind.G2: {"alpha": 0.183, "beta": 0.258},
    InequalityKind.W1: {
        "w_alpha": 0.4405,
        "w_beta": 0.0037,
        "w_gamma": 0.1570,
        "w_delta": 0.2424,
        "w_epsilon": 0.1848,
        "w_phi": 0.2533,
    },
    InequalityKind.W2: {
        "w_kappa": 0.2517,
        "w_lambda": 0.3520,
        "w_eta": 0.1112,
        "w_mu": 0.1296,
        "w_nu": 0.1943,
        "w_omega": 0.2277,
        "w_pi": 0.1590,
        "w_theta": 0.2228,
        "w_xi": 0.2298,
    },
}


def _g1_terms():
    g = COEFFICIENTS[InequalityKind.G1]["g_alpha"]
    third = 1.0 / 3.0
    return TermList(
        constant=1.0,
        terms=(
            Term(g, ("I", "Z", "Z")),
            Term(-third, ("A3", "Z", "I")),
            Term(-third, ("A3", "I", "Z")),
            Term(-third, ("A1", "X", "X")),
            Term(third, ("A1", "Y", "Y")),
            Term(third, ("A2", "X", "Y")),
            Term(third, ("A2", "Y", "X")),
        ),
    )


def _g2_terms():
    c = COEFFICIENTS[InequalityKind.G2]
    a, b = c["alpha"], c["beta"]
    return TermList(
        constant=1.0,
        terms=(
            Term(-a, ("A3", "B3", "I")),
            Term(-a, ("A3", "I", "Z")),
            Term(-a, ("I", "B3", "Z")),
            Term(-b, ("A1", "B1", "X")),
            Term(b, ("A1", "B2", "Y")),
            Term(b, ("A2", "B1", "Y")),
            Term(b, ("A2", "B2", "X")),
        ),
    )


def _w1_terms():
    c = COEFFICIENTS[InequalityKind.W1]
    return TermList(
        constant=1.0,
        terms=(
            Term(c["w_alpha"], ("I", "Z", "I")),
            Term(c["w_alpha"], ("I", "I", "Z")),
            Term(-c["w_beta"], ("I", "Z", "Z")),
            Term(-c["w_gamma"], ("I", "X", "X")),
            Term(-c["w_gamma"], ("I", "Y", "Y")),
            Term(-c["w_gamma"], ("A3", "X", "X")),
            Term(-c["w_gamma"], ("A3", "Y", "Y")),
            Term(c["w_delta"], ("A3", "I", "I")),
            Term(c["w_delta"], ("A3", "Z", "Z")),
            Term(c["w_epsilon"], ("A3", "Z", "I")),
            Term(c["w_epsilon"], ("A3", "I", "Z")),
            Term(-c["w_phi"], ("A1", "X", "I")),
            Term(-c["w_phi"], ("A1", "I", "X")),
            Term(-c["w_phi"], ("A2", "Y", "I")),
            Term(-c["w_phi"], ("A2", "I", "Y")),
            Term(-c["w_phi"], ("A1", "X", "Z")),
            Term(-c["w_phi"], ("A1", "Z", "X")),
            Term(-c["w_phi"], ("A2", "Y", "Z")),
            Term(-c["w_phi"], ("A2", "Z", "Y")),
        ),
    )


def _w2_terms():
    c = COEFFICIENTS[InequalityKind.W2]
    return TermList(
        constant=1.0,
        terms=(
            Term(c["w_kappa"], ("A3", "I", "I")),
            Term(c["w_kappa"], ("I", "B3", "I")),
            Term(c["w_lambda"], ("I", "I", "Z")),
            Term(-c["w_eta"], ("A1", "I", "X")),
            Term(-c["w_eta"], ("A2", "I", "Y")),
            Term(-c["w_eta"], ("I", "B1", "X")),
            Term(-c["w_eta"], ("I", "B2", "Y")),
            Term(c["w_mu"], ("A3", "I", "Z")),
            Term(c["w_mu"], ("I", "B3", "Z")),
            Term(-c["w_nu"], ("A1", "B1", "I")),
            Term(-c["w_nu"], ("A2", "B2", "I")),
            Term(c["w_omega"], ("A3", "B3", "I")),
            Term(-c["w_pi"], ("A1", "B1", "Z")),
            Term(-c["w_pi"], ("A2", "B2", "Z")),
            Term(c["w_theta"], ("A3", "B3", "Z")),
            Term(-c["w_xi"], ("A1", "B3", "X")),
            Term(-c["w_xi"], ("A2", "B3", "Y")),
            Term(-c["w_xi"], ("A3", "B1", "X")),
            Term(-c["w_xi"], ("A3", "B2", "Y")),
        ),
    )


_TERM_TABLES = {
    InequalityKind.G1: _g1_terms(),
    InequalityKind.G2: _g2_terms(),
    InequalityKind.W1: _w1_terms(),
    InequalityKind.W2: _w2_terms(),
}


def required_terms(kind: InequalityKind) -> TermList:
    """Every correlation term the functional needs, with signed coefficients."""
    return _TERM_TABLES[kind]


# Setting slot of each symbol on the sequential wing and its fixed axis
# (0, 1, 2 for x, y, z) elsewhere; numbered settings of other wings stay
# at the published optimum.
_AXIS = {"X": 0, "Y": 1, "Z": 2, "A1": 0, "A2": 1, "A3": 2, "B1": 0, "B2": 1, "B3": 2}


def resolve(ops, seq_wing):
    """What one term measures, as (slot, axes).

    slot is the sequential observer's setting the term uses, or None
    when it skips that wing; axes holds each wing's fixed axis, 0, 1 or
    2 for x, y or z, and None for the identity and the sequential wing.
    """
    slot, axes = None, []
    for wing, sym in enumerate(ops):
        axis = None if sym == "I" else _AXIS[sym]
        if wing == seq_wing:
            slot, axis = axis, None
        axes.append(axis)
    return slot, tuple(axes)


def evaluate(kind: InequalityKind, expectations) -> float:
    """Value of the functional given a mapping from each term's ops tuple
    to its expectation.

    Negative means genuine tripartite steering is detected; exactly zero
    counts as not detected. A missing term raises LookupError naming it,
    and an expectation outside [-1, 1] raises ValueError.
    """
    tl = required_terms(kind)
    value = tl.constant
    for term in tl.terms:
        if term.ops not in expectations:
            raise LookupError(f"correlation term not supplied: {term.ops}")
        e = expectations[term.ops]
        if not -1.0 - 1e-9 <= e <= 1.0 + 1e-9:
            raise ValueError(f"expectation for {term.ops} out of [-1, 1]: {e}")
        value += term.coeff * e
    return float(value)
