"""The analytic picture, checked against the package's matrix path.

A three-qubit state is its 4x4x4 real correlation tensor
T[a, b, c] = Tr(rho s_a (x) s_b (x) s_c) in the basis I, X, Y, Z. The
averaged channel acts on the sequential wing's index alone, each
functional is a linear form in T, and with x/y/z settings the channel
shrinks the wing's Bloch part by bloch_shrink_factor, so every ladder row
follows from row 1. Everything here is built from util.pauli and np.kron;
it is a cross-check only, never a path the package takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import InequalityKind, Scenario, SearchConfig, bloch_shrink_factor
from seqsteer.inequalities import required_terms
from seqsteer.measurement import averaged_channel
from util import (
    TABLE_CASES,
    pauli,
    random_mixed_state,
    random_pure_state,
    random_triple,
    table_key,
    value_from_state,
)

BASIS = (np.eye(2, dtype=complex), pauli("X"), pauli("Y"), pauli("Z"))

seeds = st.integers(min_value=0, max_value=2**32 - 1)
lams = st.floats(min_value=1e-3, max_value=1.0)


def correlation_tensor(rho):
    """T[a, b, c] = Tr(rho s_a (x) s_b (x) s_c), s_0 = I, s_1..3 = X, Y, Z."""
    return np.array(
        [
            [[np.trace(rho @ np.kron(np.kron(a, b), c)).real for c in BASIS] for b in BASIS]
            for a in BASIS
        ]
    )


def bloch_map(triple):
    """The averaged channel on one wing's index of T: the I row is kept and
    r -> F r + (1 - F)/3 sum_s n_s n_s^T r, F = sqrt(1 - lam^2)."""
    f = np.sqrt(1.0 - triple.lam**2)
    units = [d.unit_vector for d in triple.directions]
    m = np.eye(4)
    m[1:, 1:] = f * np.eye(3) + (1.0 - f) / 3.0 * sum(np.outer(n, n) for n in units)
    return m


def linear_form(kind, seq_wing, triple):
    """(constant, C) with the functional's value constant + sum(C * T).

    Each term is a product of one 4-vector per wing: e_0 for I, the fixed
    axis elsewhere, and lam times the observer's setting direction on the
    sequential wing, whose symbol numbers the setting (X, Y, Z as 1, 2, 3).
    """
    units = [d.unit_vector for d in triple.directions]
    form = np.zeros((4, 4, 4))
    for term in required_terms(kind):
        vectors = []
        for wing, sym in enumerate(term.ops):
            v = np.zeros(4)
            if sym == "I":
                v[0] = 1.0
            else:
                k = "XYZ".index(sym) if sym in "XYZ" else int(sym[1]) - 1
                if wing == seq_wing:
                    v[1:] = triple.lam * units[k]
                else:
                    v[1 + k] = 1.0
            vectors.append(v)
        form += term.coeff * np.einsum("a,b,c->abc", *vectors)
    return 1.0, form


@pytest.mark.parametrize("case", TABLE_CASES, ids=lambda c: "-".join(table_key(*c)))
def test_every_ladder_row_follows_from_row_one_and_the_shrink_law(case, tables):
    # build_table pins each predecessor at its row plus tol, x/y/z settings,
    # so row m needs lam_m * prod_{k<m} S(lam_k + tol) = row 1's root
    tol = SearchConfig.tol
    table = tables[table_key(*case)]
    lams = [lam for _, lam in table.rows if lam is not None]
    shrink = 1.0
    for lam in lams:
        assert lam * shrink == pytest.approx(lams[0], abs=1e-4)
        shrink *= bloch_shrink_factor(min(1.0, lam + tol))
    # and the ladder ends where the law asks for a sharpness above 1
    assert table.rows[-1][1] is None
    assert lams[0] / shrink > 1.0


@settings(max_examples=40, deadline=None)
@given(seed=seeds, wing=st.integers(min_value=0, max_value=2), lam=lams)
def test_channel_is_the_bloch_map_on_the_correlation_tensor(seed, wing, lam):
    rng = np.random.default_rng(seed)
    rho = random_mixed_state(rng)
    triple = random_triple(rng, lam)
    got = correlation_tensor(averaged_channel(rho, wing, triple))
    mapped = np.tensordot(bloch_map(triple), correlation_tensor(rho), axes=(1, wing))
    want = np.moveaxis(mapped, 0, wing)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    lam=lams,
    scenario=st.sampled_from(list(Scenario)),
    kind=st.sampled_from(list(InequalityKind)),
    pure=st.booleans(),
)
def test_functional_is_a_linear_form_in_the_correlation_tensor(seed, lam, scenario, kind, pure):
    rng = np.random.default_rng(seed)
    rho = random_pure_state(rng) if pure else random_mixed_state(rng)
    triple = random_triple(rng, lam)
    constant, form = linear_form(kind, scenario.sequential_wing, triple)
    want = constant + float(np.sum(form * correlation_tensor(rho)))
    assert abs(value_from_state(rho, scenario, kind, triple) - want) <= 1e-12
