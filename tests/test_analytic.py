"""The analytic picture, checked against the package's matrix path.

A three-qubit state is its 4x4x4 real correlation tensor
T[a, b, c] = Tr(rho s_a (x) s_b (x) s_c) in the basis I, X, Y, Z. The
averaged channel acts on the sequential wing's index alone, each
functional is a linear form in T, and with x/y/z settings the channel
shrinks the wing's Bloch part by bloch_shrink_factor, so every ladder row
follows from row 1. Everything here is built from util.pauli and np.kron;
it is a cross-check only, never a path the package takes.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsteer import InequalityKind, Scenario, SearchConfig, bloch_shrink_factor
from seqsteer.inequalities import required_terms
from seqsteer.measurement import averaged_channel
from seqsteer.qop import XYZ, effect_sqrt, projector_stack
from util import (
    EXACT_CONTEXT,
    TABLE_CASES,
    decimal_of,
    exact_shrink,
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


# ------------------------------------------------------------------ #
# the shrink law proved from the Kraus operators, exactly            #
# ------------------------------------------------------------------ #
#
# An element of Q(i)[r+, r-] is a dict from the monomial r+^i r-^j, as
# (i, j), to its Gaussian-rational coefficient (re, im), two Fractions.
# Products are taken unreduced, so the coefficients keep the small
# denominators of the exact projectors and Paulis; reduce() then puts in
# r+^2 = (1 + lam)/2 and r-^2 = (1 - lam)/2 at one sharpness lam.


def _ring(re=0, im=0, monomial=(0, 0)):
    return {monomial: (Fraction(re), Fraction(im))} if re or im else {}


def _ring_add(*elements):
    out = {}
    for element in elements:
        for key, (re, im) in element.items():
            old_re, old_im = out.get(key, (0, 0))
            out[key] = (old_re + re, old_im + im)
    return {key: c for key, c in out.items() if c != (0, 0)}


def _ring_mul(u, v):
    out = [
        _ring(a * c - b * d, a * d + b * c, (i + k, j + l))
        for (i, j), (a, b) in u.items()
        for (k, l), (c, d) in v.items()
    ]
    return _ring_add(*out)


def _mat(rows):
    """A 2x2 matrix of Gaussian integers, Python ints or complexes, as a
    matrix over the ring."""
    return [[_ring(Fraction(z.real), Fraction(z.imag)) for z in row] for row in rows]


def _mat_add(*ms):
    return [[_ring_add(*(m[r][c] for m in ms)) for c in range(2)] for r in range(2)]


def _mat_mul(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = [
            [_ring_add(*(_ring_mul(out[r][k], m[k][c]) for k in range(2))) for c in range(2)]
            for r in range(2)
        ]
    return out


def _mat_scale(s, m):
    """m times s, s a ring element or a rational."""
    s = s if isinstance(s, dict) else _ring(s)
    return [[_ring_mul(s, m[r][c]) for c in range(2)] for r in range(2)]


def _reduce(m, lam):
    """m at sharpness lam: each r+^2 as (1 + lam)/2 and each r-^2 as
    (1 - lam)/2, leaving at most r+ and r- to the first power."""
    squares = ((1 + lam) / 2, (1 - lam) / 2)
    out = []
    for row in m:
        out.append([])
        for element in row:
            terms = []
            for (i, j), (re, im) in element.items():
                scale = squares[0] ** (i // 2) * squares[1] ** (j // 2)
                terms.append(_ring(scale * re, scale * im, (i % 2, j % 2)))
            out[-1].append(_ring_add(*terms))
    return out


_EXACT_PAULIS = [_mat(p) for p in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]
_EXACT_I = _mat([[1, 0], [0, 1]])
_R_PLUS, _R_MINUS = _ring(1, 0, (1, 0)), _ring(1, 0, (0, 1))
# the +1 and -1 projectors (I +- sigma_n)/2 along x, y, z
_EXACT_PROJECTORS = [
    [_mat_add(_mat_scale(Fraction(1, 2), _EXACT_I), _mat_scale(Fraction(a, 2), s)) for a in (1, -1)]
    for s in _EXACT_PAULIS
]
# the model's Kraus operator for outcome a along n: r+ P_a + r- P_-a,
# effect_sqrt's closed form
_EXACT_KRAUS = [
    [_mat_add(_mat_scale(_R_PLUS, pair[a]), _mat_scale(_R_MINUS, pair[1 - a])) for a in (0, 1)]
    for pair in _EXACT_PROJECTORS
]
# (1/3) sum over n and a of K sigma_b K, unreduced, for sigma_b = I, x, y, z
_EXACT_CHANNEL = [
    _mat_scale(Fraction(1, 3), _mat_add(*(_mat_mul(k, s, k) for ks in _EXACT_KRAUS for k in ks)))
    for s in (_EXACT_I, *_EXACT_PAULIS)
]


def _published_pins(tables):
    """Every distinct sharpness at which build_table pins an observer on
    the eight published ladders, min(1, row + tol), as exact Fractions."""
    pins = {
        min(1.0, lam + SearchConfig.tol)
        for table in tables.values()
        for _, lam in table.rows
        if lam is not None
    }
    return sorted(Fraction(p) for p in pins)


def _ulps(got, exact, scale):
    """|got - exact| in units of the last place of the float scale."""
    return abs(Decimal(got) - exact) / Decimal(math.ulp(scale))


def test_the_shrink_law_holds_exactly_for_the_kraus_operators(tables):
    # at every pin of the published ladders, in Q(i)[r+, r-] with r+^2 and
    # r-^2 exact: the Kraus operators are the effects' roots and sum to I
    # in square, and the averaged x, y, z channel maps I to I and each
    # sigma_b to sigma_b (1 + 4 r+ r-)/3, 2 r+ r- = sqrt(1 - lam^2): the
    # shrink factor that exact_ladder and build_table rely on
    pins = _published_pins(tables)
    assert len(pins) == 24
    for lam in pins:
        noise = _mat_scale((1 - lam) / 2, _EXACT_I)
        for kraus, pair in zip(_EXACT_KRAUS, _EXACT_PROJECTORS):
            effects = [_mat_add(_mat_scale(lam, p), noise) for p in pair]
            squares = [_reduce(_mat_mul(k, k), lam) for k in kraus]
            assert squares == effects
            assert _mat_add(*squares) == _EXACT_I
        assert _reduce(_EXACT_CHANNEL[0], lam) == _EXACT_I
        shrink = _ring_add(_ring(Fraction(1, 3)), _ring(Fraction(4, 3), 0, (1, 1)))
        for sigma, mapped in zip(_EXACT_PAULIS, _EXACT_CHANNEL[1:]):
            assert _reduce(mapped, lam) == _mat_scale(shrink, sigma)


def test_effect_sqrt_and_the_shrink_factor_lie_within_ulps_of_exact(tables):
    # the float closed forms at every published pin, against their exact
    # values at 60 digits: effect_sqrt's r+ P_a + r- P_-a on the x, y, z
    # projectors the package builds (their cos(pi/2) terms included), each
    # entry within 2 ulps of the sum of its two products' magnitudes, and
    # bloch_shrink_factor within 2 ulps of (1 + 2 sqrt(1 - lam^2))/3; the
    # worst seen are 0.94 and 1.06 ulps
    projectors = projector_stack(XYZ)
    worst_root = worst_shrink = Decimal(0)
    with localcontext(EXACT_CONTEXT):
        for pin in _published_pins(tables):
            lam = float(pin)
            roots = effect_sqrt(projectors, lam)
            r_plus, r_minus = (decimal_of((1 + s * pin) / 2).sqrt() for s in (1, -1))
            for index in np.ndindex(roots.shape):
                flipped = index[:-3] + (1 - index[-3],) + index[-2:]
                for part in ("real", "imag"):
                    p, q = (float(getattr(projectors[i], part)) for i in (index, flipped))
                    exact = r_plus * Decimal(p) + r_minus * Decimal(q)
                    scale = float(abs(r_plus * Decimal(p)) + abs(r_minus * Decimal(q)))
                    if scale:
                        got = float(getattr(roots[index], part))
                        worst_root = max(worst_root, _ulps(got, exact, scale))
            exact = exact_shrink(lam)  # Decimal(lam) is the pin exactly
            worst_shrink = max(worst_shrink, _ulps(bloch_shrink_factor(lam), exact, float(exact)))
    assert worst_root <= 2
    assert worst_shrink <= 2
