"""Shared helpers and frozen reference values for the test suite.

The numeric constants below were produced by an independent scratch
implementation (plain matrix algebra, no package imports) and are kept
frozen here so regressions in the package cannot silently re-derive
them.
"""

import functools
import math
import operator
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np

from seqsteer import (
    GHZ,
    W,
    BlochDirection,
    InequalityKind,
    Optimizer,
    Scenario,
    ScenarioSpec,
    SearchConfig,
    SearchError,
    SettingTriple,
    StateKind,
    StateSpec,
    build_state,
    xyz_spec,
)
from seqsteer.cascade import states_along, term_expectations, value_from_terms
from seqsteer.inequalities import check_expectation, required_terms
from seqsteer.measurement import (
    OUTCOMES,
    effect,
    joint_probability,
    outcome_signs,
    outcome_table,
    setting_spreads,
    table_correlation,
)
from seqsteer.qop import (
    I2,
    XYZ,
    Z_DIR,
    projector_stack,
    require_sharpness,
    resolve_wing,
    spread,
    spread_product,
    validate_density,
)
from seqsteer.search import _AXES, LAMBDA_FLOOR, _best_direction, _coefficients

# ladder of minimal sharpness values per observer, bisection tolerance
# 1e-4, upper bracket endpoint reported, predecessors pinned at their
# reported value plus the tolerance; None marks the row where even a
# projective measurement stops violating
FROZEN_LADDERS = {
    ("ghz", "A", "g1"): (0.577393, 0.657898, 0.787598, None),
    ("ghz", "A", "g2"): (0.584412, 0.668518, 0.806335, None),
    ("ghz", "B", "g1"): (0.440979, 0.473328, 0.514160, 0.568054, 0.644104, 0.763855, None),
    ("ghz", "B", "g2"): (0.584412, 0.668518, 0.806335, None),
    ("w", "A", "w1"): (0.588379, 0.674500, 0.817139, None),
    ("w", "A", "w2"): (0.677673, 0.822876, None),
    ("w", "B", "w1"): (0.521667, 0.578308, 0.659302, 0.790039, None),
    ("w", "B", "w2"): (0.634216, 0.747253, 0.962646, None),
}

# single projective observer on the published settings
FROZEN_PURE_VALUES = {
    ("ghz", "g1"): -0.8453,
    ("ghz", "g2"): -0.581,
    ("w", "w1"): -0.7595,
    ("w", "w2"): -0.48037,
}

# the same four functionals on the product state |000>
FROZEN_PRODUCT_STATE_VALUES = {
    "g1": 0.488,
    "g2": 0.451,
    "w1": 2.7317,
    "w2": 2.5651,
}

# worked chains: (scenario, lambdas) -> per-observer values
FROZEN_CHAINS = {
    ("A", (0.627, 1.0)): (-0.0993, -0.550659),
    ("A", (0.627, 0.736, 1.0)): (-0.0993, -0.100444, -0.183417),
    ("B", (0.507, 1.0)): (-0.0999, -0.706140),
    ("B", (0.507, 0.558, 1.0)): (-0.0999, -0.099364, -0.550410),
}

TABLE_CASES = [
    (GHZ, Scenario.A, InequalityKind.G1),
    (GHZ, Scenario.A, InequalityKind.G2),
    (GHZ, Scenario.B, InequalityKind.G1),
    (GHZ, Scenario.B, InequalityKind.G2),
    (W, Scenario.A, InequalityKind.W1),
    (W, Scenario.A, InequalityKind.W2),
    (W, Scenario.B, InequalityKind.W1),
    (W, Scenario.B, InequalityKind.W2),
]


def table_key(state, scenario, inequality):
    return (state.kind.value, scenario.value, inequality.value)


def random_pure_state(rng, dim=8):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_mixed_state(rng, dim=8):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a @ a.conj().T
    return h / np.trace(h).real


def random_direction(rng):
    from seqsteer import BlochDirection

    return BlochDirection(
        theta=float(rng.uniform(0.0, np.pi)),
        phi=float(rng.uniform(0.0, 2.0 * np.pi)),
    )


def random_triple(rng, lam):
    from seqsteer import SettingTriple

    dirs = tuple(random_direction(rng) for _ in range(3))
    return SettingTriple(dirs, lam)


_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis):
    """Return the 2x2 Pauli matrix for axis 'X', 'Y' or 'Z'."""
    key = str(axis).upper()
    if key not in _PAULI:
        raise ValueError(f"unknown Pauli axis {axis!r}; expected one of X, Y, Z")
    return _PAULI[key].copy()


def partial_trace(rho, keep):
    """Reduce an 8x8 state to the single kept wing's 2x2 state."""
    if np.shape(rho) != (8, 8):
        raise ValueError(f"partial_trace expects an 8x8 matrix, got {np.shape(rho)}")
    t = np.asarray(rho).reshape(2, 2, 2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ijkljk->il", t)
    if keep == 1:
        return np.einsum("ijkimk->jm", t)
    return np.einsum("ijkijn->kn", t)


def bloch_vector(rho2):
    """Cartesian Bloch components of a single-qubit state."""
    return np.array(
        [float(np.trace(rho2 @ pauli(ax)).real) for ax in ("x", "y", "z")]
    )


def save_state_file(path, rho):
    """Write a density matrix in the format understood by load_state_file."""
    from seqsteer.qop import validate_density

    rho = validate_density(rho, name="state")
    with open(path, "w") as fh:
        for row in rho:
            fh.write(" ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row))
            fh.write("\n")


def oracle_bit_chains():
    """Chains whose oracle values and audit deviation are pinned bit for
    bit in reference/oracle_bits.json, keyed by a readable name.

    The four FROZEN_CHAINS specs, then eight seeded chains over GHZ, W
    and random pure and mixed states, every kind, both scenarios and
    one to four observers.
    """
    chains = {}
    for scenario, lambdas in sorted(FROZEN_CHAINS, key=repr):
        name = f"frozen-{scenario}-" + "-".join(map(str, lambdas))
        chains[name] = xyz_spec(Scenario(scenario), InequalityKind.G1, GHZ, lambdas)
    rng = np.random.default_rng(7)
    kinds = list(InequalityKind)
    for case in range(8):
        # the second four shift the state and the length against the kind
        scenario = Scenario.A if case < 4 else Scenario.B
        kind = kinds[case % 4]
        n = (case + 2 * (case // 4)) % 4 + 1
        lams = tuple(float(rng.uniform(0.2, 0.95)) for _ in range(n - 1)) + (1.0,)
        observers = tuple(random_triple(rng, lam) for lam in lams)
        which = (case + case // 4) % 4
        if which == 0:
            state, label = GHZ, "ghz"
        elif which == 1:
            state, label = W, "w"
        elif which == 2:
            state, label = StateSpec(StateKind.CUSTOM, custom=random_pure_state(rng)), "pure"
        else:
            state, label = StateSpec(StateKind.CUSTOM, custom=random_mixed_state(rng)), "mixed"
        name = f"seeded-{case}-{scenario.value}-{kind.value}-{label}-n{n}"
        chains[name] = ScenarioSpec(
            scenario=scenario, inequality=kind, state=state, observers=observers
        )
    return chains


# white-noise weight and local rotation angle (radians) of the seeded
# ladder states, drawn from [0, max): small enough that the ladders keep
# the shape of the published ones
NOISE_MAX = 0.05
ROTATION_MAX = 0.15


def _local_rotation(rng):
    """exp(-i a n.sigma / 2) about a random axis n, by a random angle a."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, ROTATION_MAX)
    generator = sum(a * pauli(ax) for a, ax in zip(axis, "XYZ"))
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * generator


def noisy_rotated_state(rng, spec):
    """spec's state under a small random unitary on each qubit, mixed
    with white noise of random weight, as a custom StateSpec."""
    u = np.kron(np.kron(_local_rotation(rng), _local_rotation(rng)), _local_rotation(rng))
    noise = rng.uniform(0.0, NOISE_MAX)
    rho = (1 - noise) * (u @ build_state(spec) @ u.conj().T) + noise * np.eye(8) / 8
    return StateSpec(StateKind.CUSTOM, custom=(rho + rho.conj().T) / 2)


def ladder_bit_cases():
    """Ladders whose to_json() is pinned byte for byte in
    reference/ladder_bits.json, keyed by a readable name, as
    (scenario, inequality, state, optimizer).

    The eight TABLE_CASES under GRID_REFINE (the golden files pin them
    under FIXED_XYZ), then two seeded noisy, locally rotated variants of
    each case's state, every variant under both optimizers.
    """
    cases = {}
    for state, scenario, kind in TABLE_CASES:
        name = "-".join(table_key(state, scenario, kind)) + "-grid-refine"
        cases[name] = (scenario, kind, state, Optimizer.GRID_REFINE)
    rng = np.random.default_rng(11)
    for state, scenario, kind in TABLE_CASES:
        for variant in range(2):
            noisy = noisy_rotated_state(rng, state)
            for optimizer in Optimizer:
                name = "-".join(
                    ("seeded",) + table_key(state, scenario, kind)
                    + (str(variant), optimizer.value)
                )
                cases[name] = (scenario, kind, noisy, optimizer)
    return cases


def _settings_and_value(terms, inequality, lam, optimizer):
    """The next observer's settings at sharpness lam, chosen per the
    optimizer, and the inequality value they attain on the state whose
    term_expectations are terms.

    This is the evaluated value that optimize_angles inlined and the
    threshold line replaced, kept literally so that both can be checked
    against it.
    """
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


def _direction_from_vector(v):
    norm = float(np.linalg.norm(v))
    if norm < 1e-15:
        return Z_DIR
    theta = math.acos(max(-1.0, min(1.0, float(v[2]) / norm)))
    phi = math.atan2(float(v[1]), float(v[0])) % (2.0 * math.pi)
    return BlochDirection(theta, phi)


def reference_best_direction(vec):
    """_best_direction as it was before the analytic candidate was
    formed inline: the six axes, then _direction_from_vector(-vec),
    whose zero-vector rule gave Z a second time.

    Kept literally, with _direction_from_vector above, so that the
    folded search can be checked against it bit for bit.
    """
    best, low = None, math.inf
    for d in _AXES + (_direction_from_vector(-vec),):
        value = float(d.unit_vector @ vec)
        if value < low - 1e-15:
            best, low = d, value
    return best, low


# the evaluated bisection's iteration cap; a tolerance of 1e-4 needs 14
REFERENCE_MAX_BISECTION_STEPS = 200


def reference_threshold_lambda(prefix, config):
    """threshold_lambda as an evaluated bisection: the value is computed
    at every midpoint, and the loop gives up after a fixed step count.

    This is the search the closed-form root replaced, kept literally so
    that the replayed bracket can be checked against it.
    """
    seq = prefix.sequential_wing
    *_, rho = states_along(build_state(prefix.state), seq, prefix.observers)
    terms = term_expectations(rho, prefix.inequality, seq)

    def f(lam):
        return _settings_and_value(terms, prefix.inequality, lam, config.optimizer)[1]

    f_sharp = f(1.0)
    if f_sharp >= -config.guard:
        return None
    f_floor = f(LAMBDA_FLOOR)
    if not f_sharp < f_floor:
        raise SearchError(
            "the inequality value does not decrease with sharpness "
            f"({f_sharp:.6g} at 1 vs {f_floor:.6g} near 0); bisection "
            "would return a wrong root"
        )

    lo, hi = LAMBDA_FLOOR, 1.0
    iterations = 0
    while hi - lo > config.tol:
        iterations += 1
        if iterations > REFERENCE_MAX_BISECTION_STEPS:
            raise SearchError(
                f"bisection failed to converge within {REFERENCE_MAX_BISECTION_STEPS} "
                f"iterations; bracket [{lo}, {hi}]"
            )
        mid = 0.5 * (lo + hi)
        if f(mid) < -config.guard:
            hi = mid
        else:
            lo = mid
    return hi


def decision_margins(table, state, config):
    """Each row's decision margin of the build_table ladder table on
    state under config, in value units, as a list.

    A row's bytes are set by its decisions alone: the "none" test
    f(1) >= -guard and, on a row with a threshold, one test per bracket
    step of whether the midpoint violates, f(mid) < -guard. Here f is the
    next observer's value at sharpness lam, with its settings chosen by
    config's optimizer, on the state the row reads: the shared state
    after every earlier observer's averaged channel at x, y, z with
    sharpness min(1, lambda_min + tol). Each f is evaluated directly, at
    1 and at every midpoint, the bracket is walked on those values, and
    it must end at the row's lambda_min. The margin is the smallest
    |f(x) + guard| over the row's decisions.

    Bound: under both optimizers f is affine in lam, and the search
    reads it only as the line base + lam * slope (search._line), which
    test_search checks against f at 1 and at LAMBDA_FLOOR. A change that
    moves each of those two values by at most eps moves the affine f by
    at most eps at every midpoint between them, so no decision flips,
    and no ladder byte changes, while eps stays below the margin less
    the rounding of the closed-form root and of these evaluations (a few
    ulps of values of order 1, below 1e-14). As a root error: with slope s of
    f, the root moves by at most eps / (|s| - 2 * eps / (1 - LAMBDA_FLOOR)),
    and the margin in sharpness units is margin / |s|.
    """
    seq = ScenarioSpec(table.scenario, table.inequality, state, ()).sequential_wing
    pinned = [lam for _, lam in table.rows if lam is not None]
    pins = [SettingTriple.xyz(min(1.0, lam + config.tol)) for lam in pinned]
    margins = []
    for (_, printed), rho in zip(table.rows, states_along(build_state(state), seq, pins)):
        terms = term_expectations(rho, table.inequality, seq)

        def gap(lam):
            value = _settings_and_value(terms, table.inequality, lam, config.optimizer)[1]
            return value + config.guard

        gaps = [gap(1.0)]
        lo, hi = LAMBDA_FLOOR, 1.0
        while gaps[0] < 0.0 and hi - lo > config.tol:
            mid = 0.5 * (lo + hi)
            gaps.append(gap(mid))
            if gaps[-1] < 0.0:
                hi = mid
            else:
                lo = mid
        assert (hi if gaps[0] < 0.0 else None) == printed, (printed, hi)
        margins.append(min(map(abs, gaps)))
    return margins


def _exact_matrix(rho):
    """rho's entries as exact rationals over one common denominator, as
    (numerators, denominator): numerators[r][c] is the (re, im) pair of
    integers of entry (r, c). A float entry is read as its exact value,
    and a Fraction or int as it is."""
    ratios = [
        [
            (Fraction(z).as_integer_ratio(), (0, 1)) if isinstance(z, (Fraction, int))
            else (complex(z).real.as_integer_ratio(), complex(z).imag.as_integer_ratio())
            for z in row
        ]
        for row in rho
    ]
    den = math.lcm(*(d for row in ratios for pair in row for _, d in pair))
    return [[tuple(n * (den // d) for n, d in pair) for pair in row] for row in ratios], den


def _pauli_expectation(numerators, den, axes):
    """Re Tr[rho (s0 x s1 x s2)] as a Fraction, rho an _exact_matrix and
    s_w the Pauli along axes[w] (0, 1, 2 for x, y, z) or the identity
    where it is None.

    Each such product has one entry i**k per row c, in column c ^ flip,
    so the trace reads eight entries of rho: the sum over c of
    i**k * rho[c ^ flip][c]. X and Y flip their wing's bit; Y is -i
    above its diagonal and +i below, and Z is -1 on |1>, so k is the
    number of Ys plus twice the number of Ys and Zs whose bit in c is 1.
    """
    flip = sum(4 >> w for w, a in enumerate(axes) if a in (0, 1))
    yz = sum(4 >> w for w, a in enumerate(axes) if a in (1, 2))
    total = 0
    for c in range(8):
        re, im = numerators[c ^ flip][c]
        total += (re, -im, -re, im)[(axes.count(1) + 2 * bin(c & yz).count("1")) % 4]
    return Fraction(total, den)


# the decimal context of the exact replays' square roots and roots
EXACT_CONTEXT = Context(prec=60)


def decimal_of(q):
    """The Fraction q as a Decimal, in the current context."""
    return Decimal(q.numerator) / Decimal(q.denominator)


def exact_shrink(p):
    """(1 + 2*sqrt(1 - p*p))/3 for the float or Decimal p, in the current
    context: the factor by which an observer at sharpness p on x, y, z
    scales every Pauli component on the sequential wing."""
    p = Decimal(p)
    return (1 + 2 * (1 - p * p).sqrt()) / 3


def _exact_projector(support):
    """The projector onto the equal superposition of the basis states in
    support, in Fractions: GHZ and W from their exact amplitudes."""
    weight = Fraction(1, len(support))
    return [[weight if {r, c} <= set(support) else 0 for c in range(8)] for r in range(8)]


EXACT_STATES = {GHZ: _exact_projector((0, 7)), W: _exact_projector((1, 2, 4))}


def exact_line(rho, scenario, inequality, optimizer=Optimizer.FIXED_XYZ, coeff=None):
    """The first observer's value base + lam * slope on the state rho in
    exact arithmetic, as (base, slope): base a Fraction, and slope a
    Decimal at 60 digits, since the grid-refine slope takes square roots.

    The term values are exact rationals, _pauli_expectation of rho's
    _exact_matrix; base is 1 plus the terms without a setting slot on
    the sequential wing, and each slot's vector v_i sums the others at x,
    y and z there. The slope is sum_i v_i[i] at x, y, z (FIXED_XYZ) or
    -sum_i |v_i| at each setting's optimum (GRID_REFINE). coeff gives
    each term's coefficient as a Fraction: by default the exact value of
    its float.
    """
    coeff = coeff or (lambda term: Fraction(term.coeff))
    seq = scenario.sequential_wing
    exact = _exact_matrix(rho)
    base, vecs = Fraction(1), [[Fraction(0)] * 3 for _ in range(3)]
    for term in required_terms(inequality):
        slot = term.axes[seq]
        if slot is None:
            base += coeff(term) * _pauli_expectation(*exact, term.axes)
            continue
        for axis in range(3):
            axes = tuple(axis if w == seq else a for w, a in enumerate(term.axes))
            vecs[slot][axis] += coeff(term) * _pauli_expectation(*exact, axes)
    with localcontext(EXACT_CONTEXT):
        if optimizer is Optimizer.FIXED_XYZ:
            return base, decimal_of(sum(vecs[i][i] for i in range(3)))
        return base, -sum(decimal_of(sum(x * x for x in v)).sqrt() for v in vecs)


def exact_rows(base, slope, config, first=1):
    """build_table's rows from row first on, for the line base + lam *
    slope of row first, replayed exactly, as (rows, margin): margin the
    smallest |x - root| over the row decisions, in sharpness units.

    A row is "none" when sharpness 1 does not violate; otherwise the
    float bracket is replayed as build_table runs it, each float midpoint
    compared with the line's root, taken in decimal at 60 digits. Every
    decision, the one at 1 included, adds its distance from the root to
    the margin. Pinning the row's observer at p = min(1, lambda_min +
    tol) on x, y, z leaves base alone and multiplies the next row's slope
    by exact_shrink(p).
    """
    with localcontext(EXACT_CONTEXT):
        # the value base + lam * slope lies below -guard exactly when
        # lam * slope < target, so 1 violates when slope < target
        target = decimal_of(-Fraction(config.guard) - base)
        rows, margin = [], math.inf
        for m in range(first, config.max_rows + 1):
            if slope < 0:
                root = target / slope
                margin = min(margin, abs(1 - root))
            if not slope < target:
                rows.append((m, None))
                break
            if not slope < 0:
                raise SearchError(f"row {m}: the value does not decrease with sharpness")
            lo, hi = LAMBDA_FLOOR, 1.0
            while hi - lo > config.tol:
                mid = 0.5 * (lo + hi)
                margin = min(margin, abs(Decimal(mid) - root))
                lo, hi = (lo, mid) if Decimal(mid) > root else (mid, hi)
            rows.append((m, hi))
            slope *= exact_shrink(min(1.0, hi + config.tol))
        return tuple(rows), float(margin)


def exact_ladder(rho, scenario, inequality, config=None, prefix=()):
    """build_table's ladder for the state rho replayed in exact
    arithmetic, as exact_rows gives it from exact_line's line.

    prefix holds the sharpness values of observers measuring x, y, z
    ahead of the ladder, as threshold_lambda's prefix does: the ladder's
    first row is then m = len(prefix) + 1, and its first slope is
    scaled by each prefix observer's shrink factor.

    It shares with the package only the term table, LAMBDA_FLOOR and
    SearchConfig.
    """
    config = config or SearchConfig()
    base, slope = exact_line(rho, scenario, inequality, config.optimizer)
    with localcontext(EXACT_CONTEXT):
        for lam in prefix:
            slope *= exact_shrink(lam)
    return exact_rows(base, slope, config, len(prefix) + 1)


def exact_chain(rho, scenario, inequality, lambdas):
    """Each observer's value on an x/y/z chain at the sharpness values
    lambdas, on the state rho, in exact arithmetic, as a list of Decimals
    at 60 digits.

    Observer m's value is base + lam_m * P_m * slope, with exact_line's
    x, y, z base and slope and P_m the product of exact_shrink(lam_k) over
    the observers k before m: each averaged channel on x, y, z leaves
    base alone and scales every Pauli component on the sequential wing.
    """
    base, slope = exact_line(rho, scenario, inequality)
    values = []
    with localcontext(EXACT_CONTEXT):
        for lam in lambdas:
            values.append(decimal_of(base) + Decimal(lam) * slope)
            slope *= exact_shrink(lam)
    return values


def exact_optimum(rho, scenario, inequality, lam):
    """The first observer's value at the sharpness lam with every setting
    along its optimal direction, on the state rho, in exact arithmetic,
    as a Decimal at 60 digits: base + lam * slope with exact_line's
    grid-refine slope, -sum_i |v_i|, one square root per setting.
    """
    base, slope = exact_line(rho, scenario, inequality, Optimizer.GRID_REFINE)
    with localcontext(EXACT_CONTEXT):
        return decimal_of(base) + Decimal(lam) * slope


def projector(d, outcome):
    """Projector (I + a n.sigma)/2 onto outcome a = +1 or -1 along d, a
    new array from d.observable on every call.

    This is the per-outcome projector that BlochDirection.projectors
    replaced, kept so that the stacks built from that attribute can be
    checked against it bit for bit.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    return (I2 + outcome * d.observable) / 2


def reference_effect(d, lam, outcome):
    """The unsharp effect lam*P_a + (1-lam)*I/2 for outcome a = +1 or -1
    along d, one 2x2 matrix per call.

    This is the per-matrix effect that the stack-wide one replaced, kept
    literally so that each matrix of a stack can be checked against it
    bit for bit.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {lam}")
    return lam * projector(d, outcome) + (1 - lam) * I2 / 2


def reference_effect_sqrt(d, lam, outcome):
    """The square root sqrt((1+lam)/2)*P_a + sqrt((1-lam)/2)*P_(-a) of
    one unsharp effect, one 2x2 matrix per call.

    This is the per-matrix root that the stack-wide one replaced, kept
    literally so that each Kraus operator can be checked against it bit
    for bit.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"sharpness must lie in (0, 1], got {lam}")
    root_a, root_b = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    return root_a * projector(d, outcome) + root_b * projector(d, -outcome)


def reference_tensor3(a, b, c):
    """Kronecker product a (x) b (x) c of three 2x2 matrices, wing order
    Alice (x) Bob (x) Charlie.

    Each factor may also be a stack of 2x2 matrices, shape (..., 2, 2);
    the stacks broadcast against each other and every 8x8 product is
    taken as if its three factors were passed alone.

    This is the 12-axis broadcast that tensor3's one gather per factor
    replaced, kept literally so that no reference shares the product
    it checks.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    for name, m in (("a", a), ("b", b), ("c", c)):
        if m.shape[-2:] != (2, 2):
            raise ValueError(f"tensor3 factor {name} must be 2x2 or a stack of 2x2, got {m.shape}")
    # entry (ikm, jln) is (a_ij * b_kl) * c_mn, the products np.kron takes
    # in the same order, so the bits match kron(kron(a, b), c)
    out = (
        a[..., :, None, None, :, None, None]
        * b[..., None, :, None, None, :, None]
        * c[..., None, None, :, None, None, :]
    )
    return out.reshape(out.shape[:-6] + (8, 8))


def reference_spread_tensor3(a, b, c):
    """Kronecker product a (x) b (x) c of three 2x2 matrices, or of
    stacks of them that broadcast, as the spread_product of the factors'
    spreads on wings 0, 1 and 2, after a check of their shapes.

    This is the qop.tensor3 that the callers' own spreads replaced, kept
    literally so that the products they build can be checked against it
    bit for bit.
    """
    a, b, c = np.asarray(a), np.asarray(b), np.asarray(c)
    for name, m in (("a", a), ("b", b), ("c", c)):
        if m.shape[-2:] != (2, 2):
            raise ValueError(f"tensor3 factor {name} must be 2x2 or a stack of 2x2, got {m.shape}")
    return spread_product(spread(a, 0), spread(b, 1), spread(c, 2))


def reference_direction_outcome_table(rhos, seq_wing, lam, dirs, cells):
    """outcome_table from each wing's tuple of BlochDirections in dirs,
    the unsharp effects at lam on seq_wing: one projector_stack per wing,
    taken at its cells with its outcome axis at the wing's place, and one
    reference_spread_tensor3 of those factors.

    This is the direction-taking outcome_table that the one reading each
    wing's setting_spreads replaced, kept literally so that the new path
    can be checked against it bit for bit.
    """
    seq_wing = resolve_wing(seq_wing)
    factors = []
    for wing, (wing_dirs, index) in enumerate(zip(dirs, cells)):
        stack = projector_stack(wing_dirs)
        if wing == seq_wing:
            stack = effect(stack, lam)
        shape = [1, 1, 1, 2, 2]  # the outcome axes, then the 2x2 factor
        shape[wing] = 2
        factors.append(np.take(stack, index, axis=0).reshape(np.shape(index) + tuple(shape)))
    ops = reference_spread_tensor3(*factors)
    n = len(rhos)
    cols = np.zeros((8, 8, -(-n // 8) * 8), complex)
    cols[..., :n] = rhos.transpose(2, 1, 0)
    d = (ops.reshape(-1, 8, 8).transpose(1, 0, 2) @ cols)[..., :n].real
    traces = ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] + d[7]))
    return traces.reshape(ops.shape[:-5] + (8, n))


def direction_outcome_table(rhos, seq_wing, lam, dirs, cells):
    """outcome_table of the cells of dirs, one tuple of BlochDirections
    per wing, with the unsharp effects at lam on seq_wing: each wing's
    setting_spreads taken at its index array of cells, as the package's
    callers build them."""
    seq_wing = resolve_wing(seq_wing)
    factors = [
        setting_spreads(d, w, lam if w == seq_wing else None, index)
        for w, (d, index) in enumerate(zip(dirs, cells))
    ]
    return outcome_table(rhos, factors)


def reference_setting_spreads(dirs, wing, lam=None):
    """The spreads on wing of the +1 and -1 projectors along each of the
    BlochDirections dirs, or of their unsharp effects at sharpness lam,
    as one (len(dirs), 2, 64) stack.

    This is setting_spreads before it took its factor at the cells, kept
    literally for reference_spread_outcome_table.
    """
    stack = projector_stack(dirs)
    return spread(stack if lam is None else effect(stack, lam), wing)


def reference_observer_setting_spreads(dirs, wing, lam=None, index=None):
    """setting_spreads of one observer: the spreads on wing of the
    projectors along the BlochDirections dirs, or of their effects at the
    one sharpness lam, taken at index, or with index None along the
    wing's own axis of the full grid.

    This is setting_spreads before it built a whole chain's factors in
    one call, kept literally, with the one-sharpness effect it called
    written out, so that the chain build can be checked against one call
    per observer bit for bit.
    """
    stack = projector_stack(dirs)
    if lam is not None:
        require_sharpness(lam)
        stack = lam * stack + (1 - lam) * I2 / 2
    spreads = spread(stack, wing)
    outcomes = [1, 1, 1, 64]
    outcomes[wing] = 2
    if index is None:
        cells = [1, 1, 1]
        cells[wing] = len(spreads)
        return spreads.reshape(cells + outcomes)
    return np.take(spreads, index, axis=0).reshape(np.shape(index) + tuple(outcomes))


def reference_seven_add_outcome_table(rhos, factors):
    """outcome_table with each entry's eight row products added by seven
    slice adds, ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] +
    d[7])).

    This is the row sum that three adds of half stacks replaced, kept
    literally so that the new sum can be checked against it bit for bit.
    """
    ops = spread_product(*factors)
    cells = ops.shape[:-5]
    k = int(rhos.ndim > 3)
    n = rhos.shape[-3]
    rows = ops.reshape(cells[:k] + (-1, 8, 8)).transpose(k + 1, *range(k + 1), k + 2)
    cols = np.zeros((8, *rhos.shape[:k], 8, -(-n // 8) * 8), complex)
    cols[..., :n] = rhos.reshape(rhos.shape[:k] + (n, 8, 8)).transpose(k + 2, *range(k), k + 1, k)
    d = (rows @ cols)[..., :n].real
    traces = ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] + d[7]))
    return traces.reshape(traces.shape[:-2] + cells[k:] + (8, n))


def reference_cumsum_table_correlation(tables, signs):
    """table_correlation with each state's eight signed outcomes added in
    one ordered cumsum along the strided outcome axis.

    This is the reduction that seven adds of whole arrays replaced, kept
    literally so that the new one can be checked against it bit for bit.
    """
    totals = np.cumsum(signs * tables, axis=1)[:, -1]
    return (0.0 + np.cumsum(totals, axis=1)[:, -1]).tolist()


def reference_np_sqrt_effect_sqrt(projectors, lam):
    """effect_sqrt with its two roots sqrt((1 + lam)/2) and sqrt((1 -
    lam)/2) taken by np.sqrt.

    This is the root that math.sqrt replaced, kept literally so that the
    new roots can be checked against it bit for bit.
    """
    require_sharpness(lam)
    root_a, root_b = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    return root_a * projectors + root_b * projectors[..., ::-1, :, :]


def reference_spread_outcome_table(rhos, spreads, cells):
    """outcome_table of one (n, 8, 8) stack of states, from each wing's
    reference_setting_spreads, (n_w, 2, 64), taken per call at its array
    of indices in cells with its outcome axis at the wing's place.

    This is the outcome_table that the one taking factors already
    gathered at their cells replaced, kept literally so that the new
    path, stacked or not, can be checked against it bit for bit.
    """
    factors = []
    for wing, (stack, index) in enumerate(zip(spreads, cells)):
        shape = [1, 1, 1, 64]  # the outcome axes, then the spread entries
        shape[wing] = 2
        factors.append(np.take(stack, index, axis=0).reshape(np.shape(index) + tuple(shape)))
    ops = spread_product(*factors)
    n = len(rhos)
    cols = np.zeros((8, 8, -(-n // 8) * 8), complex)
    cols[..., :n] = rhos.transpose(2, 1, 0)
    d = (ops.reshape(-1, 8, 8).transpose(1, 0, 2) @ cols)[..., :n].real
    traces = ((d[0] + d[4]) + (d[1] + d[5])) + ((d[2] + d[6]) + (d[3] + d[7]))
    return traces.reshape(ops.shape[:-5] + (8, n))


def reference_observer_spreads(seq_wing, triple):
    """Each wing's reference_setting_spreads in wing order: the triple's
    effects on the sequential wing and x, y, z's projectors elsewhere,
    all built per call, as before the projective factors were gathered
    once, at import."""
    return [
        reference_setting_spreads(triple.directions if w == seq_wing else XYZ, w,
                                  triple.lam if w == seq_wing else None)
        for w in (0, 1, 2)
    ]


def reference_oracle_plan(kind, seq_wing):
    """The oracle's read plan of one functional on one sequential wing,
    derived per call: the cells its terms read as one index tuple per
    wing, each term's row among them and the (T, 8, 1) stack of the
    terms' sign columns, each looked up by its sorted wing subset.

    This is the derivation run_cascade_oracle made on every call before
    the plans were built at import, kept literally so that the built
    plans can be checked against it.
    """
    terms = required_terms(kind)
    reads = [
        tuple((0 if w == seq_wing else 2) if a is None else a for w, a in enumerate(t.axes))
        for t in terms
    ]
    wings = [tuple(w for w, a in enumerate(t.axes) if a is not None) for t in terms]
    cells = sorted(set(reads))
    index = tuple(zip(*cells))  # one index array per wing
    rows = [cells.index(cell) for cell in reads]
    columns = {
        subset: np.array([[math.prod(o[w] for w in subset)] for o in OUTCOMES], dtype=float)
        for subset in ((), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))
    }
    return index, rows, np.array([columns[tuple(sorted(w))] for w in wings])


def reference_joint_operator(seq_wing, lam, dirs, outcomes):
    """One outcome triple's operator E (x) P (x) P, for one direction per
    wing in dirs, as its three factors and one Kronecker product.

    This is the per-outcome build the stacked one replaced, kept
    literally so that each row of the stack can be checked against it
    bit for bit; np.kron stands in for the 2x2 tensor3, which matches
    it bit for bit.
    """
    seq_wing = resolve_wing(seq_wing)
    ops = [
        reference_effect(d, lam, a) if w == seq_wing else projector(d, a)
        for w, (d, a) in enumerate(zip(dirs, outcomes))
    ]
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


def reference_joint_grid(seq_wing, lam, dirs):
    """The outcome operators of the full grid, shape (len(dirs[0]),
    len(dirs[1]), len(dirs[2]), 8, 8, 8), row k of each cell for the
    triple OUTCOMES[k], from one nested list of 2x2 factors per wing, one
    effect or projector per direction and outcome, and one
    reference_tensor3 product.

    This is the grid build that the per-wing factor stacks replaced,
    kept literally so that any cells of the new build can be checked
    against it bit for bit.
    """
    seq_wing = resolve_wing(seq_wing)
    grid = []
    for wing, wing_dirs in enumerate(dirs):
        build = (lambda d, a: reference_effect(d, lam, a)) if wing == seq_wing else projector
        shape = [1] * 6 + [2, 2]  # setting axes, outcome axes, then the 2x2 factor
        shape[wing], shape[3 + wing] = len(wing_dirs), 2
        grid.append(np.reshape([[build(d, a) for a in (1, -1)] for d in wing_dirs], shape))
    return reference_tensor3(*grid).reshape(tuple(map(len, dirs)) + (8, 8, 8))


def reference_probability_table(rho, seq_wing, lam, dirs):
    """joint_probability as a loop over every choice of one direction per
    wing from dirs and every outcome triple, one operator and one trace
    each: 216 probabilities for the audit's three directions per wing.

    This is the per-probability loop the audit ran for a model passed as
    prob_fn, kept literally and read through reference_joint_operator,
    never joint_probability, so that the default audit's table can be
    checked against it bit for bit.
    """
    return np.array([
        float((reference_joint_operator(seq_wing, lam, choice, o) @ rho).trace().real)
        for choice in product(*dirs)
        for o in OUTCOMES
    ]).reshape(tuple(map(len, dirs)) + (8,))


def left_sum(values):
    """values added left to right from 0.0: what builtin sum does with
    floats up to Python 3.11; from 3.12 on, sum compensates."""
    return functools.reduce(operator.add, values, 0.0)


def stacked_correlation(rhos, seq_wing, lam, dirs, wings):
    """The oracle's correlation of the outcomes on wings, summed over
    rhos, for one direction per wing in dirs: table_correlation of the
    outcome_table of that one cell."""
    table = direction_outcome_table(np.asarray(rhos), seq_wing, lam, [(d,) for d in dirs], (0, 0, 0))
    return table_correlation([table], outcome_signs([wings]))[0]


def reference_correlation(rhos, seq_wing, lam, dirs, wings):
    """stacked_correlation as a loop over the states, one operator per
    outcome and one trace per state and outcome.

    This is the loop the stacked trace replaced, kept literally so that
    the stacked trace can be checked against it bit for bit.
    """
    totals = [0.0] * len(rhos)
    for outcomes in product((1, -1), repeat=3):
        w = 1.0
        for wing in wings:
            w *= outcomes[wing]
        op = reference_joint_operator(seq_wing, lam, dirs, outcomes)
        for i, rho in enumerate(rhos):
            totals[i] += w * float((op @ rho).trace().real)
    return left_sum(totals)


def reference_outcome_table(rhos, ops):
    """outcome_table of one cell, given its (8, 8, 8) operator stack, one
    product per operator.

    This is the per-operator loop that the one product per stack
    replaced, kept literally so that the table can be checked against it
    bit for bit.
    """
    wide = np.asarray(rhos).transpose(1, 0, 2).reshape(8, -1)
    return np.array([
        np.ascontiguousarray((op @ wide).reshape(8, -1, 8).diagonal(0, 0, 2)).sum(-1).real
        for op in ops
    ])


def reference_wide_outcome_table(rhos, ops):
    """outcome_table as one full product of every operator with the
    states laid side by side, (8K, 8) @ (8, 8n), whose 8x8 blocks'
    diagonals are summed as trace sums them.

    This is the product that the diagonal-only one replaced, kept
    literally so that the table can be checked against it bit for bit.
    """
    rhos = np.asarray(rhos)
    wide = rhos.transpose(1, 0, 2).reshape(8, -1)
    blocks = (np.reshape(ops, (-1, 8, 8)) @ wide).reshape(-1, 8, len(rhos), 8)
    traces = np.ascontiguousarray(blocks.diagonal(0, 1, 3)).sum(-1).real
    return traces.reshape(np.shape(ops)[:-2] + (-1,))


def reference_table_correlation(table, wings):
    """table_correlation as a loop over the eight rows, each added with
    its sign to every state's running total.

    This is the loop that the ordered reduction replaced, kept literally
    so that the reduction can be checked against it bit for bit; its
    final builtin sum is spelled as the left_sum it was up to 3.11.
    """
    totals = np.zeros(table.shape[1])
    for row, outcomes in zip(table, OUTCOMES):
        totals += math.prod(outcomes[wing] for wing in wings) * row
    return left_sum(totals.tolist())


def reference_term_correlations(tables, wings):
    """table_correlation as one call per term of the per-term reduction:
    each (8, n) table signed by its wing subset's column and summed in
    one ordered cumsum over the outcomes, its states' totals added left
    to right from 0.0.

    This is the per-term loop that the one stacked reduction replaced,
    kept literally so that the stack can be checked against it bit for
    bit.
    """
    values = []
    for table, subset in zip(tables, wings):
        signs = np.array([[math.prod(o[w] for w in subset)] for o in OUTCOMES], dtype=float)
        totals = np.cumsum(signs * table, axis=0)[-1]
        values.append(functools.reduce(operator.add, totals.tolist(), 0.0))
    return values


def reference_luders_update(rho, wing, d, lam, outcome):
    """One selective Lueders update sqrt(E) rho sqrt(E) on one wing,
    identity on the others, one Kraus operator per call.

    This is the update that the stacked selective_updates replaced, kept
    literally so that the stack can be checked against it bit for bit.
    """
    mats = [I2, I2, I2]
    mats[resolve_wing(wing)] = reference_effect_sqrt(d, lam, outcome)
    k = reference_tensor3(*mats)
    return k @ rho @ k


def reference_grow_branches(branches, seq_wing, triple):
    """The oracle's branch growth as a list, one reference_luders_update per
    branch, direction and outcome.

    This is the growth the stacked update replaced, kept literally so
    that the stacked update can be checked against it bit for bit.
    """
    return [
        reference_luders_update(rho, seq_wing, d, triple.lam, outcome)
        for rho in branches
        for d in triple.directions
        for outcome in (1, -1)
    ]


def reference_averaged_channel(rho, wing, triple):
    """averaged_channel as its own loop over directions and outcomes,
    each reference_luders_update added to the running sum as it is made.

    This is the loop that selective_updates replaced, kept literally so
    that the channel can be checked against it bit for bit.
    """
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for d in triple.directions:
        for outcome in (1, -1):
            out += reference_luders_update(rho, wing, d, triple.lam, outcome)
    return validate_density(out / 3, name="channel output")


def reference_term_expectations(rho, inequality, seq_wing):
    """term_expectations as a loop over sigma_x, sigma_y, sigma_z for a
    term with a setting slot, one reference_tensor3 call and one trace
    per sigma.

    This is the loop that the stacked trace replaced, kept literally so
    that the stacked trace can be checked against it bit for bit.
    """
    sigmas = tuple(d.observable for d in XYZ)
    table = {}
    for term in required_terms(inequality):
        slot = term.axes[seq_wing]
        mats = [I2 if a is None else sigmas[a] for a in term.axes]
        if slot is None:
            x = float(np.trace(rho @ reference_tensor3(*mats)).real)
        else:
            x = np.empty(3)
            for k, sigma in enumerate(sigmas):
                mats[seq_wing] = sigma
                x[k] = np.trace(rho @ reference_tensor3(*mats)).real
        for e in [x] if slot is None else x.tolist():
            check_expectation(term.ops, e)
        table[term.ops] = (slot, x)
    return table


def value_from_state(rho, scenario, inequality, triple):
    """Inequality value for one observer given the state they receive."""
    terms = term_expectations(rho, inequality, scenario.sequential_wing)
    return value_from_terms(terms, inequality, triple)


def reference_audit(spec, prob_fn=None):
    """no_signalling_audit as a loop over observers and wings, each wing's
    P(+1) a builtin sum of its four +1 outcomes and its spread a max and
    a min over the two remote axes of the (3, 3, 3) table.

    This is the loop that the stacked reduction replaced, kept literally
    so that the stacked reduction can be checked against it by repr.
    """
    spec.require_observers()
    prob_fn = prob_fn or joint_probability
    seq_wing = spec.sequential_wing
    rhos = states_along(build_state(spec.state), seq_wing, spec.observers)
    spreads = []
    for triple, rho in zip(spec.observers, rhos):
        dirs = tuple(triple.directions if w == seq_wing else XYZ for w in (0, 1, 2))
        p = prob_fn(rho, seq_wing, triple.lam, dirs)
        # p[i, j, k, o] has axes wing 0's, 1's and 2's direction, then the
        # outcome triple; each wing's P(+1) must not move along the others'
        p = np.reshape(p, (3, 3, 3, 8))
        for wing in (0, 1, 2):
            plus = sum(p[..., k] for k, o in enumerate(OUTCOMES) if o[wing] == 1)
            remote = tuple(a for a in (0, 1, 2) if a != wing)
            spreads.append(np.max(plus, axis=remote) - np.min(plus, axis=remote))
    return float(np.max(spreads))


# the index-table audit's reads of an observer's (27, 8) table: for each
# wing w, its own direction by the nine remote direction pairs in table
# order, and w's four +1 outcomes in OUTCOMES order
_AUDIT_CELLS = np.stack(
    [np.moveaxis(np.arange(27).reshape(3, 3, 3), w, 0).reshape(3, 9, 1) for w in (0, 1, 2)]
)
_AUDIT_PLUS = np.array([[[[k for k, o in enumerate(OUTCOMES) if o[w] == 1]]] for w in (0, 1, 2)])


def reference_index_audit(spec, prob_fn=None):
    """no_signalling_audit as two index tables read it: every observer's
    table flattened to (27, 8), and every wing's four +1 outcomes taken at
    its own direction and remote cell by _AUDIT_CELLS and _AUDIT_PLUS,
    added in OUTCOMES order from 0.0.

    This is the reduction that the read through the table's shape
    replaced, kept literally so that the shape read can be checked
    against it by repr.
    """
    spec.require_observers()
    prob_fn = prob_fn or joint_probability
    seq_wing = spec.sequential_wing
    rhos = states_along(validate_density(build_state(spec.state)), seq_wing, spec.observers)
    tables = []
    for triple, rho in zip(spec.observers, rhos):
        dirs = tuple(triple.directions if w == seq_wing else XYZ for w in (0, 1, 2))
        table = prob_fn(rho, seq_wing, triple.lam, dirs)
        if np.shape(table) != (3, 3, 3, 8):
            raise ValueError(f"the model's table must have shape (3, 3, 3, 8), got {np.shape(table)}")
        tables.append(np.reshape(table, (27, 8)))
    p = np.stack(tables)
    plus = sum(np.moveaxis(p[:, _AUDIT_CELLS, _AUDIT_PLUS], -1, 0), 0.0)
    return float(np.max(np.max(plus, axis=-1) - np.min(plus, axis=-1)))


def reference_observer_audit(spec):
    """no_signalling_audit's quantum model one observer at a time: each
    state's own reference_spread_outcome_table of the full grid, from the
    factors gathered per call by reference_observer_spreads, then
    reference_moveaxis_deviation.

    This is the default audit that the one stacked outcome_table call
    replaced, kept literally so that the stacked call can be checked
    against it by repr.
    """
    spec.require_observers()
    seq_wing = spec.sequential_wing
    grid = np.ix_(range(3), range(3), range(3))
    rhos = states_along(validate_density(build_state(spec.state)), seq_wing, spec.observers)
    tables = [
        reference_spread_outcome_table(rho[None], reference_observer_spreads(seq_wing, t), grid)
        for t, rho in zip(spec.observers, rhos)
    ]
    return reference_moveaxis_deviation(tables)


def reference_moveaxis_deviation(tables):
    """no_signalling_audit's reduction of a stack of (3, 3, 3, 8) tables:
    each wing's four +1 outcomes taken off the table's outcome axes and
    moved behind its own direction by moveaxis, one stack per wing, and
    added in OUTCOMES order from 0.0.

    This is the reduction that one gather through an index built at
    import replaced, kept literally so that the gather can be checked
    against it by repr.
    """
    p = np.reshape(tables, (-1, 3, 3, 3, 2, 2, 2))
    wings = [np.moveaxis(p.take(0, axis=4 + w), 1 + w, 1).reshape(-1, 3, 9, 4) for w in (0, 1, 2)]
    plus = sum(np.moveaxis(np.stack(wings, axis=1), -1, 0), 0.0)
    return float(np.max(np.max(plus, axis=-1) - np.min(plus, axis=-1)))
