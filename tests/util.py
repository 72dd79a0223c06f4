"""Shared helpers and frozen reference values for the test suite.

The numeric constants below were produced by an independent scratch
implementation (plain matrix algebra, no package imports) and are kept
frozen here so regressions in the package cannot silently re-derive
them.
"""

import functools
import math
import operator
from itertools import product

import numpy as np

from seqsteer import (
    GHZ,
    W,
    InequalityKind,
    Optimizer,
    Scenario,
    ScenarioSpec,
    SearchError,
    StateKind,
    StateSpec,
    build_state,
    xyz_spec,
)
from seqsteer.cascade import states_along, term_expectations
from seqsteer.inequalities import check_expectation, required_terms, resolve
from seqsteer.measurement import (
    OUTCOMES,
    effect,
    joint_operators,
    outcome_table,
    table_correlation,
)
from seqsteer.qop import (
    I2,
    XYZ,
    effect_sqrt,
    projector,
    resolve_wing,
    tensor3,
    validate_density,
)
from seqsteer.search import LAMBDA_FLOOR, _settings_and_value

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


def reference_joint_operator(seq_wing, lam, dirs, outcomes):
    """One outcome triple's row of joint_operators, for one direction per
    wing in dirs, as its three factors and one Kronecker product.

    This is the per-outcome build the stacked one replaced, kept
    literally so that each row of the stack can be checked against it
    bit for bit; np.kron stands in for the 2x2 tensor3, which matches
    it bit for bit.
    """
    seq_wing = resolve_wing(seq_wing)
    ops = [
        effect(d, lam, a) if w == seq_wing else projector(d, a)
        for w, (d, a) in enumerate(zip(dirs, outcomes))
    ]
    return np.kron(np.kron(ops[0], ops[1]), ops[2])


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
    outcome_table of one joint_operators stack."""
    ops = joint_operators(seq_wing, lam, [(d,) for d in dirs])[0, 0, 0]
    return table_correlation(outcome_table(rhos, ops), wings)


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
    """outcome_table of one (8, 8, 8) stack, one product per operator.

    This is the per-operator loop that the one product per stack
    replaced, kept literally so that the table can be checked against it
    bit for bit.
    """
    wide = np.asarray(rhos).transpose(1, 0, 2).reshape(8, -1)
    return np.array([
        np.ascontiguousarray((op @ wide).reshape(8, -1, 8).diagonal(0, 0, 2)).sum(-1).real
        for op in ops
    ])


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


def reference_luders_update(rho, wing, d, lam, outcome):
    """One selective Lueders update sqrt(E) rho sqrt(E) on one wing,
    identity on the others, one Kraus operator per call.

    This is the update that the stacked selective_updates replaced, kept
    literally so that the stack can be checked against it bit for bit.
    """
    mats = [I2, I2, I2]
    mats[resolve_wing(wing)] = effect_sqrt(d, lam, outcome)
    k = tensor3(*mats)
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
    term with a setting slot, one tensor3 call and one trace per sigma.

    This is the loop that the stacked trace replaced, kept literally so
    that the stacked trace can be checked against it bit for bit.
    """
    sigmas = tuple(d.observable for d in XYZ)
    table = {}
    for term in required_terms(inequality):
        axes = resolve(term.ops)
        slot = axes[seq_wing]
        mats = [I2 if a is None else sigmas[a] for a in axes]
        if slot is None:
            x = float(np.trace(rho @ tensor3(*mats)).real)
        else:
            x = np.empty(3)
            for k, sigma in enumerate(sigmas):
                mats[seq_wing] = sigma
                x[k] = np.trace(rho @ tensor3(*mats)).real
        for e in [x] if slot is None else x.tolist():
            check_expectation(term.ops, e)
        table[term.ops] = (slot, x)
    return table
