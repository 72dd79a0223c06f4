"""Seeded inputs, timed operations and output checks for each workload.

A workload turns a seed into a pool: one pass of inputs in a fixed
order.  Its `run` is the timed operation.  `verify` runs outside the
timed region and raises `CheckFailure` when an output is wrong.
`fingerprint` reduces an output to a value compared across repeats of
the same input, so every op is checked, not only the first one per
input.

Each workload calls the package only through public functions, looked
up on the module at call time so that a tracer can rebind them.  The
seed draws noise weights, local rotations, sharpness values and
setting directions; the shape of a pass (which cases, which chain
lengths, which subcommands) is fixed, so every seed asks for about the
same amount of work.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import seqsteer
import seqsteer.cli

BENCH_DIR = Path(__file__).resolve().parent

# Noise weight and local rotation angle (radians) are drawn uniformly
# from [0, max).  Small enough that seeded ladders keep the shape of the
# published ones, so few of them end at row 1.
NOISE_MAX = 0.05
ROTATION_MAX = 0.15

# Longest chain handed to the branch-enumeration oracle when confirming
# ladder rows.  The oracle costs 6^(n-1) branches: a 3-observer chain
# takes 0.35-0.85 s, a 4-observer chain 2-5.5 s.  Most seeded ladders
# are confirmed up to 3 observers (rows 1-2).  The seeded variant of
# FULL_ORACLE_CASE, the longest published ladder and the cheapest to
# enumerate, is confirmed up to the package's own limit, so row 3 is
# checked once per pass.
ORACLE_CHECK_CHAIN = 3
FULL_ORACLE_CASE = ("ghz", "B", "g1")

# Oracle and averaged-channel values must agree this closely.
ORACLE_AGREEMENT = 1e-10

# Tolerances the test suite uses against the frozen reference values.
FROZEN_LADDER_TOL = 1e-5
FROZEN_CHAIN_TOL = 5e-4


class CheckFailure(Exception):
    """An op's output failed its correctness check."""


def load_reference(root):
    """The test suite's frozen values (tests/util.py) as a module."""
    path = Path(root) / "tests" / "util.py"
    spec = importlib.util.spec_from_file_location("seqsteer_frozen_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- seeded generator -----------------------------------------------------

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _pure(kind):
    psi = np.zeros(8, dtype=complex)
    if kind == "ghz":
        psi[0] = psi[7] = 1 / np.sqrt(2)
    else:
        psi[1] = psi[2] = psi[4] = 1 / np.sqrt(3)
    return np.outer(psi, psi.conj())


def _local_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, ROTATION_MAX)
    generator = sum(a * s for a, s in zip(axis, _SIGMA))
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * generator


def noisy_state(rng, kind):
    """GHZ or W, rotated by a small random unitary on each qubit and
    mixed with white noise of random weight, as a custom StateSpec."""
    u = np.kron(np.kron(_local_rotation(rng), _local_rotation(rng)), _local_rotation(rng))
    noise = rng.uniform(0.0, NOISE_MAX)
    rho = (1 - noise) * (u @ _pure(kind) @ u.conj().T) + noise * np.eye(8) / 8
    rho = (rho + rho.conj().T) / 2
    return seqsteer.StateSpec(seqsteer.StateKind.CUSTOM, rho)


def random_triple(rng, lam):
    directions = tuple(
        seqsteer.BlochDirection(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi))
        for _ in range(3)
    )
    return seqsteer.SettingTriple.from_directions(directions, lam)


# --- ladders ----------------------------------------------------------------


@dataclass(frozen=True)
class LadderInput:
    label: str
    state: object
    scenario: object
    inequality: object
    published: tuple = None  # key into FROZEN_LADDERS for the eight published cases
    oracle_chain: int = ORACLE_CHECK_CHAIN  # longest chain the oracle confirms


class Ladders:
    """One op is one build_table call.  A pass holds the eight published
    ladders interleaved with one seeded noisy, rotated variant of each."""

    fresh_process = False

    def __init__(self, name, root, optimizer):
        self.name = name
        self.reference = load_reference(root)
        golden = Path(root) / "tests" / "golden"
        self.golden = {p.name: p.read_text() for p in golden.iterdir()}
        self.config = seqsteer.SearchConfig(optimizer=optimizer)

    def pool(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for state, scenario, kind in self.reference.TABLE_CASES:
            key = (state.kind.value, scenario.value, kind.value)
            items.append(LadderInput("_".join(key), state, scenario, kind, key))
            chain = (
                seqsteer.cascade.ORACLE_MAX_OBSERVERS
                if key == FULL_ORACLE_CASE
                else ORACLE_CHECK_CHAIN
            )
            items.append(
                LadderInput(
                    "seeded_" + "_".join(key),
                    noisy_state(rng, state.kind.value),
                    scenario,
                    kind,
                    oracle_chain=chain,
                )
            )
        return items

    def warmup(self, item):
        prefix = seqsteer.ScenarioSpec(item.scenario, item.inequality, item.state, ())
        seqsteer.search.threshold_lambda(prefix, self.config)

    def run(self, item):
        return seqsteer.search.build_table(
            item.scenario, item.inequality, item.state, self.config
        )

    run_traced = run

    def fingerprint(self, table):
        return table.to_json()

    def verify(self, item, table):
        if item.published is not None:
            self._verify_published(item, table)
        else:
            self._confirm_with_oracle(item, table)
            if self.config.optimizer is not seqsteer.Optimizer.FIXED_XYZ:
                self._verify_not_worse_than_xyz(item, table)

    def _verify_published(self, item, table):
        name = "_".join(item.published)
        if table.to_csv() != self.golden[f"{name}.csv"]:
            raise CheckFailure(f"{item.label}: CSV differs from tests/golden/{name}.csv")
        golden_json = self.golden.get(f"{name}.json")
        if golden_json is not None and table.to_json() + "\n" != golden_json:
            raise CheckFailure(f"{item.label}: JSON differs from tests/golden/{name}.json")
        expected = self.reference.FROZEN_LADDERS[item.published]
        got = tuple(lam for _, lam in table.rows)
        if len(got) != len(expected) or any(
            (g is None) != (e is None) or (e is not None and abs(g - e) > FROZEN_LADDER_TOL)
            for g, e in zip(got, expected)
        ):
            raise CheckFailure(f"{item.label}: rows {got} differ from FROZEN_LADDERS {expected}")

    def _candidate(self, item, prefix, m, lam):
        """Observer m's settings at sharpness lam, chosen the way the
        ladder's search chose them."""
        if self.config.optimizer is seqsteer.Optimizer.FIXED_XYZ:
            return seqsteer.SettingTriple.xyz(lam)
        spec = seqsteer.ScenarioSpec(
            item.scenario, item.inequality, item.state,
            prefix + (seqsteer.SettingTriple.xyz(lam),),
        )
        triple, _ = seqsteer.search.optimize_angles(spec, m, self.config)
        return triple

    def _confirm_with_oracle(self, item, table):
        """Each row whose oracle chain fits item.oracle_chain observers:
        a numeric row must violate at its own reported sharpness, with
        the predecessors pinned as the ladder pins them; a 'none' row
        must not violate even projectively."""
        pins = ()
        for m, lam in table.rows:
            if m + (lam is not None) > item.oracle_chain:
                return
            if lam is None:
                observers = pins + (self._candidate(item, pins, m, 1.0),)
            else:
                observers = pins + (
                    self._candidate(item, pins, m, lam),
                    seqsteer.SettingTriple.xyz(1.0),
                )
            spec = seqsteer.ScenarioSpec(item.scenario, item.inequality, item.state, observers)
            value = seqsteer.cascade.run_cascade_oracle(spec).values[m - 1]
            if lam is None and value < -self.config.guard - ORACLE_AGREEMENT:
                raise CheckFailure(f"{item.label}: row {m} is 'none' but the oracle finds {value:.3e}")
            if lam is not None and not value < 0.0:
                raise CheckFailure(
                    f"{item.label}: row {m} (lambda {lam}) is not negative under the oracle: {value:.3e}"
                )
            if lam is not None:
                pins += (seqsteer.SettingTriple.xyz(min(1.0, lam + self.config.tol)),)

    def _verify_not_worse_than_xyz(self, item, table):
        xyz = seqsteer.search.build_table(item.scenario, item.inequality, item.state)
        opt_rows = [lam for _, lam in table.rows if lam is not None]
        xyz_rows = [lam for _, lam in xyz.rows if lam is not None]
        if len(opt_rows) < len(xyz_rows) or any(o > x for o, x in zip(opt_rows, xyz_rows)):
            raise CheckFailure(f"{item.label}: optimized rows {opt_rows} worse than x/y/z {xyz_rows}")

    def describe(self, pool, outputs):
        """Ladder-length histogram and row-1 share of the seeded ladders."""
        seeded = [outputs[i] for i, item in enumerate(pool) if item.published is None and i in outputs]
        lengths = Counter(table.max_observers for table in seeded)
        at_row_1 = sum(1 for table in seeded if table.max_observers == 0)
        share = at_row_1 / len(seeded) if seeded else 0.0
        return [
            f"seeded ladders {len(seeded)}, ending at row 1: {at_row_1} ({share:.0%})",
            "seeded ladder length histogram (violating observers: count) "
            + json.dumps(dict(sorted(lengths.items()))),
        ]


# --- oracle audit -------------------------------------------------------------


@dataclass(frozen=True)
class ChainInput:
    label: str
    spec: object
    frozen: tuple = None  # FROZEN_CHAINS values for the worked chains


# (case index in TABLE_CASES, chain length) of the seeded chains in a pass.
# Lengths are fixed so that every seed costs the same; the one 4-observer
# chain sits on a GHZ case, whose oracle is 2.5x cheaper than a W one.
SEEDED_CHAINS = ((0, 4), (1, 3), (2, 3), (3, 3), (0, 3), (4, 2), (7, 2), (6, 3))


class OracleAudit:
    """One op cross-checks one chain: run_cascade, run_cascade_oracle and
    no_signalling_audit.  A pass holds the four FROZEN_CHAINS worked
    chains interleaved with eight seeded chains of 2-4 observers."""

    name = "oracle_audit"
    fresh_process = False

    def __init__(self, root):
        self.reference = load_reference(root)

    def pool(self, seed):
        rng = np.random.default_rng(seed)
        ref = self.reference
        frozen = [
            ChainInput(
                f"frozen_{scenario}_{len(lams)}",
                seqsteer.xyz_spec(
                    seqsteer.Scenario(scenario), seqsteer.InequalityKind.G1, seqsteer.GHZ, lams
                ),
                values,
            )
            for (scenario, lams), values in sorted(
                ref.FROZEN_CHAINS.items(), key=lambda kv: (kv[0][0], len(kv[0][1]))
            )
        ]
        seeded = []
        for case, length in SEEDED_CHAINS:
            state, scenario, kind = ref.TABLE_CASES[case]
            lams = [float(rng.uniform(0.5, 0.95)) for _ in range(length - 1)] + [1.0]
            spec = seqsteer.ScenarioSpec(
                scenario, kind, noisy_state(rng, state.kind.value),
                tuple(random_triple(rng, lam) for lam in lams),
            )
            seeded.append(ChainInput(f"seeded_{scenario.value}_{kind.value}_{length}", spec))
        # frozen 2-observer chain first: it doubles as the cheap warm-up
        items = []
        for i, chain in enumerate(seeded):
            if i % 2 == 0:
                items.append(frozen[i // 2])
            items.append(chain)
        return items

    def warmup(self, item):
        self.run(item)

    def run(self, item):
        channel = seqsteer.cascade.run_cascade(item.spec)
        oracle = seqsteer.cascade.run_cascade_oracle(item.spec)
        deviation = seqsteer.cascade.no_signalling_audit(item.spec)
        return channel.values, oracle.values, deviation

    run_traced = run

    def fingerprint(self, output):
        return repr(output)

    def verify(self, item, output):
        channel, oracle, deviation = output
        gap = max(abs(c - o) for c, o in zip(channel, oracle))
        if len(channel) != len(item.spec.observers) or gap > ORACLE_AGREEMENT:
            raise CheckFailure(f"{item.label}: oracle and channel differ by {gap:.3e}")
        if not deviation <= seqsteer.cli.AUDIT_BOUND:
            raise CheckFailure(f"{item.label}: no-signalling deviation {deviation:.3e}")
        if item.frozen is not None and any(
            abs(c - f) > FROZEN_CHAIN_TOL for c, f in zip(channel, item.frozen)
        ):
            raise CheckFailure(f"{item.label}: values {channel} differ from FROZEN_CHAINS {item.frozen}")

    def describe(self, pool, outputs):
        lengths = Counter(len(item.spec.observers) for item in pool)
        return ["chain length histogram per pass (observers: count) " + json.dumps(dict(sorted(lengths.items())))]


# --- command line -------------------------------------------------------------

# The five README invocations, without their --format flag.
CLI_COMMANDS = (
    ("cascade", "--state", "ghz", "--scenario", "A", "--lambdas", "0.627,0.736"),
    ("threshold", "--state", "ghz", "--scenario", "A", "--lambdas", "0.627"),
    ("table", "--state", "w", "--scenario", "B", "--ineq", "w2"),
    ("optimize", "--state", "w", "--ineq", "w1", "--lambdas", "0.83"),
    ("audit", "--state", "ghz", "--lambdas", "0.7,1.0"),
)
CLI_FORMATS = ("text", "csv", "json")
CLI_REFERENCE = BENCH_DIR / "reference" / "cli_stdout.json"
CLI_ROUNDS = 3  # rounds of the five subcommands per pass


@dataclass(frozen=True)
class CliInput:
    argv: tuple
    expected: str


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    max_rss_kb: int


class Cli:
    """One op is a fresh `python -m seqsteer.cli` process running one of
    the five README subcommands; the seed draws each op's output format.
    The traced run calls cli.main in-process instead."""

    name = "cli"
    fresh_process = True  # `run` spawns a process; `run_traced` does not,
    # so only the timed run is scaled by the fresh-process reference

    def __init__(self, root):
        self.root = Path(root)
        self.reference = json.loads(CLI_REFERENCE.read_text())

    def pool(self, seed):
        rng = np.random.default_rng(seed)
        items = []
        for _ in range(CLI_ROUNDS):
            for command in CLI_COMMANDS:
                argv = command + ("--format", CLI_FORMATS[rng.integers(len(CLI_FORMATS))])
                items.append(CliInput(argv, self.reference[" ".join(argv)]))
        return items

    def warmup(self, item):
        self.run_traced(item)

    def run(self, item):
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqsteer.cli", *item.argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=self.root,
        )
        with proc.stdout:
            stdout = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOutput(proc.returncode, stdout, usage.ru_maxrss)

    def run_traced(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = seqsteer.cli.main(list(item.argv))
        return CliOutput(code, buf.getvalue(), 0)

    def fingerprint(self, output):
        return (output.code, output.stdout)

    def verify(self, item, output):
        if output.code != 0:
            raise CheckFailure(f"{' '.join(item.argv)}: exit code {output.code}")
        if output.stdout != item.expected:
            raise CheckFailure(f"{' '.join(item.argv)}: stdout differs from the recorded reference")

    def describe(self, pool, outputs):
        return [f"{len(pool)} invocations per pass: " + ", ".join(" ".join(i.argv[:1] + i.argv[-1:]) for i in pool)]


def make(name, root):
    if name == "ladders_xyz":
        return Ladders(name, root, seqsteer.Optimizer.FIXED_XYZ)
    if name == "ladders_optimized":
        return Ladders(name, root, seqsteer.Optimizer.GRID_REFINE)
    if name == "oracle_audit":
        return OracleAudit(root)
    if name == "cli":
        return Cli(root)
    raise ValueError(f"unknown workload {name!r}")
