"""Command-line front end.

Subcommands:

  cascade    run a chain of observers and report each inequality value
  threshold  minimal violating sharpness for the next observer
  table      full sharpness-threshold ladder until the chain ends
  optimize   best measurement directions for the last observer
  audit      worst no-signalling marginal deviation for a chain

A config file (INI style) can preload any flag; flags given on the
command line win.  Recognized sections and keys:

  [run]     state, scenario, direction, ineq, lambdas, format, out
  [search]  tol, optimizer

A value is checked the same way whether it comes from a flag or from
the config file; a bad one exits with status 2.
"""

import argparse
import configparser
import json
import sys

from .cascade import Scenario, no_signalling_audit, run_cascade, xyz_spec
from .inequalities import InequalityKind, SteeringDirection
from .search import (
    Optimizer,
    SearchConfig,
    SearchError,
    build_table,
    optimize_angles,
    threshold_lambda,
)
from .states import GHZ, W, StateFormatError, StateKind, custom_spec

AUDIT_BOUND = 1e-10

_RUN_KEYS = ("state", "scenario", "direction", "ineq", "lambdas", "format", "out")
_SEARCH_KEYS = ("tol", "optimizer")
_FORMATS = ("text", "csv", "json")

_FALLBACK_INEQ = {
    (StateKind.GHZ, SteeringDirection.ONE_TO_TWO): InequalityKind.G1,
    (StateKind.GHZ, SteeringDirection.TWO_TO_ONE): InequalityKind.G2,
    (StateKind.W, SteeringDirection.ONE_TO_TWO): InequalityKind.W1,
    (StateKind.W, SteeringDirection.TWO_TO_ONE): InequalityKind.W2,
}


class UsageError(ValueError):
    """Bad flags or config; exits with status 2."""


def _parse_state(text):
    if text == "ghz":
        return GHZ
    if text == "w":
        return W
    if text.startswith("custom:"):
        path = text[len("custom:") :]
        if not path:
            raise UsageError("custom state needs a path: --state custom:<path>")
        return custom_spec(path)
    raise UsageError(
        f"unknown state {text!r}; expected ghz, w or custom:<path>"
    )


def _parse_lambdas(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            lam = float(tok)
        except ValueError:
            raise UsageError(f"cannot parse sharpness {tok!r} as a number")
        if not 0.0 < lam <= 1.0:
            raise UsageError(f"sharpness {lam} outside (0, 1]")
        out.append(lam)
    if not out:
        raise UsageError("--lambdas needs at least one value")
    return tuple(out)


def _parse_choice(name, text, choices):
    """The member of choices (enum members or strings) named by text,
    or None when text is None."""
    if text is None:
        return None
    names = [getattr(c, "value", c) for c in choices]
    if text not in names:
        raise UsageError(
            f"unknown {name} {text!r}; expected one of " + ", ".join(names)
        )
    return list(choices)[names.index(text)]


def _parse_tol(text):
    try:
        tol = float(text)
    except ValueError:
        raise UsageError(f"cannot parse tolerance {text!r} as a number")
    if not 0.0 < tol < 1.0:
        raise UsageError(f"tolerance {tol} outside (0, 1)")
    return tol


def load_config(path):
    """Flat key-value config with [run] and [search] sections."""
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    except configparser.Error as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}")
    valid = {"run": _RUN_KEYS, "search": _SEARCH_KEYS}
    values = {}
    for section in parser.sections():
        if section not in valid:
            raise UsageError(
                f"unknown config section [{section}]; expected "
                + " or ".join(f"[{s}]" for s in valid)
            )
        for key, value in parser.items(section):
            if key not in valid[section]:
                raise UsageError(
                    f"unknown key {key!r} in section [{section}]; valid keys: "
                    + ", ".join(valid[section])
                )
            values[key] = value
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="seqsteer",
        description="Sequential unsharp observers on a shared three-qubit "
        "state, scored against genuine tripartite steering inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI config file preloading any flag")
        p.add_argument("--state", help="ghz, w or custom:<path>")
        p.add_argument("--scenario", help="A or B: which wing hosts the chain (default A)")
        p.add_argument(
            "--direction",
            help="1to2 or 2to1: picks the inequality for ghz/w states",
        )
        p.add_argument(
            "--ineq",
            help="g1, g2, w1 or w2: inequality to evaluate (required for custom states)",
        )
        p.add_argument("--lambdas", help="comma-separated sharpness list, e.g. 0.627,0.736")
        p.add_argument("--format", help="text, csv or json (default text)")
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.add_argument("--tol", help="bisection tolerance in (0, 1) (default 1e-4)")

    add_common(sub.add_parser("cascade", help="run a chain and report every value"))
    add_common(sub.add_parser("threshold", help="minimal violating sharpness"))
    add_common(sub.add_parser("table", help="threshold ladder until the chain ends"))
    add_common(sub.add_parser("optimize", help="best directions for the last observer"))
    add_common(sub.add_parser("audit", help="no-signalling marginal check"))
    return parser


def _resolve(args):
    """Merge config file and flags into a settled options dict."""
    cfg = load_config(args.config) if args.config else {}

    def pick(name, default=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return cfg.get(name, default)

    state = _parse_state(pick("state", "ghz"))
    scenario = _parse_choice("scenario", pick("scenario", "A"), Scenario)

    direction = _parse_choice("direction", pick("direction"), SteeringDirection)
    inequality = _parse_choice("ineq", pick("ineq"), InequalityKind)
    if inequality is not None:
        if direction is not None and inequality.direction is not direction:
            raise UsageError(
                f"--ineq {inequality.value} is a {inequality.direction.value} "
                f"inequality, which contradicts --direction {direction.value}"
            )
    else:
        key = (state.kind, direction or SteeringDirection.ONE_TO_TWO)
        if key not in _FALLBACK_INEQ:
            raise UsageError("a custom state needs an explicit --ineq")
        inequality = _FALLBACK_INEQ[key]

    lambdas_text = pick("lambdas")
    lambdas = _parse_lambdas(lambdas_text) if lambdas_text else None

    tol_text = pick("tol")
    tol = _parse_tol(tol_text) if tol_text is not None else 1e-4
    optimizer = _parse_choice("optimizer", cfg.get("optimizer"), Optimizer)

    return {
        "state": state,
        "scenario": scenario,
        "inequality": inequality,
        "lambdas": lambdas,
        "format": _parse_choice("format", pick("format", "text"), _FORMATS),
        "out": pick("out"),
        "tol": tol,
        "optimizer": optimizer,
    }


def _search_config(opts, default_optimizer=Optimizer.FIXED_XYZ):
    return SearchConfig(
        tol=opts["tol"],
        optimizer=opts["optimizer"] or default_optimizer,
    )


def _spec_from(opts, lambdas):
    return xyz_spec(opts["scenario"], opts["inequality"], opts["state"], lambdas)


def _cmd_cascade(opts):
    lambdas = list(opts["lambdas"] or (1.0,))
    if lambdas[-1] != 1.0:
        # the final observer has nobody downstream, so they measure sharply
        lambdas.append(1.0)
    result = run_cascade(_spec_from(opts, lambdas))
    if opts["format"] == "json":
        return result.to_json() + "\n", 0
    if opts["format"] == "csv":
        lines = ["observer,lambda,value,detected"]
        for m, (lam, value) in enumerate(zip(result.lambdas, result.values), start=1):
            flag = "true" if value < 0.0 else "false"
            lines.append(f"{m},{lam:.6f},{value:.6f},{flag}")
        return "\n".join(lines) + "\n", 0
    lines = [
        f"inequality {result.inequality.value}, state {opts['state'].kind.value}, "
        f"scenario {opts['scenario'].value}"
    ]
    for m, (lam, value) in enumerate(zip(result.lambdas, result.values), start=1):
        word = "violation" if value < 0.0 else "no violation"
        lines.append(f"observer {m}: lambda={lam:.6f}  value={value:+.6f}  {word}")
    return "\n".join(lines) + "\n", 0


def _cmd_threshold(opts):
    prefix_lambdas = opts["lambdas"] or ()
    prefix = _spec_from(opts, prefix_lambdas)
    lam = threshold_lambda(prefix, _search_config(opts))
    m = len(prefix_lambdas) + 1
    status = "none" if lam is None else "ok"
    if opts["format"] == "json":
        doc = {"m": m, "lambda_min": lam, "status": status}
        return json.dumps(doc, indent=2) + "\n", 0
    if opts["format"] == "csv":
        cell = "" if lam is None else f"{lam:.6f}"
        return f"m,lambda_min,status\n{m},{cell},{status}\n", 0
    if lam is None:
        return f"observer {m}: no violating sharpness exists\n", 0
    return f"observer {m}: lambda_min = {lam:.6f}\n", 0


def _cmd_table(opts):
    if opts["lambdas"] is not None:
        raise UsageError("table derives every sharpness itself; drop --lambdas")
    table = build_table(
        opts["scenario"], opts["inequality"], opts["state"], _search_config(opts)
    )
    if opts["format"] == "json":
        return table.to_json() + "\n", 0
    if opts["format"] == "csv":
        return table.to_csv(), 0
    lines = [
        f"inequality {table.inequality.value}, state {table.state}, "
        f"scenario {table.scenario.value}: up to {table.max_observers} "
        "observers can violate"
    ]
    for m, lam in table.rows:
        cell = "none" if lam is None else f"{lam:.6f}"
        lines.append(f"observer {m}: lambda_min = {cell}")
    return "\n".join(lines) + "\n", 0


def _cmd_optimize(opts):
    lambdas = opts["lambdas"] or (1.0,)
    spec = _spec_from(opts, lambdas)
    m = len(lambdas)
    config = _search_config(opts, default_optimizer=Optimizer.GRID_REFINE)
    triple, value = optimize_angles(spec, m, config)
    directions = triple.directions
    if opts["format"] == "json":
        doc = {
            "observer": m,
            "value": value,
            "settings": [
                {"theta": d.theta, "phi": d.phi} for d in directions
            ],
        }
        return json.dumps(doc, indent=2) + "\n", 0
    if opts["format"] == "csv":
        lines = ["observer,setting,theta,phi,value"]
        for k, d in enumerate(directions, start=1):
            lines.append(f"{m},{k},{d.theta:.6f},{d.phi:.6f},{value:.6f}")
        return "\n".join(lines) + "\n", 0
    lines = [f"observer {m}, inequality {opts['inequality'].value}"]
    for k, d in enumerate(directions, start=1):
        lines.append(f"setting {k}: theta={d.theta:.6f} phi={d.phi:.6f}")
    lines.append(f"value = {value:+.6f}")
    return "\n".join(lines) + "\n", 0


def _cmd_audit(opts):
    lambdas = list(opts["lambdas"] or (1.0,))
    if lambdas[-1] != 1.0:
        lambdas.append(1.0)
    spec = _spec_from(opts, lambdas)
    deviation = no_signalling_audit(spec)
    passed = deviation <= AUDIT_BOUND
    code = 0 if passed else 1
    if opts["format"] == "json":
        doc = {"deviation": deviation, "bound": AUDIT_BOUND, "pass": passed}
        return json.dumps(doc, indent=2) + "\n", code
    if opts["format"] == "csv":
        flag = "true" if passed else "false"
        return f"deviation,bound,pass\n{deviation:.3e},{AUDIT_BOUND:.0e},{flag}\n", code
    word = "PASS" if passed else "FAIL"
    return (
        f"worst marginal deviation = {deviation:.3e} (bound {AUDIT_BOUND:.0e}): {word}\n",
        code,
    )


_COMMANDS = {
    "cascade": _cmd_cascade,
    "threshold": _cmd_threshold,
    "table": _cmd_table,
    "optimize": _cmd_optimize,
    "audit": _cmd_audit,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        text, code = _COMMANDS[args.command](opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StateFormatError, SearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if opts["out"]:
        try:
            with open(opts["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {opts['out']}: {exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
