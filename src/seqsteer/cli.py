"""Command-line front end.

Subcommands:

  cascade    run a chain of observers and report each inequality value
  threshold  minimal violating sharpness for the next observer
  table      full sharpness-threshold ladder until the chain ends
  optimize   best measurement directions for the last observer
  audit      worst no-signalling marginal deviation for a chain

Every command writes to stdout only; a file comes from redirecting it.
A config file (INI style) can preload any flag; flags given on the
command line win.  Recognized sections and keys:

  [run]     state, scenario, ineq, lambdas, format
  [search]  tol, optimizer

optimizer (fixed-xyz or grid-refine) has no flag; only the config file
sets it.  threshold and table default to fixed-xyz, optimize to
grid-refine.

A value is checked the same way whether it comes from a flag or from the
config file; a bad one exits with status 2.  So do an empty value (it is
not a request for the default) and a tol below 2**-53, which the threshold
bracket could never meet.  Config values are read literally (a % is just
a character), and any other section, [DEFAULT] included, is rejected.
"""

import argparse
import configparser
import json
import sys

from .cascade import Scenario, no_signalling_audit, run_cascade, xyz_spec
from .inequalities import InequalityKind
from .qop import require_sharpness
from .search import (
    Optimizer,
    SearchConfig,
    SearchError,
    build_table,
    ladder_rows,
    optimize_angles,
    threshold_lambda,
)
from .states import GHZ, W, StateKind, StateSpec, load_state_file

AUDIT_BOUND = 1e-10

# the one-to-two functional of each named state, used without --ineq
_FALLBACK_INEQ = {StateKind.GHZ: InequalityKind.G1, StateKind.W: InequalityKind.W1}


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
        return StateSpec(StateKind.CUSTOM, load_state_file(path))
    raise UsageError(
        f"unknown state {text!r}; expected ghz, w or custom:<path>"
    )


def _parse_lambdas(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise UsageError(f"--lambdas has an empty value in {text!r}")
        try:
            lam = float(tok)
        except ValueError:
            raise UsageError(f"cannot parse sharpness {tok!r} as a number")
        try:
            require_sharpness(lam)
        except ValueError as exc:
            raise UsageError(exc)
        out.append(lam)
    return tuple(out)


def _parse_choice(name, choices):
    """A parser giving the member of choices (enum members or strings)
    that its text names."""
    names = [getattr(c, "value", c) for c in choices]

    def parse(text):
        if text not in names:
            raise UsageError(
                f"unknown {name} {text!r}; expected one of " + ", ".join(names)
            )
        return list(choices)[names.index(text)]

    return parse


def _parse_tol(text):
    try:
        tol = float(text)
    except ValueError:
        raise UsageError(f"cannot parse tolerance {text!r} as a number")
    try:
        return SearchConfig(tol=tol).tol
    except ValueError as exc:
        raise UsageError(exc)


# Every option once: its INI section, the one parser that a flag value
# and an INI value both go through, the value when neither is given, and
# the flag's help (None: no flag, the config file only).  Flags, INI
# keys, valid-keys lists and parsing all follow this order.
_OPTIONS = {
    "state": ("run", _parse_state, GHZ, "ghz, w or custom:<path>"),
    "scenario": ("run", _parse_choice("scenario", Scenario), Scenario.A,
                 "A or B: which wing hosts the chain (default A)"),
    "ineq": ("run", _parse_choice("ineq", InequalityKind), None,
             "g1 or w1 tests (1->2) steering, g2 or w2 (2->1); default g1 "
             "for ghz and w1 for w, required for custom states"),
    "lambdas": ("run", _parse_lambdas, None,
                "comma-separated sharpness list, e.g. 0.627,0.736"),
    "format": ("run", _parse_choice("format", ("text", "csv", "json")), "text",
               "text, csv or json (default text)"),
    "tol": ("search", _parse_tol, SearchConfig.tol,
            "threshold bracket width in [2**-53, 1) (default 1e-4)"),
    "optimizer": ("search", _parse_choice("optimizer", Optimizer), None, None),
}


def load_config(path):
    """Flat key-value config with [run] and [search] sections."""
    # values are read literally, as the flags read them, and [DEFAULT] is
    # an ordinary section, so it is rejected below like any unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}")
    valid = {}
    for name, (section, *_) in _OPTIONS.items():
        valid.setdefault(section, []).append(name)
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
    for command, (_, command_help) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        p.add_argument("--config", help="INI config file preloading any flag")
        for name, (*_, flag_help) in _OPTIONS.items():
            if flag_help is not None:
                p.add_argument(f"--{name}", help=flag_help)
    return parser


def _resolve(args):
    """Merge config file and flags into a settled options dict."""
    cfg = load_config(args.config) if args.config else {}
    opts = {}
    for name, (_, parse, default, _) in _OPTIONS.items():
        text = getattr(args, name, None)
        if text is None:
            text = cfg.get(name)
        opts[name] = default if text is None else parse(text)
    if opts["ineq"] is None:
        if opts["state"].kind not in _FALLBACK_INEQ:
            raise UsageError("a custom state needs an explicit --ineq")
        opts["ineq"] = _FALLBACK_INEQ[opts["state"].kind]
    return opts


def _search_config(opts, default_optimizer=Optimizer.FIXED_XYZ):
    return SearchConfig(
        tol=opts["tol"],
        optimizer=opts["optimizer"] or default_optimizer,
    )


def _spec_from(opts, lambdas):
    return xyz_spec(opts["scenario"], opts["ineq"], opts["state"], lambdas)


def _chain_lambdas(opts):
    """The given sharpness values, ending on a projective observer."""
    lambdas = list(opts["lambdas"] or (1.0,))
    if lambdas[-1] != 1.0:
        # the final observer has nobody downstream, so they measure sharply
        lambdas.append(1.0)
    return lambdas


# Each command returns (doc, csv, text, exit code): its JSON document,
# a dict or a string already serialized, and its CSV and text lines;
# _render alone picks which of them is printed.
def _cmd_cascade(opts):
    spec = _spec_from(opts, _chain_lambdas(opts))
    result = run_cascade(spec)
    doc = {"inequality": spec.inequality.value, "observers": []}
    csv = ["observer,lambda,value,detected"]
    text = [
        f"inequality {spec.inequality.value}, state {opts['state'].kind.value}, "
        f"scenario {opts['scenario'].value}"
    ]
    rows = zip(spec.lambdas, result.values, result.detected)
    for m, (lam, value, flag) in enumerate(rows, start=1):
        doc["observers"].append({"observer": m, "lambda": lam, "value": value, "detected": flag})
        csv.append(f"{m},{lam:.6f},{value:.6f},{str(flag).lower()}")
        word = "violation" if flag else "no violation"
        text.append(f"observer {m}: lambda={lam:.6f}  value={value:+.6f}  {word}")
    return doc, csv, text, 0


def _cmd_threshold(opts):
    prefix_lambdas = opts["lambdas"] or ()
    prefix = _spec_from(opts, prefix_lambdas)
    lam = threshold_lambda(prefix, _search_config(opts))
    m = len(prefix_lambdas) + 1
    (doc,), csv = ladder_rows([(m, lam)])
    found = "no violating sharpness exists" if lam is None else f"lambda_min = {lam:.6f}"
    return doc, csv, [f"observer {m}: {found}"], 0


def _cmd_table(opts):
    if opts["lambdas"] is not None:
        raise UsageError("table derives every sharpness itself; drop --lambdas")
    table = build_table(
        opts["scenario"], opts["ineq"], opts["state"], _search_config(opts)
    )
    text = [
        f"inequality {table.inequality.value}, state {table.state}, "
        f"scenario {table.scenario.value}: up to {table.max_observers} "
        "observers can violate"
    ]
    for m, lam in table.rows:
        cell = "none" if lam is None else f"{lam:.6f}"
        text.append(f"observer {m}: lambda_min = {cell}")
    return table.to_json(), table.to_csv().splitlines(), text, 0


def _cmd_optimize(opts):
    lambdas = opts["lambdas"] or (1.0,)
    spec = _spec_from(opts, lambdas)
    m = len(lambdas)
    config = _search_config(opts, default_optimizer=Optimizer.GRID_REFINE)
    triple, value = optimize_angles(spec, m, config)
    doc = {"observer": m, "value": value, "settings": []}
    csv = ["observer,setting,theta,phi,value"]
    text = [f"observer {m}, inequality {opts['ineq'].value}"]
    for k, d in enumerate(triple.directions, start=1):
        doc["settings"].append({"theta": d.theta, "phi": d.phi})
        csv.append(f"{m},{k},{d.theta:.6f},{d.phi:.6f},{value:.6f}")
        text.append(f"setting {k}: theta={d.theta:.6f} phi={d.phi:.6f}")
    return doc, csv, text + [f"value = {value:+.6f}"], 0


def _cmd_audit(opts):
    deviation = no_signalling_audit(_spec_from(opts, _chain_lambdas(opts)))
    passed = deviation <= AUDIT_BOUND
    doc = {"deviation": deviation, "bound": AUDIT_BOUND, "pass": passed}
    csv = ["deviation,bound,pass", f"{deviation:.3e},{AUDIT_BOUND:.0e},{str(passed).lower()}"]
    word = "PASS" if passed else "FAIL"
    text = [f"worst marginal deviation = {deviation:.3e} (bound {AUDIT_BOUND:.0e}): {word}"]
    return doc, csv, text, 0 if passed else 1


def _render(fmt, doc, csv, text):
    """The one place an output format is chosen: the JSON document,
    serialized with indent 2 unless it already is, or the CSV or text
    lines, each ending in a newline."""
    if fmt == "json":
        return (doc if isinstance(doc, str) else json.dumps(doc, indent=2)) + "\n"
    return "".join(line + "\n" for line in (csv if fmt == "csv" else text))


_COMMANDS = {
    "cascade": (_cmd_cascade, "run a chain and report every value"),
    "threshold": (_cmd_threshold, "minimal violating sharpness"),
    "table": (_cmd_table, "threshold ladder until the chain ends"),
    "optimize": (_cmd_optimize, "best directions for the last observer"),
    "audit": (_cmd_audit, "no-signalling marginal check"),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _resolve(args)
        doc, csv, text, code = _COMMANDS[args.command][0](opts)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SearchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(_render(opts["format"], doc, csv, text))
    return code


if __name__ == "__main__":
    sys.exit(main())
