"""Command-line front end emitting JSON reports.

Every subcommand prints one report object to stdout as one line of compact
JSON: the echoed command name, a digest of the inputs it read, the result
payload, and the library version.  Exact rationals appear as ``{"num": p, "den": q, "decimal": x}``;
``--plain`` switches to a short human-readable summary instead.

Handlers raise and ``main`` decides every exit code from the type of the
exception that ended the command (``FAILURE_CODES``), printing its message
as ``error: ...`` on stderr.

Exit codes:
    0  success (including a "verified" verdict and an "unbounded" LP value)
    1  the conjecture verifier found a counterexample
    2  input could not be parsed or used (profile, graph, metric, bad argument)
    3  capability error (LP size cap, symmetry search cap)
    4  a supplied metric contradicts the profile
    5  the enumeration budget was exceeded

The environment variable ``MDX_LP_CAP`` (an integer >= 1) overrides the
default cap on the number of points (candidates + distinct ballots) a
distortion LP may use, and on candidates + voters for an LP witness metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from fractions import Fraction
from functools import cache
from typing import Any

from mdx import __version__
from mdx.conjecture import DEFAULT_BUDGET, verify_conjecture
from mdx.instances import INSTANCE_BUILDERS
from mdx.matching import matching_uncovered_set
from mdx.metriclp import (
    DEFAULT_LP_CAP,
    InconsistentMetricError,
    LpCapError,
    fairness_ratio_fixed,
    instance_distortion,
    parse_metric,
    pairwise_distortion_lp,
    serialize_metric,
)
from mdx.profile import (
    ParseError,
    VotingProfile,
    default_candidates,
    iter_set,
    parse_profile,
    serialize_profile,
)
from mdx.rules import RULE_IDS, Threshold, apply_rule, weighted_uncovered_set
from mdx.tournament import (
    SymmetrySearchError,
    WeightedTournamentGraph,
    build_tournament,
    check_cyclic_symmetry,
    find_cyclic_symmetry,
    parse_graph,
    serialize_graph,
)

__all__ = ["main", "EXIT_CODES"]

EXIT_CODES = {
    "ok": 0,
    "counterexample": 1,
    "parse": 2,
    "rule": 3,
    "inconsistent": 4,
    "budget": 5,
}


# The exit code of a failed command, by the type of the exception that
# ended it; the first matching entry wins.
FAILURE_CODES = (
    ((LpCapError, SymmetrySearchError), EXIT_CODES["rule"]),
    (InconsistentMetricError, EXIT_CODES["inconsistent"]),
    (ValueError, EXIT_CODES["parse"]),
)


class CliFailure(ValueError):
    """A bad argument or input, in the handler's own words; exits 2."""


def _rational(fr: Fraction) -> dict:
    return {"num": fr.numerator, "den": fr.denominator, "decimal": float(fr)}


def _jsonify(obj: Any) -> Any:
    """Recursively convert payloads to JSON-safe values.

    Fractions become num/den/decimal objects and non-finite floats become
    the string "unbounded" (JSON has no Infinity literal).
    """
    if isinstance(obj, Fraction):
        return _rational(obj)
    if isinstance(obj, float):
        return "unbounded" if math.isinf(obj) else obj
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _read_source(path: str) -> tuple[str, dict]:
    """Read a file (or stdin for "-") and describe it for the report."""
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as exc:
        raise CliFailure(f"cannot read {path!r}: {exc}") from exc
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    return text, {"path": path, "sha256": digest, "bytes": len(text)}


def _load(path: str, parse, noun: str, *args) -> tuple[Any, dict]:
    """Read ``path`` and parse it; a parse error names the file as a ``noun``.

    Handlers pass the parser at call time, so a wrapper installed on the
    module global (``mdx.cli.parse_profile``, as bench/tracing.py does) is
    the one called.
    """
    text, info = _read_source(path)
    try:
        return parse(text, *args), info
    except ParseError as exc:
        raise CliFailure(f"{noun} {path!r}: {exc}") from exc


def _lp_cap() -> int:
    raw = os.environ.get("MDX_LP_CAP")
    if raw is None:
        return DEFAULT_LP_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CliFailure(f"MDX_LP_CAP={raw!r} is not an integer") from exc
    if cap < 1:
        raise CliFailure(f"MDX_LP_CAP={raw!r} must be at least 1")
    return cap


def _candidate_index(p: VotingProfile, name: str) -> int:
    try:
        return p.index(name)
    except (KeyError, IndexError) as exc:
        raise CliFailure(f"candidate {name!r} not in profile {p.candidates}") from exc


def _weights_payload(g: WeightedTournamentGraph) -> dict:
    return {
        "names": list(g.names),
        "m": g.m,
        "weights": {
            g.names[x]: {g.names[y]: _rational(g.weight[x][y]) for y in range(g.n) if y != x}
            for x in range(g.n)
        },
    }


def _tau_cycle(g: WeightedTournamentGraph, tau: tuple[int, ...]) -> list[str]:
    """Render the permutation as the single cycle it is, starting at vertex 0."""
    cycle = [0]
    while tau[cycle[-1]] != cycle[0]:
        cycle.append(tau[cycle[-1]])
    return [g.names[i] for i in cycle]


def _fraction_arg(text: str, what: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliFailure(f"{what} {text!r} is not a rational") from exc
    return value


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (inputs, result, plain_text, exit_code)
# and leaves a failure's exception to main.


def cmd_winner(args) -> tuple[dict, dict, str, int]:
    p, info = _load(args.profile, parse_profile, "profile")
    outcome = apply_rule(args.rule, p, cap=_lp_cap(), workers=args.workers)
    winner = p.candidates[outcome.winner]
    inputs = {"profile": info, "rule": args.rule}
    result = {
        "winner": winner,
        "rule": outcome.rule,
        "support": _jsonify(outcome.support),
    }
    plain = f"winner: {winner}  (rule: {outcome.rule})"
    return inputs, result, plain, EXIT_CODES["ok"]


def cmd_distortion(args) -> tuple[dict, dict, str, int]:
    if args.metric is None and (args.k is not None or args.tol is not None):
        raise CliFailure("--k and --tol need --metric")
    if args.metric is not None and args.witness:
        raise CliFailure("--witness is for LP mode, not --metric")
    p, info = _load(args.profile, parse_profile, "profile")
    ai = _candidate_index(p, args.candidate)
    inputs: dict = {"profile": info, "candidate": args.candidate}

    if args.metric is not None:
        metric, inputs["metric"] = _load(args.metric, parse_metric, "metric", p.n)
        if args.k is not None:
            inputs["k"] = args.k
            value = fairness_ratio_fixed(metric, p, args.candidate, args.k, tol=args.tol or 0.0)
            label = f"fairness ratio (k={args.k})"
        else:
            value = instance_distortion(metric, p, args.candidate, tol=args.tol or 0.0)
            label = "distortion"
        result = {"mode": "fixed-metric", "candidate": args.candidate, "value": _jsonify(value)}
        if args.k is not None:
            result["k"] = args.k
        plain = f"{label} of {args.candidate}: {value:.6g}"
        return inputs, result, plain, EXIT_CODES["ok"]

    # LP mode: one worst-case LP per opponent.
    cap = _lp_cap()
    lps = {p.candidates[b]: pairwise_distortion_lp(p, ai, b, cap=cap) for b in range(p.n) if b != ai}
    witnesses = {
        name: serialize_metric(lp.witness) for name, lp in lps.items() if args.witness and lp.witness
    }
    values = {name: lp.ratio for name, lp in lps.items()}
    worst = max(values.values(), default=1.0)
    result = {
        "mode": "lp",
        "candidate": args.candidate,
        "status": "unbounded" if math.isinf(worst) else "optimal",
        "max_distortion": _jsonify(worst),
        "values": _jsonify(values),
    }
    if args.witness:
        result["witnesses"] = witnesses
    lines = [f"max distortion of {args.candidate}: " + ("unbounded" if math.isinf(worst) else f"{worst:.6g}")]
    for name, value in result["values"].items():
        shown = value if isinstance(value, str) else f"{value:.6g}"
        lines.append(f"  vs {name}: {shown}")
    return inputs, result, "\n".join(lines), EXIT_CODES["ok"]


def cmd_pairwise_lp(args) -> tuple[dict, dict, str, int]:
    p, info = _load(args.profile, parse_profile, "profile")
    _candidate_index(p, args.a)
    _candidate_index(p, args.b)
    outcome = pairwise_distortion_lp(p, args.a, args.b, cap=_lp_cap())
    witness = outcome.witness if args.witness else None
    inputs = {"profile": info, "a": args.a, "b": args.b}
    result: dict = {"status": outcome.status, "value": _jsonify(outcome.value)}
    if witness is not None:
        result["witness"] = serialize_metric(witness)
    if outcome.status == "unbounded":
        plain = f"P({args.a},{args.b}) is unbounded"
    else:
        plain = f"P({args.a},{args.b}) = {outcome.value:.6g}"
    return inputs, result, plain, EXIT_CODES["ok"]


def cmd_tournament(args) -> tuple[dict, dict, str, int]:
    if args.graph:
        g, info = _load(args.source, parse_graph, "graph")
        inputs = {"graph": info}
    else:
        p, info = _load(args.source, parse_profile, "profile")
        g = build_tournament(p)
        inputs = {"profile": info}

    result = _weights_payload(g)
    plain_lines = [serialize_graph(g).rstrip("\n")]

    if args.tau is not None:
        names = args.tau.split(",")
        if sorted(names) != sorted(g.names):
            raise CliFailure(f"--tau must list images of {','.join(g.names)} in order, got {args.tau!r}")
        tau = tuple(g.index(x) for x in names)
        inputs["tau"] = names
        holds = check_cyclic_symmetry(g, tau)
        result["symmetry"] = {"checked_tau": names, "holds": holds}
        if holds:
            result["symmetry"]["cycle"] = _tau_cycle(g, tau)
        plain_lines.append(f"supplied tau {'preserves' if holds else 'breaks'} the weights")
    elif args.check_symmetry:
        witness = find_cyclic_symmetry(g)
        if witness.found:
            cycle = _tau_cycle(g, witness.tau)
            result["symmetry"] = {"found": True, "cycle": cycle}
            plain_lines.append("cyclically symmetric: " + " -> ".join(cycle + [cycle[0]]))
        else:
            result["symmetry"] = {"found": False}
            plain_lines.append("no cyclic symmetry")
    return inputs, result, "\n".join(plain_lines), EXIT_CODES["ok"]


def cmd_matching_set(args) -> tuple[dict, dict, str, int]:
    p, info = _load(args.profile, parse_profile, "profile")
    mask = matching_uncovered_set(p)
    members = sorted(p.candidates[c] for c in iter_set(mask))
    inputs = {"profile": info}
    result = {"set": members, "empty": not members, "count": len(members)}
    plain = "matching uncovered set: " + (" ".join(members) if members else "(empty)")
    return inputs, result, plain, EXIT_CODES["ok"]


def cmd_weighted_set(args) -> tuple[dict, dict, str, int]:
    p, info = _load(args.profile, parse_profile, "profile")
    try:
        lam = Threshold.parse(args.lam)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliFailure(f"bad --lam {args.lam!r}: {exc}") from exc
    g = build_tournament(p)
    mask = weighted_uncovered_set(g, lam)
    members = sorted(p.candidates[c] for c in iter_set(mask))
    inputs = {"profile": info, "lam": str(lam)}
    result = {
        "lam": "phi" if lam.is_golden else _rational(Fraction(lam.num, lam.den)),
        "set": members,
        "count": len(members),
    }
    plain = f"weighted uncovered set (lambda={lam}): " + (
        " ".join(members) if members else "(empty)"
    )
    return inputs, result, plain, EXIT_CODES["ok"]


def cmd_verify_conjecture(args) -> tuple[dict, dict, str, int]:
    verdict = verify_conjecture(
        args.n,
        args.m,
        workers=args.workers,
        budget=args.budget,
    )
    inputs = {"n": args.n, "m": args.m, "workers": args.workers, "budget": args.budget}
    result = {
        "status": verdict.status,
        "n": verdict.n,
        "m": verdict.m,
        "profiles_checked": verdict.profiles_checked,
        "elapsed_seconds": round(verdict.elapsed, 6),
    }
    if verdict.counterexample is not None:
        result["counterexample"] = serialize_profile(verdict.counterexample)
    code = {
        "verified": EXIT_CODES["ok"],
        "counterexample": EXIT_CODES["counterexample"],
        "budget-exceeded": EXIT_CODES["budget"],
    }[verdict.status]
    plain = (
        f"{verdict.status}: n={verdict.n} m={verdict.m}, "
        f"{verdict.profiles_checked} profile classes checked "
        f"in {verdict.elapsed:.2f}s"
    )
    if verdict.counterexample is not None:
        plain += "\n" + serialize_profile(verdict.counterexample).rstrip("\n")
    return inputs, result, plain, code


def cmd_instance(args) -> tuple[dict, dict, str, int]:
    builder = INSTANCE_BUILDERS[args.name]
    if args.lam is None:
        args.lam = "1/2" if args.name == "fairness-table" else "618/1000"
    if args.m is None:
        args.m = 2 if args.name == "fairness-table" else 1000
    if args.name == "rotational":
        base = [name.strip() for name in args.base.split(">")] if args.base else None
        n = args.n if args.n is not None else (len(base) if base else 3)
        if base is None:
            base = list(default_candidates(n))
        instance = builder(base, n)
    elif args.name == "lower-left":
        frac = _fraction_arg(args.p, "--p")
        instance = builder(frac.numerator, frac.denominator, args.m)
    elif args.name in ("lower-right", "fairness-table"):
        frac = _fraction_arg(args.lam, "--lam")
        instance = builder(frac.numerator, frac.denominator, args.m)
    else:
        instance = builder()
    profile_text = serialize_profile(instance.profile)
    reads = {"rotational": "base n", "lower-left": "p m", "lower-right": "lam m", "fairness-table": "lam m"}
    params = {k: getattr(args, k) for k in reads.get(args.name, "").split() if getattr(args, k) is not None}
    inputs = {"name": args.name, "params": params}
    result = {
        "name": instance.name,
        "n": instance.profile.n,
        "m": instance.profile.m,
        "profile": profile_text,
        "metric": None if instance.metric is None else serialize_metric(instance.metric),
        "notes": instance.notes,
    }
    if args.metric_out is not None:
        if instance.metric is None:
            raise CliFailure(f"instance {args.name!r} carries no metric")
        try:
            with open(args.metric_out, "w", encoding="utf-8") as fh:
                fh.write(serialize_metric(instance.metric))
        except OSError as exc:
            raise CliFailure(f"cannot write {args.metric_out!r}: {exc}") from exc
    # Plain mode prints the raw profile so the output pipes into the other
    # subcommands unchanged.
    plain = profile_text.rstrip("\n")
    return inputs, result, plain, EXIT_CODES["ok"]


# ---------------------------------------------------------------------------
# argument parsing


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, and building it costs milliseconds per call."""
    parser = argparse.ArgumentParser(
        prog="mdx",
        description="Metric-distortion toolkit: voting rules, worst-case LPs, "
        "tournament analysis, and exhaustive conjecture checking.",
    )
    # SUPPRESS keeps a subcommand's unset --plain from clobbering one given
    # before the subcommand; accepted in either position.
    parser.add_argument(
        "--plain", action="store_true", default=argparse.SUPPRESS,
        help="human summary instead of JSON",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plain", action="store_true", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text, parents=[common])
        cmd.set_defaults(handler=handler)
        return cmd

    def workers(text: str) -> int:
        if int(text) < 1:
            raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
        return int(text)

    w = add("winner", cmd_winner, "run a voting rule on a profile")
    w.add_argument("profile", help="profile file, or - for stdin")
    w.add_argument("--rule", required=True, choices=RULE_IDS)
    w.add_argument("--workers", type=workers, default=1)

    d = add("distortion", cmd_distortion, "worst-case or fixed-metric distortion of a candidate")
    d.add_argument("profile", help="profile file, or - for stdin")
    d.add_argument("candidate")
    d.add_argument("--metric", help="metric CSV; switches to fixed-metric mode")
    d.add_argument("--k", type=int, help="with --metric: ratio on the k largest voter costs")
    d.add_argument("--tol", type=float, help="with --metric: consistency tolerance (default 0)")
    d.add_argument("--witness", action="store_true", help="without --metric: include LP witness metrics")

    pl = add("pairwise-lp", cmd_pairwise_lp, "the worst-case ratio LP for one ordered pair")
    pl.add_argument("profile", help="profile file, or - for stdin")
    pl.add_argument("a")
    pl.add_argument("b")
    pl.add_argument("--witness", action="store_true")

    t = add("tournament", cmd_tournament, "weighted tournament graph and cyclic symmetry")
    t.add_argument("source", help="profile file (default) or graph file with --graph; - for stdin")
    t.add_argument("--graph", action="store_true", help="treat the input as a weight-matrix file")
    symmetry = t.add_mutually_exclusive_group()
    symmetry.add_argument("--check-symmetry", action="store_true")
    symmetry.add_argument("--tau", help="comma list: image of each candidate, in candidate order")

    ms = add("matching-set", cmd_matching_set, "candidates whose cover graphs all have perfect matchings")
    ms.add_argument("profile", help="profile file, or - for stdin")

    ws = add("weighted-set", cmd_weighted_set, "the lambda-weighted uncovered set")
    ws.add_argument("profile", help="profile file, or - for stdin")
    ws.add_argument("--lam", default="phi", help='"phi" (default) or a rational like 3/5')

    vc = add("verify-conjecture", cmd_verify_conjecture, "exhaustively check the cycle condition")
    vc.add_argument("n", type=int)
    vc.add_argument("m", type=int)
    vc.add_argument("--workers", type=workers, default=1)
    vc.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    inst = add("instance", cmd_instance, "emit a named instance (plain mode prints the raw profile)")
    inst.add_argument("name", choices=sorted(INSTANCE_BUILDERS))
    inst.add_argument("--p", default="382/1000", help="lower-left: fraction of midpoint voters")
    inst.add_argument("--lam", default=None, help="lower-right / fairness-table: lambda")
    inst.add_argument("--m", type=int, default=None, help="voter scale")
    inst.add_argument("--base", help="rotational: base ordering, e.g. A>B>C")
    inst.add_argument("--n", type=int, help="rotational: number of candidates")
    inst.add_argument("--metric-out", help="also write the instance metric CSV to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the parse-error code.
        return int(exc.code or 0)
    try:
        inputs, result, plain, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(failure for types, failure in FAILURE_CODES if isinstance(exc, types))
    if getattr(args, "plain", False):
        print(plain)
    else:
        report = {"command": args.command, "inputs": inputs, "result": result, "version": __version__}
        print(json.dumps(report, separators=(",", ":")))
    return code


if __name__ == "__main__":
    sys.exit(main())
