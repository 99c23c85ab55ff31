"""Spans around calls into mdx's layers, recorded from outside the package.

The tracer replaces public functions at the module attributes where they
are looked up at call time (``mdx.cli.parse_profile``,
``mdx.matching.build_cover_graph``, ...) with wrappers that record a span:
name, start, end, parent span, op id and a few facts read from the call's
arguments or result.  Spans stay in memory until the run ends.  mdx runs
single-threaded here, so a span's children never overlap and its self time
is its duration minus the sum of its children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name).  Each attribute is the binding that the
# calling code reads, so every route into a layer is covered.
SITES = (
    ("mdx.cli", "parse_profile", "profile.parse"),
    ("mdx.tournament", "pairwise_counts", "profile.pairwise_counts"),
    ("mdx.matching", "pairwise_counts", "profile.pairwise_counts"),
    ("mdx.cli", "build_tournament", "tournament.build"),
    ("mdx.rules", "build_tournament", "tournament.build"),
    ("mdx.matching", "build_tournament", "tournament.build"),
    ("mdx.cli", "find_cyclic_symmetry", "tournament.symmetry"),
    ("mdx.cli", "apply_rule", "rules.apply"),
    ("mdx.cli", "weighted_uncovered_set", "rules.weighted-set"),
    ("mdx.cli", "matching_uncovered_set", "matching.set"),
    ("mdx.rules", "matching_uncovered_set", "matching.set"),
    ("mdx.matching", "interval_test", "matching.interval_test"),
    ("mdx.matching", "build_cover_graph", "matching.cover_build"),
    ("mdx.matching", "max_matching", "matching.hk"),
    ("mdx.cli", "pairwise_distortion_lp", "metriclp.pairwise_lp"),
    ("mdx.rules", "pairwise_distortion_lp", "metriclp.pairwise_lp"),
    ("mdx.metriclp", "solve_lp", "metriclp.solve"),
    ("mdx.cli", "verify_conjecture", "conjecture.verify"),
)

RULES = (
    "copeland", "uncovered", "ranked-pairs", "schulze",
    "weighted-uncovered", "matching-uncovered", "optimal-lp", "weighted-set",
)


def _facts(name: str, args: tuple, result) -> dict:
    """What a span keeps from its call, read from arguments and result."""
    if name == "rules.apply":
        return {"rule": args[0]}
    if name == "matching.set":
        return {"n": args[0].n, "members": result}
    if name == "matching.interval_test":
        return {"a": args[1], "b": args[2], "empty": result.remainder_empty}
    if name == "matching.hk":
        return {"a": args[0].a, "b": args[0].b, "perfect": result.perfect}
    if name == "metriclp.solve":
        a_ub, a_eq = args[1], args[3]
        n_ub, n_eq = a_ub.shape[0], a_eq.shape[0]
        # solve_lp's phase-1 tableau: structural + slack + one artificial per
        # equality row (all b_ub are 0, so no <= row is flipped), plus rhs.
        width = a_ub.shape[1] + n_ub + n_eq + 1
        return {
            "rows": n_ub + n_eq,
            "cols": a_ub.shape[1],
            "tableau_bytes": (n_ub + n_eq) * width * 8,
            "pivots": result.iterations,
        }
    if name == "conjecture.verify":
        return {"profiles": result.profiles_checked}
    return {}


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index, op id, facts].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, span_name in SITES:
            module = sys.modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span_name: str, fn):
        def traced(*args, **kwargs):
            index = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.spans[index][5] = _facts(span_name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def op(self, op_id: int):
        """The op's root span, "cli.main", around one subcommand call."""
        self._op = op_id
        index = self._open("cli.main")
        try:
            yield
        finally:
            self._close(index)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _visited_pairs(set_span, children) -> tuple[int, int, int, int]:
    """(visited, majority, interval, matching) pair decisions of one
    matching_uncovered_set call, reconstructed from its child spans.

    The loop visits b in index order for each a and stops at the first b
    whose matching is not perfect; pairs not sent to the interval test were
    decided by the voter-majority test, which makes no call.
    """
    facts = set_span[5]
    n, members = facts["n"], facts["members"]
    interval_calls = interval_decided = matchings = 0
    failed_at: dict[int, int] = {}
    for span in children:
        f = span[5]
        if span[0] == "matching.interval_test":
            interval_calls += 1
            interval_decided += f["empty"]
        elif span[0] == "matching.hk":
            matchings += 1
            if not f["perfect"]:
                failed_at[f["a"]] = f["b"]
    visited = 0
    for a in range(n):
        if members >> a & 1:
            visited += n - 1
        else:
            visited += sum(1 for b in range(failed_at[a] + 1) if b != a)
    return visited, visited - interval_calls, interval_decided, matchings


def layer_metrics(spans: list[list], n_ops: int, report_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}, averaged per traced op
    unless the unit says otherwise."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_time = defaultdict(float)
    rule_self = defaultdict(float)
    rule_calls = defaultdict(int)
    acc = defaultdict(float)
    pairs = [0, 0, 0, 0]
    for i, span in enumerate(spans):
        name, start, end = span[0], span[1], span[2]
        dur = end - start
        own = dur - sum(c[2] - c[1] for c in children[i])
        total[name] += dur
        calls[name] += 1
        self_time[name] += own
        facts = span[5]
        if name == "rules.apply" or name == "rules.weighted-set":
            rule = facts.get("rule", "weighted-set")
            rule_self[rule] += own
            rule_calls[rule] += 1
        elif name == "matching.hk":
            acc["perfect"] += facts["perfect"]
        elif name == "metriclp.solve":
            for key in ("rows", "cols", "tableau_bytes", "pivots"):
                acc[key] += facts[key]
        elif name == "conjecture.verify":
            acc["profiles"] += facts["profiles"]
        elif name == "matching.set":
            for k, value in enumerate(_visited_pairs(span, children[i])):
                pairs[k] += value

    per_op = max(n_ops, 1)
    lps = calls["metriclp.solve"]
    hk = calls["matching.hk"]

    def ms(x):
        return 1000.0 * x / per_op

    out = {
        "cli.self_ms": (ms(self_time["cli.main"]), "ms/op"),
        "cli.report_bytes": (report_bytes / per_op, "bytes/op"),
        "profile.parse_ms": (ms(total["profile.parse"]), "ms/op"),
        "profile.pairwise_counts_ms": (ms(total["profile.pairwise_counts"]), "ms/op"),
        "profile.pairwise_counts_calls": (calls["profile.pairwise_counts"] / per_op, "calls/op"),
        "tournament.build_ms": (ms(total["tournament.build"]), "ms/op"),
        "tournament.build_calls": (calls["tournament.build"] / per_op, "calls/op"),
        "tournament.symmetry_ms": (ms(total["tournament.symmetry"]), "ms/op"),
    }
    for rule in RULES:
        value = 1000.0 * rule_self[rule] / rule_calls[rule] if rule_calls[rule] else 0.0
        out[f"rules.self_ms.{rule}"] = (value, "ms/call")
    visited = max(pairs[0], 1)
    out.update({
        "matching.set_ms": (ms(total["matching.set"]), "ms/op"),
        "matching.interval_tests": (calls["matching.interval_test"] / per_op, "calls/op"),
        "matching.cover_graphs": (calls["matching.cover_build"] / per_op, "calls/op"),
        "matching.cover_build_ms": (ms(total["matching.cover_build"]), "ms/op"),
        "matching.hk_ms": (ms(total["matching.hk"]), "ms/op"),
        "matching.perfect_share": (acc["perfect"] / hk if hk else 0.0, "ratio"),
        "matching.majority_share": (pairs[1] / visited, "ratio"),
        "matching.interval_share": (pairs[2] / visited, "ratio"),
        "matching.full_share": (pairs[3] / visited, "ratio"),
        "metriclp.lps": (lps / per_op, "calls/op"),
        "metriclp.build_ms": (ms(self_time["metriclp.pairwise_lp"]), "ms/op"),
        "metriclp.solve_ms": (ms(total["metriclp.solve"]), "ms/op"),
        "metriclp.pivots": (acc["pivots"] / lps if lps else 0.0, "pivots/lp"),
        "metriclp.rows": (acc["rows"] / lps if lps else 0.0, "rows/lp"),
        "metriclp.cols": (acc["cols"] / lps if lps else 0.0, "cols/lp"),
        "metriclp.tableau_mb": (acc["tableau_bytes"] / lps / 1e6 if lps else 0.0, "MB-computed"),
        "metriclp.pivot_us": (
            1e6 * total["metriclp.solve"] / acc["pivots"] if acc["pivots"] else 0.0, "us/pivot"),
        "conjecture.verify_ms": (ms(total["conjecture.verify"]), "ms/op"),
        "conjecture.profiles_per_s": (
            acc["profiles"] / total["conjecture.verify"] if total["conjecture.verify"] else 0.0,
            "profiles/s"),
    })
    return out
