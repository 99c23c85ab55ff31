"""Check every parsed mdx report against the oracles.

Each record gets one verdict: "ok"; "failed" when the op exited nonzero or
hit the known optimal-lp tie-break fault (its LP values agree with the
oracle but the winner is not the alphabetically first candidate within
1e-9 of the minimum); "wrong" for any other disagreement.  Oracle results
are computed once per input and reused across rounds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import oracles
from workloads import NAMES


def units(wl) -> list[int]:
    """Units of each op in a round; verify counts canonical classes."""
    return [oracles.burnside_classes(*op.cell) if op.cell else op.units for op in wl.ops]


class _Checker:
    def __init__(self):
        self._elect = {}
        self._match = {}
        self._lp = {}

    # ----- elect ------------------------------------------------------------
    def elect_ref(self, p):
        if p.name not in self._elect:
            c = oracles.tally(p.types, p.counts, p.n)
            m = p.m
            cop, scores = oracles.copeland(c, m)
            self._elect[p.name] = {
                "c": c,
                "copeland": cop,
                "scores": scores,
                "uncovered": oracles.uncovered(c, m),
                "phi": oracles.phi_uncovered(c, m),
                "schulze": oracles.schulze(c),
                "ranked-pairs": oracles.ranked_pairs(c, m),
                "smith": oracles.smith_set(c, m),
                "champion": oracles.condorcet_winner(c, m),
                "symmetric": oracles.cyclic_symmetry(c),
            }
        return self._elect[p.name]

    def elect(self, op, report) -> bool:
        p = op.profile
        ref = self.elect_ref(p)
        c, m, n = ref["c"], p.m, p.n
        res = report["result"]
        idx = {name: i for i, name in enumerate(NAMES[:n])}

        def names(members):
            return [NAMES[x] for x in members]

        cmd = op.argv[0]
        if cmd == "tournament":
            weights = res["weights"]
            exact = all(
                Fraction(weights[NAMES[x]][NAMES[y]]["num"], weights[NAMES[x]][NAMES[y]]["den"])
                == Fraction(int(c[x, y]), m)
                for x in range(n) for y in range(n) if x != y
            )
            sym = res["symmetry"]
            if sym["found"] != ref["symmetric"]:
                return False
            if sym["found"] and not oracles.preserves(c, [idx[x] for x in sym["cycle"]]):
                return False
            return exact and res["m"] == m
        if cmd == "weighted-set":
            return res["set"] == names(ref["phi"]) and res["lam"] == "phi"
        rule = op.argv[-1]
        winner = idx[res["winner"]]
        support = res["support"]
        if rule == "copeland":
            ok = winner == ref["copeland"] and support["scores"] == dict(zip(NAMES, ref["scores"]))
        elif rule == "uncovered":
            ok = sorted(support["set"]) == names(ref["uncovered"]) and winner == ref["uncovered"][0]
        elif rule == "weighted-uncovered":
            ok = sorted(support["set"]) == names(ref["phi"]) and winner == ref["phi"][0]
        elif rule == "schulze":
            win, strength = ref["schulze"]
            ok = winner == win and all(
                Fraction(s["num"], s["den"]) == Fraction(int(strength[idx[x], idx[y]]), m)
                for x, row in support["strength"].items() for y, s in row.items()
            )
        else:
            ok = winner == ref["ranked-pairs"]
        # Required properties: tournament winners lie in the Smith set, and a
        # strict Condorcet winner wins them and belongs to the phi set.
        if rule != "weighted-uncovered":
            if ref["smith"] is not None and winner not in ref["smith"]:
                return False
            if ref["champion"] is not None and winner != ref["champion"]:
                return False
        elif ref["champion"] is not None and ref["champion"] not in ref["phi"]:
            return False
        return ok

    # ----- match ------------------------------------------------------------
    def match(self, op, report) -> bool:
        p = op.profile
        if p.name not in self._match:
            voters = p.voters()
            self._match[p.name] = (
                oracles.matching_set(p.types, voters, p.n),
                oracles.plurality_veto(p.types, voters, p.n),
            )
        members, veto = self._match[p.name]
        expected = [NAMES[x] for x in members]
        res = report["result"]
        if veto not in members:
            return False
        if op.argv[0] == "matching-set":
            return res["set"] == expected and res["empty"] is False
        return sorted(res["support"]["set"]) == expected and res["winner"] == expected[0]

    # ----- lp -----------------------------------------------------------------
    def lp_value(self, p, a, b) -> float:
        key = (p.name, a, b)
        if key not in self._lp:
            self._lp[key] = oracles.pairwise_lp(p.types, p.voters(), p.n, a, b)
        return self._lp[key]

    def lp(self, op, report) -> str:
        p = op.profile
        n = p.n
        idx = {name: i for i, name in enumerate(NAMES[:n])}
        res = report["result"]
        if op.kind == "pairwise-lp":
            value = self.lp_value(p, idx[op.argv[2]], idx[op.argv[3]])
            status = "unbounded" if value == float("inf") else "optimal"
            reported = "unbounded" if res["status"] == "unbounded" else res["value"]
            return "ok" if res["status"] == status and oracles.lp_close(reported, value) else "wrong"
        if op.kind == "distortion":
            a = idx[op.argv[2]]
            values = {NAMES[b]: self.lp_value(p, a, b) for b in range(n) if b != a}
            worst = max(values.values())
            ok = oracles.lp_close(res["max_distortion"], worst) and all(
                oracles.lp_close(res["values"][name], v) for name, v in values.items()
            )
            return "ok" if ok else "wrong"
        max_values = [
            max(self.lp_value(p, a, b) for b in range(n) if b != a) for a in range(n)
        ]
        reported = res["support"]["max_values"]
        if not all(oracles.lp_close(reported[NAMES[a]], max_values[a]) for a in range(n)):
            return "wrong"
        if res["winner"] != NAMES[oracles.tie_break_winner(max_values)]:
            return "failed"
        return "ok"

    # ----- verify -------------------------------------------------------------
    @staticmethod
    def verify(op, report) -> bool:
        n, m = op.cell
        res = report["result"]
        return (
            res["status"] == "verified"
            and (res["n"], res["m"]) == (n, m)
            and res["profiles_checked"] == oracles.burnside_classes(n, m)
        )


def check_records(wl, records) -> list[str]:
    checker = _Checker()
    verdicts = []
    for op_index, round_no, _traced, _elapsed, code, text in records:
        op = wl.ops[op_index]
        if code:
            verdicts.append("failed")
            continue
        report = json.loads(text)
        if report["command"] != op.argv[0]:
            verdict = "wrong"
        elif wl.name == "lp":
            verdict = checker.lp(op, report)
        else:
            check = {"elect": checker.elect, "match": checker.match, "verify": checker.verify}
            verdict = "ok" if check[wl.name](op, report) else "wrong"
        if verdict != "ok" and round_no == 0:
            sys.stderr.write(f"{verdict}: {' '.join(op.argv)}\n")
        verdicts.append(verdict)
    return verdicts
