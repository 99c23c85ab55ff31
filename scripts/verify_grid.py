#!/usr/bin/env python3
"""Sweep the cycle-condition verifier over a rectangular (n, m) grid.

Prints one row per cell with the verdict, the number of canonical
profiles checked, and the wall time; optionally dumps the rows as JSON.
Exits 1 if any cell has a counterexample, or if a verified cell checked
a number of profiles other than its orbit count.

    python3 scripts/verify_grid.py --max-n 5 --max-m 4 --workers 4
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from mdx.conjecture import DEFAULT_BUDGET, count_canonical, verify_conjecture
from mdx.profile import serialize_profile


@dataclass(frozen=True)
class GridConfig:
    min_n: int = 2
    max_n: int = 4
    min_m: int = 1
    max_m: int = 4
    workers: int = 1
    budget: int = DEFAULT_BUDGET
    json_out: str | None = None


def parse_args(argv: list[str] | None = None) -> GridConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=4)
    parser.add_argument("--min-m", type=int, default=1)
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="skip cells with more canonical profiles than this")
    parser.add_argument("--json-out", help="write rows as a JSON array to this path")
    args = parser.parse_args(argv)
    return GridConfig(args.min_n, args.max_n, args.min_m, args.max_m,
                      args.workers, args.budget, args.json_out)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(argv)
    rows = []
    bad = 0
    print(f"{'n':>3} {'m':>3} {'classes':>12} {'status':>16} {'checked':>12} {'seconds':>8}")
    for n in range(cfg.min_n, cfg.max_n + 1):
        for m in range(cfg.min_m, cfg.max_m + 1):
            classes = count_canonical(n, m)
            verdict = verify_conjecture(n, m, workers=cfg.workers, budget=cfg.budget)
            print(f"{n:>3} {m:>3} {classes:>12} {verdict.status:>16} "
                  f"{verdict.profiles_checked:>12} {verdict.elapsed:>8.2f}")
            row = {
                "n": n,
                "m": m,
                "classes": classes,
                "status": verdict.status,
                "checked": verdict.profiles_checked,
                "seconds": round(verdict.elapsed, 3),
            }
            if verdict.counterexample is not None:
                row["counterexample"] = serialize_profile(verdict.counterexample)
                print(serialize_profile(verdict.counterexample), end="")
            if verdict.status == "counterexample":
                bad += 1
            elif verdict.status == "verified" and verdict.profiles_checked != classes:
                print(f"  checked {verdict.profiles_checked} canonical profiles, "
                      f"but the orbit count is {classes}")
                bad += 1
            rows.append(row)
    if cfg.json_out:
        with open(cfg.json_out, "w") as handle:
            json.dump({"config": asdict(cfg), "rows": rows}, handle, indent=2)
        print(f"wrote {cfg.json_out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
