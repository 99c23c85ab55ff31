"""Reference figures: optimal-lp and verify-conjecture at --workers 1 vs 2.

    python3 bench/workers.py --repeats 3

Prints the best-of-N wall time of each call at both worker counts.  This
is evidence for whether mdx's thread pool (optimal-lp) and process pool
(verify-conjecture) pay off on this machine; it is not part of the timed
benchmark.
"""

from __future__ import annotations

import argparse

import run
import workloads

CASES = (
    ("winner", "rotational-5.prof", "--rule", "optimal-lp"),
    ("winner", "counterexample-relax1.prof", "--rule", "optimal-lp"),
    ("verify-conjecture", "4", "5"),
    ("verify-conjecture", "5", "3"),
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    with run.work_dir() as work:
        cli = run.fresh_cli()
        for p in workloads.build("lp", 1).profiles:
            (work / p.name).write_text(p.text(), encoding="utf-8")
        for case in CASES:
            best = {}
            for workers in (1, 2):
                times = []
                for _ in range(args.repeats):
                    elapsed, code, _ = run.call(cli, [*case, "--workers", str(workers)])
                    if code:
                        raise SystemExit(f"{case} exited {code}")
                    times.append(elapsed)
                best[workers] = min(times)
            print(f"{' '.join(case):52s} workers=1 {best[1]:7.3f} s  "
                  f"workers=2 {best[2]:7.3f} s  speed-up {best[1] / best[2]:5.2f}x")


if __name__ == "__main__":
    main()
