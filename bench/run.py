"""Closed-loop benchmark of the mdx subcommands, driven in-process.

    python3 bench/run.py --workload elect --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client calls ``mdx.cli.main(argv)`` on profile files written during
set-up, one call after another, in whole rounds of the workload's fixed
operation list until ``--seconds`` have passed.  Every JSON report is then
parsed and checked against the independent oracles in ``oracles.py``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import os

# One thread per numeric library: the machine has two cores and the
# benchmark is a single closed-loop client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 5


def fresh_cli():
    """Import mdx.cli from this checkout's src/, dropping any earlier import."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "mdx" or m.startswith("mdx.")]:
        del sys.modules[name]
    try:
        cli = importlib.import_module("mdx.cli")
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import mdx from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"mdx imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


def call(cli, argv: list[str]) -> tuple[float, int, str]:
    """(seconds, exit code, stdout) of one in-process subcommand call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # an uncaught error counts as a failed op
            traceback.print_exc(file=err)
            code = -1
        elapsed = time.perf_counter() - start
    if code:
        sys.stderr.write(f"op {argv} exited {code}: {err.getvalue()[-500:]}\n")
    return elapsed, code, out.getvalue()


@contextlib.contextmanager
def work_dir():
    """A scratch directory under bench/.work/, the working directory while
    in use (ops name their inputs by bare file name)."""
    root = BENCH_DIR / ".work"
    root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=root))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def set_up(name: str, seed: int, work: Path):
    """Import mdx, build the seeded inputs, write them, run one warm-up op."""
    cli = fresh_cli()
    wl = workloads.build(name, seed)
    for p in wl.profiles:
        (work / p.name).write_text(p.text(), encoding="utf-8")
    call(cli, wl.warmup.argv)
    return cli, wl


def run_rounds(cli, wl, seconds: float, tracer=None) -> tuple[list, int]:
    """Whole rounds of wl.ops until `seconds` pass.  With a tracer, rounds
    alternate untraced/traced and end on a complete pair."""
    records = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for i, op in enumerate(wl.ops):
            if traced:
                with tracer.op(len(records)):
                    elapsed, code, report = call(cli, op.argv)
            else:
                elapsed, code, report = call(cli, op.argv)
            records.append((i, rounds, traced, elapsed, code, report))
        if traced:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline and (tracer is None or rounds % 2 == 0):
            return records, rounds


def median_round(wl, records) -> float:
    """Seconds of one round with every op at its median latency over rounds.

    The speed of a shared host drifts by tens of percent within seconds.
    Each op runs once per round, so its median over rounds skips slow
    stretches.
    """
    by_op = [[] for _ in wl.ops]
    for op_index, _round, _traced, elapsed, _code, _text in records:
        by_op[op_index].append(elapsed)
    return sum(statistics.median(t) for t in by_op)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="mdx subcommand benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    with work_dir() as work:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cli, wl = set_up(args.workload, args.seed, work)
            setups.append(time.perf_counter() - start)

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        records, rounds = run_rounds(cli, wl, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Everything below is checking and reporting, outside every metric.
    import checks

    verdicts = checks.check_records(wl, records)
    attempted = len(records)
    failed = sum(1 for v in verdicts if v == "failed")
    correct = all(v != "wrong" for v in verdicts)
    summary = (f"{args.workload} seed={args.seed}: {rounds} rounds, {attempted} ops, "
               f"{failed} failed, correct={correct}")

    if args.trace:
        from tracing import layer_metrics

        traced = [r for r in records if r[2]]
        metrics = layer_metrics(tracer.spans, len(traced), sum(len(r[5]) for r in traced))
        # Overhead: a round at each op's median traced latency against one at
        # its median untraced latency (the rounds alternate).
        overhead = (median_round(wl, traced) / median_round(wl, [r for r in records if not r[2]])
                    - 1.0)
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        times = [r[3] for r in records]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "units_per_s": (sum(checks.units(wl)) / median_round(wl, records), "units/s"),
            "op_p50_ms": (1000.0 * statistics.median(times), "ms"),
            "op_p90_ms": (1000.0 * statistics.quantiles(times, n=10)[-1], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    sys.stderr.write(summary + "\n")
    for name, (value, unit) in metrics.items():
        sys.stderr.write(f"  {name:36s} {value:14.4f} {unit}\n")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process), in turn."""
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
