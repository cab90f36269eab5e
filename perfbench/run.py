"""Benchmark of the `buchi` command line, run from the root of a checkout.

    python3 perfbench/run.py --workload square-search --seed 1 --seconds 54 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 54 [--trace 1]

One client in a closed loop: each invocation is its own `python -m buchi`
process started in the checkout's `src/`, and the next starts when it has
exited.  The workload's round of distinct seeded inputs (workloads.py)
is repeated in a seeded order, whole rounds only, for --seconds; every
output goes through its oracle (oracles.py), whose reference was
computed before any timing.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json.
With --trace 1 the round instead runs in this process through
`buchi.cli.main(argv)`, alternately untraced and traced (tracing.py), and
the metrics are the per-layer ones; spans go to perfbench/out/.
Standard error gets one row for the workload and one for each of its
command groups (seq-search, surface-scan, padic-calc, compile-check),
with failed_ratio and, for compile-check, target_vars; `--all` runs
every workload and prints those rows on stdout instead.

Exit status is 0 when a result was printed, and 2 when the checkout has
no `src/buchi` to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

import procs
import tracing
import workloads

SETUP_PROBES_PER_ROUND = 3
INVOCATION_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0            # stop starting invocations after this
SETUP_ARGV = ["-c", "import buchi.cli; buchi.cli.build_parser()"]

END_TO_END_UNITS = {"wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail_rank(n: int) -> int:
    """Index, in ascending order, of the highest sample with at least ten
    samples above it (the last one when there are fewer than eleven)."""
    return n - 11 if n >= 11 else n - 1


def latency_stats(latencies: list[float]) -> dict:
    """Median and tail of a set of latencies, with the tail's percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if not n:
        return {"latency_p50_s": 0.0, "latency_tail_s": 0.0, "tail_percentile": 0.0,
                "invocations": 0}
    rank = tail_rank(n)
    return {"latency_p50_s": statistics.median(ordered), "latency_tail_s": ordered[rank],
            "tail_percentile": round(100 * (rank + 1) / n, 1), "invocations": n}


class Batch:
    """Outcome counts of a run, in total and by command group."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.group_attempted: Counter = Counter()
        self.group_failed: Counter = Counter()
        self.errors: list[str] = []

    def attempt(self, group: str) -> None:
        self.attempted += 1
        self.group_attempted[group] += 1

    def fail(self, group: str, what: str, why: str) -> None:
        self.failed += 1
        self.group_failed[group] += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what[:120]}: {why}")

    def verify(self, case: workloads.Case, text: str) -> int:
        """Oracle verdict on one output; returns its target-variable count."""
        verdict, target_vars = case.check(text)
        if verdict is not None:
            self.fail(case.group, " ".join(case.argv), verdict)
        return target_vars


def timed_run(workload: str, cases, seed: int, seconds: int, src: str, started: float):
    env = procs.pinned_env(src)
    batch = Batch()
    deadline = started + RUN_BUDGET_S

    def spawn(argv):
        left = deadline - time.perf_counter()
        if left <= 0:
            return None
        return procs.run(argv, src, env, min(INVOCATION_TIMEOUT_S, left))

    setups: list[float] = []

    def probe(timed: bool) -> None:
        res = spawn(SETUP_ARGV)
        if not timed:
            return
        batch.attempt("setup")
        if res is None or res.timed_out or res.returncode != 0:
            batch.fail("setup", "setup probe", "did not exit 0 in time")
        else:
            setups.append(res.latency_s)

    probe(timed=False)          # writes the bytecode cache
    order_rng = random.Random(f"order/{workload}/{seed}")
    latencies: dict[str, list[float]] = defaultdict(list)
    walls: list[Counter] = []       # per round: seconds spent in each group
    round_s: list[float] = []
    peak_kb = 0
    target_vars: Counter = Counter()
    measure_start = time.perf_counter()
    # Whole rounds, while one more still fits in --seconds.
    while not round_s or (time.perf_counter() - measure_start
                          + statistics.mean(round_s) <= seconds):
        round_start = time.perf_counter()
        # Probes are spread over the run so that they see the same
        # machine as the invocations.
        for _ in range(SETUP_PROBES_PER_ROUND):
            probe(timed=True)
        order = list(cases)
        order_rng.shuffle(order)
        wall: Counter = Counter()
        for case in order:
            batch.attempt(case.group)
            what = " ".join(case.argv)
            res = spawn(["-m", "buchi", *case.argv])
            if res is None:
                batch.fail(case.group, what, "not started: run budget spent")
                continue
            wall[case.group] += res.wall_s
            latencies[case.group].append(res.latency_s)
            peak_kb = max(peak_kb, res.rss_kb)
            if res.timed_out:
                batch.fail(case.group, what, "timed out")
            elif res.returncode != 0:
                batch.fail(case.group, what, f"exit {res.returncode}: {res.stderr[-200:]!r}")
            else:
                count = batch.verify(case, res.stdout.decode("utf-8"))
                if not walls:
                    target_vars[case.group] += count
        walls.append(wall)
        round_s.append(time.perf_counter() - round_start)

    overall = latency_stats([x for group in latencies.values() for x in group])
    metrics = {
        "wall_s": statistics.mean(sum(w.values()) for w in walls),
        "latency_p50_s": overall["latency_p50_s"],
        "latency_tail_s": overall["latency_tail_s"],
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": peak_kb / 1024,
    }
    extra = {"rounds": len(walls), "invocations": overall["invocations"],
             "tail_percentile": overall["tail_percentile"]}
    groups = {}
    for group in workloads.GROUPS[workload]:
        row = {"wall_s": statistics.mean(w[group] for w in walls)}
        row.update(latency_stats(latencies[group]))
        if target_vars[group]:
            row["target_vars"] = target_vars[group]
        groups[group] = row
    return batch, metrics, extra, groups


def _import_buchi(src: str):
    sys.path.insert(0, src)
    import buchi.cli
    if not os.path.abspath(buchi.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"buchi was imported from {buchi.cli.__file__}, not from {src}")
    return buchi.cli


def _in_process_pass(cli, cases, batch: Batch, tracer=None) -> tuple[float, int]:
    """Run each case once through cli.main; (seconds inside main, stdout bytes)."""
    wall = 0.0
    stdout_bytes = 0
    for case in cases:
        batch.attempt(case.group)
        if tracer is not None:
            tracer.invocation += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(case.argv))
        except Exception:  # a crash of the code under test is a failed invocation
            wall += time.perf_counter() - start
            batch.fail(case.group, " ".join(case.argv),
                       traceback.format_exc().strip().splitlines()[-1])
            continue
        wall += time.perf_counter() - start
        text = out.getvalue()
        stdout_bytes += len(text.encode("utf-8"))
        if code != 0:
            batch.fail(case.group, " ".join(case.argv), f"exit {code}: {err.getvalue()[-200:]!r}")
        else:
            batch.verify(case, text)
    return wall, stdout_bytes


def traced_run(workload: str, cases, seed: int, seconds: int, src: str, out_dir: str,
               started: float):
    cli = _import_buchi(src)
    tracer = tracing.Tracer()
    batch = Batch()
    plain, traced, per_pass = [], [], []
    layer_s: dict[str, Counter] = {}
    kept = None
    while True:
        plain.append(_in_process_pass(cli, cases, batch)[0])
        tracer.reset()
        tracer.install()
        wall = 0.0
        stdout_bytes = 0
        try:
            # Group by group, so that each group's layer self times show.
            for group in workloads.GROUPS[workload]:
                before = Counter(tracer.self_s)
                w, b = _in_process_pass(cli, [c for c in cases if c.group == group],
                                        batch, tracer)
                wall += w
                stdout_bytes += b
                layer_s.setdefault(group, Counter())
                for name, s in (tracer.self_s - before).items():
                    layer_s[group][tracing.layer_of(name)] += s
        finally:
            tracer.remove()
        traced.append(wall)
        per_pass.append(tracer.metrics())
        if kept is None:
            kept = (tracer.spans, tracer.dropped)
        # Another pair of passes only while it still fits in --seconds.
        elapsed = time.perf_counter() - started
        if elapsed + plain[-1] + traced[-1] > min(seconds, RUN_BUDGET_S / 2):
            break
    tracing.write_spans(os.path.join(out_dir, f"trace-{workload}-{seed}.json"), *kept)
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["cli.stdout_bytes"] = stdout_bytes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    groups = {}
    for group, by_layer in layer_s.items():
        total = sum(by_layer.values())
        groups[group] = {f"{layer}.share": round(s / total, 3)
                         for layer, s in by_layer.most_common() if s / total >= 0.001}
    return batch, metrics, {"passes": len(traced)}, groups


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: str):
    started = time.perf_counter()
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, "perfbench", "out")
    workdir = os.path.join(out_dir, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cases = workloads.build(workload, seed, workdir)
        if trace:
            return traced_run(workload, cases, seed, seconds, src, out_dir, started)
        return timed_run(workload, cases, seed, seconds, src, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _unit(metric: str) -> str:
    return END_TO_END_UNITS.get(metric) or tracing.unit_of(metric)


def result_line(batch: Batch, metrics: dict) -> str:
    return json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    })


def _ratio(failed: int, attempted: int) -> str:
    return f"failed_ratio={failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})"


def _print_rows(workload: str, batch: Batch, metrics: dict, extra: dict,
                groups: dict) -> None:
    cells = [f"{k}={v:.6g} {_unit(k)}" for k, v in metrics.items()]
    cells.append(_ratio(batch.failed, batch.attempted))
    cells += [f"{k}={v}" for k, v in extra.items()]
    print(f"{workload:14s} " + "  ".join(cells))
    for group, row in groups.items():
        cells = [f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                 for k, v in row.items()]
        cells.append(_ratio(batch.group_failed[group], batch.group_attempted[group]))
        print(f"  {group:14s} " + "  ".join(cells))
    for line in batch.errors:
        print(f"  error: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, as rows")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=54)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "buchi", "cli.py")):
        print(f"run.py: no src/buchi/cli.py under {root}; run from a checkout's root",
              file=sys.stderr)
        return 2
    env = procs.pinned_env(src)
    if dict(os.environ) != env:
        # Re-enter under the pinned environment so the in-process traced run
        # sees the same hash seed and settings as the child processes.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]], env)

    for workload in workloads.WORKLOADS if args.all else (args.workload,):
        batch, metrics, extra, groups = run_workload(workload, args.seed, args.seconds,
                                                     bool(args.trace), root)
        with contextlib.redirect_stdout(sys.stdout if args.all else sys.stderr):
            _print_rows(workload, batch, metrics, extra, groups)
    if not args.all:
        print(result_line(batch, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
