"""qwalk benchmark: time-to-verdict on four workloads, with layer spans.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; qwalk is imported from ./src.  One
process, one thread, closed loop: each command starts when the previous
one has returned.  A run writes the seeded input files, times a fresh
interpreter importing qwalk.cli (setup_s), makes one untimed warm-up pass
and then whole passes until --seconds have elapsed; the heap is collected
before each command, outside its time.  Every end-to-end time is in
reference seconds (speed.py): wall time rated by the host's speed,
sampled in the same thread while the program runs.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it first times untraced
passes for half the time, then wraps qwalk's public functions (spans.py)
and times traced passes, and reports the per-layer metrics (wall time).
Every output is checked against known answers (known_answers.py) after
the timed passes.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Details, provenance and
the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import Speedometer, rate
from known_answers import Outcome, check, decisions
from spans import Tracer, layer_metrics, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Per-command wall-clock budget, the same for every commit.  The slowest
# default-seed command (scan-10) takes about 4 s on a 2-core host.
COMMAND_BUDGET_S = 30.0
# No command starts after this point, so a run always ends within 180 s.
RUN_DEADLINE_S = 150.0
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
    "decided_frac": "share", "peak_rss_mb": "MB",
}


class CommandTimeout(BaseException):
    """Raised by the budget alarm.  A BaseException, so no `except
    Exception` inside the program under test can swallow it."""


def _alarm(_signum, _frame):
    raise CommandTimeout


# The fresh interpreter samples its own speed before and after the import
# and prints the kernel times.
SETUP_CHILD = ("import speed\nmeter = speed.Speedometer()\nmeter.burst()\n"
               "import qwalk.cli\nmeter.burst()\nprint(meter.durations)")


def measure_setup(env: dict) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    qwalk.cli.  One untimed import first writes the bytecode cache."""
    cmd = [sys.executable, "-c", SETUP_CHILD]
    env = {**env, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}
    times = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
        wall = time.perf_counter() - start
        if i:
            durations = json.loads(out)
            times.append(rate(wall - sum(durations), durations))
    return statistics.median(times)


def tail(times: list[float], q: float) -> tuple[float, str]:
    """The q-th percentile of the pooled command times (q = 100: maximum)."""
    n = len(times)
    value = max(times) if q >= 100 or n < 2 else statistics.quantiles(times, n=100, method="inclusive")[round(q) - 1]
    beyond = sum(t > value for t in times)
    return value, f"p{q:g} of {n} command times, {beyond} above it"


class Runner:
    """Runs commands in-process with a wall-clock budget each."""

    def __init__(self, deadline: float):
        import qwalk.cli
        import qwalk.graphs
        import qwalk.periodicity
        import qwalk.walks

        self.cli, self.graphs = qwalk.cli, qwalk.graphs
        self.periodicity, self.walks = qwalk.periodicity, qwalk.walks
        self.deadline = deadline

    def _call(self, cmd):
        if cmd.op == "state":
            with open(cmd.argv[0]) as fh:
                g = self.graphs.parse_graph(fh.read())
            w = self.walks.build_bipartite_walk(g)
            return Outcome(0, states=[bool(self.periodicity.state_periodicity(w, e))
                                      for e in range(w.dim)])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Outcome(code, out.getvalue())

    def run(self, cmd):
        """(outcome or None, (start, end) or None when not started, failure reason or None)."""
        budget = min(COMMAND_BUDGET_S, self.deadline - time.monotonic())
        if budget <= 0:
            return None, None, "run deadline passed"
        # each qwalk invocation starts on a fresh heap; without this, garbage
        # left by one command is collected, at random, in the time of another
        gc.collect()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            outcome = self._call(cmd)
        except CommandTimeout:
            return None, (start, time.perf_counter()), f"over the {budget:.0f} s budget"
        except Exception as exc:  # a crash of the program under test is a failed command
            return None, (start, time.perf_counter()), f"raised {exc!r}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        span = (start, time.perf_counter())
        if outcome.code == 5:
            return None, span, "method disagreement (exit 5)"
        return outcome, span, None


def run_passes(runner: Runner, commands, seconds: float, results: list) -> list[list]:
    """Whole passes until `seconds` have elapsed, or the run deadline has
    passed, but at least one.  Appends (command, outcome, (start, end),
    failure) to results; returns the (start, end) of the commands started
    in each pass."""
    passes: list[list] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start < seconds and time.monotonic() < runner.deadline):
        first = len(results)
        for cmd in commands:
            results.append((cmd, *runner.run(cmd)))
        passes.append([span for _c, _o, span, _f in results[first:] if span is not None])
    return passes


def check_outputs(results: list, warmup: int) -> tuple[int, int, int, list[str]]:
    """Check every output against its known answer, after the timed passes.
    Returns wrong outputs (warm-up included), definite decisions and all
    decisions of the timed passes, and the problems found.  Identical
    outputs are checked once."""
    seen: dict = {}
    wrong = decided = total = 0
    problems = []
    for i, (cmd, outcome, _span, _failure) in enumerate(results):
        verdict = None
        if outcome is not None:
            key = (cmd.label, outcome.code, outcome.stdout, str(outcome.states))
            if key not in seen:
                seen[key] = check(cmd, outcome)
                if seen[key].wrong:
                    problems.append(f"{cmd.label}: {seen[key].detail}")
            verdict = seen[key]
        wrong += bool(verdict and verdict.wrong)
        if i >= warmup:
            decided += verdict.decided if verdict else 0
            total += decisions(cmd)
    return wrong, decided, total, problems


def provenance(args, inputs_sha: str) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "qwalk").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "git_sha": sha, "src_qwalk_lines": lines,
        "inputs_sha256": inputs_sha,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (SRC / "qwalk" / "__init__.py").is_file():
        print(f"perfbench: no qwalk package under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    commands, inputs_sha = workloads.build(args.workload, args.seed, OUT / "inputs" / f"{args.workload}-{args.seed}")
    setup_s = measure_setup(dict(os.environ))
    runner = Runner(deadline)
    signal.signal(signal.SIGALRM, _alarm)

    results: list = []
    speed = Speedometer()
    speed.start()
    try:
        run_passes(runner, commands, 0, results)  # warm-up: one pass, untimed
        warmup = len(results)
        passes = run_passes(runner, commands, args.seconds / (1 + args.trace), results)
        plain_end = len(results)
    finally:
        speed.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # a pass takes the sum of its command times
    pass_times = [sum(speed.reference_seconds(a, b) for a, b in spans) for spans in passes]
    pass_wall = [sum(b - a - speed.spent(a, b) for a, b in spans) for spans in passes]
    if args.trace:
        # traced passes run without the sampler, so spans hold no kernel time;
        # the overhead compares wall times
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(runner, commands, args.seconds / 2, results)
        finally:
            tracer.uninstall()
        layers = layer_metrics(tracer.spans, [sum(b - a for a, b in spans) for spans in traced], pass_wall)

    wrong, decided, total_decisions, problems = check_outputs(results, warmup)
    timed = results[warmup:]
    failures = [f"{cmd.label}: {failure}" for cmd, _o, _e, failure in timed if failure]
    attempted = len(timed)
    # a failed command counts at the time it took, one never started not at
    # all; when no command started, the pass times stand in
    cmd_times = [speed.reference_seconds(*span) for _c, _o, span, _f in results[warmup:plain_end]
                 if span is not None] or pass_times

    info = provenance(args, inputs_sha)
    if args.trace == 0:
        tail_s, tail_desc = tail(cmd_times, workloads.TAIL_PERCENTILE[args.workload])
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(pass_times),
            "cmd_p50_s": statistics.median(cmd_times),
            "cmd_tail_s": tail_s,
            "decided_frac": decided / total_decisions if total_decisions else 1.0,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        info.update(tail=tail_desc, passes=len(pass_times), pass_times_s=pass_times,
                    pass_wall_s=pass_wall)
    else:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
        info.update(untraced_pass_s=statistics.median(pass_times), passes=len(pass_times),
                    untraced_pass_wall_s=statistics.median(pass_wall))
    info.update(wrong_frac=wrong / len(results), failed_frac=len(failures) / attempted,
                wrong=problems, failed=failures)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": len(failures), "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    if args.trace:
        tracer.dump(f"{stem}.spans.jsonl")

    for k, v in info.items():
        print(f"# {k}: {v}")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
