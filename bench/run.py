"""Benchmark of the biaseval command-line pipelines.

Run from the root of a checkout (the package need not be installed; CLI
children get this checkout's ``src`` on PYTHONPATH):

    python3 bench/run.py --workload rank_many_queries --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60  # every workload

``--trace 0`` runs the real CLI as child processes, pass after pass, and
reports the end-to-end metrics. ``--trace 1`` runs the same passes in
process through ``biaseval.cli.main``, alternating plain and traced passes,
and reports the per-layer metrics. Human-readable lines come first; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Inputs live under ``.bench_work/`` and are removed at exit;
a traced run leaves its last traced pass's spans in ``.bench_trace/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from launcher import child_env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


class Launcher:
    """Client of bench/launcher.py, which spawns the measured CLI children."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env)

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> tuple[int, int]:
        """Run one child to completion; return (exit code, ru_maxrss in KiB)."""
        request = {"argv": argv, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(reply)
        return reply["code"], reply["maxrss_kb"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spawn(work: Path, launcher: Launcher):
    """Run one CLI invocation as a child; return (exit code, ru_maxrss in KiB)."""

    def invoke(argv):
        code, maxrss = launcher.run([sys.executable, "-m", "biaseval", *argv],
                                    work / "stdout.log", work / "stderr.log")
        if code != 0:
            tail = (work / "stderr.log").read_text(errors="replace")[-2000:]
            print(f"biaseval {argv[0]} exited {code}: {tail}", file=sys.stderr)
        return code, maxrss

    return invoke


def in_process(biaseval):
    """Run one CLI invocation through ``biaseval.cli.main`` in this process.

    ``main`` is looked up at call time so a traced pass calls its wrapper.
    """

    def invoke(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = biaseval.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed operation, not a dead benchmark
                print(f"{type(exc).__name__}: {exc}")
                code = 1
        if code != 0:
            print(f"biaseval {argv[0]} returned {code}: {sink.getvalue()[-2000:]}", file=sys.stderr)
        return code, 0

    return invoke


def run_pass(workload, invoke, reference: dict):
    """One pass: every step back to back, then the output checks.

    Returns the wall time from the first step's start to the last step's
    end, the largest ru_maxrss among the steps, and each step's problems.
    """
    from workloads import digest

    workload.before_pass()
    steps = workload.steps()
    start = time.perf_counter()
    results = [invoke(step.argv) for step in steps]
    elapsed = time.perf_counter() - start
    problems = []
    for index, (step, (code, _rss)) in enumerate(zip(steps, results)):
        found = [f"{step.argv[0]}: exit code {code}"] if code != 0 else []
        try:
            found += step.verify()
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            found.append(f"{step.argv[0]}: unreadable output: {exc!r}")
        digests = [digest(path) if path.is_file() else None for path in step.outputs]
        if digests != reference.setdefault(index, digests):
            found.append(f"{step.argv[0]}: outputs differ from the first pass")
        problems.append(found)
    return elapsed, max(rss for _code, rss in results), problems


def tally_pass(workload, tally: Tally, problems) -> None:
    for found in problems:
        tally.add(found)
    attempted, failed = workload.sentences()
    tally.attempted += attempted
    tally.failed += failed


def percentile_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return f"no tail percentile: needs >= 20 passes, have {n}"
    rank = n - 10  # nearest-rank position with ten samples above it
    ordered = sorted(values)
    return f"p{100 * rank // n} {ordered[rank - 1]:.4f} s"


def another_pass(start: float, seconds: float, laps: list[float]) -> bool:
    """Whether to start another pass: always a first one, then only while
    one more lap of the mean length so far ends within ``seconds`` of
    ``start``, so a run ends near ``seconds`` however long a pass takes."""
    return not laps or time.perf_counter() - start + statistics.fmean(laps) <= seconds


def untraced_run(workload, seconds: float, tally: Tally, launcher: Launcher) -> dict:
    invoke = spawn(workload.work, launcher)
    reference: dict = {}
    times, peaks, laps = [], [], []
    start = time.perf_counter()
    while another_pass(start, seconds, laps):
        lap = time.perf_counter()
        elapsed, peak, problems = run_pass(workload, invoke, reference)
        tally_pass(workload, tally, problems)
        times.append(elapsed)
        peaks.append(peak / 1024)
        laps.append(time.perf_counter() - lap)
    # The mean, not the median: on a shared host the CPU speed can wander
    # between states that last from seconds to minutes, and the median of a
    # run's passes jumps from one state to another where the mean averages them.
    pass_s = statistics.fmean(times)
    print(f"pass_s       {pass_s:.4f} s    mean of {len(times)} passes; median "
          f"{statistics.median(times):.4f} s; {percentile_note(times)}")
    print(f"             each: {' '.join(f'{t:.3f}' for t in times)}")
    print(f"work_per_s   {workload.work_units() / pass_s:.2f} {workload.work_unit}/s"
          f"    {workload.work_units()} {workload.work_unit} per pass")
    print(f"peak_rss_mb  {statistics.median(peaks):.2f} MB    median over passes of the "
          f"largest child ru_maxrss")
    return {"pass_s": pass_s, "work_per_s": workload.work_units() / pass_s,
            "peak_rss_mb": statistics.median(peaks)}


def measure_import(env: dict) -> float:
    """Median child ``import biaseval.cli`` time minus bare interpreter start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, sink in (("pass", bare), ("import biaseval.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            sink.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def traced_run(workload, seconds: float, tally: Tally, env: dict) -> dict:
    from layers import COUNT_METRICS, RATIO_METRICS, SELF_TIME_METRICS, TIME_METRICS, PassTrace
    from spans import patched

    import biaseval
    import biaseval.cli

    start = time.perf_counter()
    import_s = measure_import(env)
    invoke = in_process(biaseval)
    reference: dict = {}
    plain, traced, layer_runs, laps = [], [], [], []
    expected = workload.expected_counts()
    while another_pass(start, seconds, laps):
        lap = time.perf_counter()
        elapsed, _peak, problems = run_pass(workload, invoke, reference)
        tally_pass(workload, tally, problems)
        plain.append(elapsed)

        trace = PassTrace(biaseval)
        with patched(trace.replacements):
            elapsed, _peak, problems = run_pass(workload, invoke, reference)
        values, counts = trace.metrics(workload.stub_stats())
        mismatched = [f"traced count {name} = {counts.get(name, 0)}, closed form {want}"
                      for name, want in expected.items() if counts.get(name, 0) != want]
        self_sum = values.pop("trace.self_sum_s")
        if abs(self_sum - values["trace.pass_s"]) > 1e-6:
            mismatched.append(f"self times sum to {self_sum}, pass took {values['trace.pass_s']}")
        problems[-1] += mismatched
        tally_pass(workload, tally, problems)
        traced.append(elapsed)
        layer_runs.append(values)
        laps.append(time.perf_counter() - lap)

    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{workload.name}.json"
    trace_file.write_text(json.dumps({
        "spans": [[s.name, s.start, s.end, s.parent] for s in trace.tracer.spans],
        "counts": counts,
    }) + "\n", encoding="utf-8")
    metrics = {name: statistics.median(run[name] for run in layer_runs)
               for name in layer_runs[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"traced run: {len(traced)} traced and {len(plain)} plain in-process passes; "
          f"tracing overhead {metrics['trace.overhead_s']:.4f} s per pass, of which the "
          f"counting hooks take {metrics['trace.hooks_s']:.4f} s; layer self times plus "
          f"hooks sum to the traced pass; "
          f"last traced pass's spans (name, start, end, parent) in {trace_file}")
    units = {**{n: "s" for n in TIME_METRICS}, **{n: "count" for n in COUNT_METRICS},
             **{n: "ratio" for n in RATIO_METRICS}}
    for name in sorted(metrics):
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    top = sorted(SELF_TIME_METRICS, key=metrics.get, reverse=True)[:3]
    print(f"largest self times of {metrics['trace.pass_s']:.4f} s traced pass: "
          + ", ".join(f"{name} {metrics[name]:.4f} s" for name in top))
    return {name: (value, units[name]) for name, value in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 launcher: Launcher | None) -> dict:
    """Set up one workload, measure it and print its lines; return the result."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](WORK_ROOT / name, seed)
    tally = Tally()
    print(f"biaseval benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print("closed loop, 1 client; inputs are read warm (the page cache is not dropped)")
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = statistics.median(setups)
        print(f"setup_s      {setup_s:.4f} s    median of {SETUP_REPEATS} set-ups")
        if trace:
            metrics = traced_run(workload, seconds, tally, env)
        else:
            values = untraced_run(workload, seconds, tally, launcher)
            values["setup_s"] = setup_s
            metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    finally:
        workload.close()
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print(f"fail_ratio   {tally.failed / tally.attempted:.6g}    "
          f"{tally.failed} of {tally.attempted} operations failed")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="biaseval CLI benchmark")
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biaseval" / "cli.py").is_file():
        print(f"error: biaseval sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = child_env(SRC)
    if args.trace:
        return run_all(args, env, None)
    # Started before this process grows: see bench/launcher.py.
    launcher = Launcher(env)
    try:
        return run_all(args, env, launcher)
    finally:
        launcher.close()


def run_all(args, env: dict, launcher: Launcher | None) -> int:
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} "
              f"or 'all'", file=sys.stderr)
        return 2
    # Compile the package's bytecode once so no pass pays for it.
    subprocess.run([sys.executable, "-c", "import biaseval.cli"], env=env, check=True)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), env, launcher)
               for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        # Several workloads: metric names carry the workload as a prefix.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
