"""Benchmark entry point.

    python3 perfbench/run.py --workload ladder --seed 774000 --seconds 38 --trace 0

Runs one workload from the repository root in one process, serially, as
a closed loop: one operation at a time, the next starting when the
previous one returns.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`;
the line before it carries run metadata.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
# No operation starts after this much of a run, and none runs past the
# second figure, so a run that stalls still ends well within 180 s.
LAST_START_S = 140.0
HARD_STOP_S = 165.0

# The speed loop: fixed pure-Python work that shares no code with
# hindsight, timed between operations (at most every LOOP_EVERY_S).
# Other tenants of a shared machine change its speed by 20-30% for
# minutes at a time, moving whole runs.  Every end-to-end time is scaled
# by REFERENCE_LOOP_S / (the loop's median time in the run): it is
# reported at the speed at which the loop takes REFERENCE_LOOP_S, its
# median on the 2-vCPU machine the benchmark was built on.
REFERENCE_LOOP_S = 0.010
LOOP_EVERY_S = 0.1

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import hindsight.cli\n"
    "print(time.perf_counter() - t)\n"
)


class OpTimeout(BaseException):
    """Raised by the alarm when an operation exceeds its wall limit.

    A BaseException, so that no `except Exception` in the program can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout


@dataclass
class Result:
    op: object
    seconds: float
    answer: object
    error: str | None
    kind: str  # "ok", "wrong", "error" or "timeout"


def run_op(workload, op, call, limit: float) -> Result:
    """Run one operation under a wall limit; time it; check its answer."""
    answer = None
    started = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            answer = call(op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        kind, error = "ok", None
    except OpTimeout:
        kind, error = "timeout", f"timed out after {limit:.1f}s"
    except Exception as exc:
        kind, error = "error", f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if kind == "ok":
        try:
            error = workload.check(op, answer)
        except Exception as exc:
            error = f"unreadable answer: {type(exc).__name__}: {exc}"
        kind = "ok" if error is None else "wrong"
    return Result(op, seconds, answer, error, kind)


def schedule(ops) -> list:
    """One pass's order: every op `op.repeats` times, each op's repeats
    spaced evenly over the pass and offset by its place in `ops`, so
    that a slow or quick stretch of the machine holds few of one op's
    samples."""
    n = len(ops)
    slots = [
        ((j + (i + 0.5) / n) / op.repeats, op)
        for i, op in enumerate(ops)
        for j in range(op.repeats)
    ]
    return [op for _, op in sorted(slots, key=lambda slot: slot[0])]


def run_pass(workload, ops, call, t0: float) -> tuple[list[Result], float]:
    """One pass over `schedule(ops)`; (results, wall seconds)."""
    results = []
    started = time.perf_counter()
    for op in schedule(ops):
        elapsed = time.perf_counter() - t0
        if elapsed >= LAST_START_S:
            break
        limit = min(workload.op_limit_s, HARD_STOP_S - elapsed)
        results.append(run_op(workload, op, call, limit))
    return results, time.perf_counter() - started


def speed_loop() -> float:
    """Seconds taken by a fixed piece of work of the kinds the planner
    does: small-int bit tests, tuple keys, dict and frozenset updates."""
    started = time.perf_counter()
    table: dict[tuple[int, int], frozenset] = {}
    for i in range(4000):
        bits = (i * 2654435761) & 0xFFFF
        key = (bits % 97, i % 13)
        if all(bits >> k & 1 == 0 for k in (3, 7)):
            table[key] = table.get(key, frozenset()) | {i % 7}
        else:
            table.setdefault(key, frozenset())
    sorted(table.items())
    return time.perf_counter() - started


def timed_runs(workload, ops, seconds: float, t0: float) -> tuple[list[Result], list[float]]:
    """Cycle through `schedule(ops)` for `seconds`: at least one whole
    pass, then until the next op, at its last time, would run past
    `seconds`.  The run's time goes to operations, not to a pass that
    would not fit.  Returns the results and the speed loop's times."""
    order = schedule(ops)
    results: list[Result] = []
    loops: list[float] = []
    last: dict[int, float] = {}
    started = looped = time.perf_counter()
    while True:
        for op in order:
            now = time.perf_counter()
            if len(results) >= len(order) and now - started + last[op.index] > seconds:
                return results, loops
            if now - t0 >= LAST_START_S:
                return results, loops
            if now - looped >= LOOP_EVERY_S:
                loops.append(speed_loop())
                looped = time.perf_counter()
            limit = min(workload.op_limit_s, HARD_STOP_S - (now - t0))
            result = run_op(workload, op, workload.run, limit)
            results.append(result)
            last[op.index] = result.seconds


def import_seconds() -> float:
    """Cold import time of the package, measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def set_up(workload, seed: int, workdir: Path) -> tuple[float, list]:
    """Import, generate and render the domain files, then run the untimed
    warm-up pass.  Returns (seconds, ops).  The import is timed in a
    fresh interpreter, since this one has imported the package already.
    Writing the files is the benchmark's own disk work, whose speed
    swings threefold on a shared machine, so it is left out."""
    from perfbench.workloads import write_files

    imported = import_seconds()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    ops = workload.prepare(seed, workdir)
    prepared = time.perf_counter() - started
    write_files(ops)
    started = time.perf_counter()
    for op in workload.warm_up(ops):
        workload.run(op)
    return imported + prepared + time.perf_counter() - started, ops


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def op_times(results: list[Result]) -> dict[int, float]:
    """Each operation's median time over its runs in this benchmark run."""
    samples: dict[int, list[float]] = {}
    for r in results:
        samples.setdefault(r.op.index, []).append(r.seconds)
    return {i: statistics.median(v) for i, v in samples.items()}


def end_to_end(results: list[Result], setups: list[float]) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics as measured, from each operation's median time.

    Other tenants of a shared machine make single runs both slower and,
    in quiet moments, faster than usual; the median of an operation's
    runs spread over the whole run is the steadiest estimate of its cost
    (the best run moves with the quietest moment).  `wall_s` is one pass
    assembled from those median times.  `at_speed` then removes the
    machine's speed in the run.
    """
    times = sorted(op_times(results).values())
    wall = sum(times)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(times) / wall, "1/s"),
        "p50_ms": (statistics.median(times) * 1e3, "ms"),
        "p99_ms": (statistics.quantiles(times, n=100, method="inclusive")[98] * 1e3, "ms"),
        "geomean_ms": (math.exp(statistics.fmean(math.log(t) for t in times)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def at_speed(metrics: dict[str, tuple[float, str]], speed: float) -> dict[str, tuple[float, str]]:
    """The metrics with every time multiplied, and every rate divided,
    by `speed`; memory is left as measured."""
    scale = {"s": speed, "ms": speed, "1/s": 1 / speed}
    return {k: (v * scale.get(u, 1.0), u) for k, (v, u) in metrics.items()}


def group_walls(results: list[Result]) -> dict[str, float]:
    """Summed median times per group: the ladder's families."""
    ops = {r.op.index: r.op for r in results}
    walls: dict[str, float] = {}
    for index, seconds in op_times(results).items():
        group = ops[index].group
        walls[group] = walls.get(group, 0.0) + seconds
    return dict(sorted(walls.items()))


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".bytes"):
        return "bytes"
    if name.rpartition(".")[2] in ("yield", "verify_per_solve", "coverage",
                                   "overhead", "accounted"):
        return "ratio"
    return "count"


def traced_run(workload, ops, seed: int, workdir: Path, t0: float):
    """One untraced pass, a traced set-up, then two traced passes.

    Returns (metrics, passes, problems): the per-layer metrics of the
    first traced pass, every pass's results, and what failed to repeat.
    """
    from perfbench import spans

    plain, plain_wall = run_pass(workload, ops, workload.run, t0)
    setup_rec = spans.Recorder()
    with spans.traced(setup_rec):
        workload.prepare(seed, workdir)
    recs, walls, passes = [], [], [plain]
    for _ in range(2):
        rec = spans.Recorder()
        with spans.traced(rec):
            done, wall = run_pass(
                workload, ops,
                lambda op, rec=rec: rec.run_op(op.index, lambda: workload.run(op)),
                t0,
            )
        recs.append(rec)
        walls.append(wall)
        passes.append(done)
    metrics = spans.layer_metrics(recs[0], setup_rec)
    again = spans.layer_metrics(recs[1], setup_rec)
    problems = [
        f"{k} differs between traced passes: {metrics[k]} vs {again[k]}"
        for k in spans.REPEATED_COUNTS if metrics[k] != again[k]
    ]

    def verdicts(done):
        return [
            (r.op.index, workload.verdict(r.answer) if r.kind == "ok" else (r.kind, r.error))
            for r in done
        ]

    if not verdicts(plain) == verdicts(passes[1]) == verdicts(passes[2]):
        problems.append("traced and untraced passes gave different verdicts")
    metrics["trace.wall_s"] = walls[0]
    metrics["trace.overhead"] = walls[0] / plain_wall - 1
    metrics["trace.accounted"] = sum(spans.layer_self_times(recs[0]).values()) / walls[0]
    spans.write_spans(
        OUT / f"spans-{workload.name}.json",
        {"workload": workload.name, "seed": seed},
        {"setup": setup_rec, "traced_1": recs[0], "traced_2": recs[1]},
    )
    return {k: (v, _unit(k)) for k, v in metrics.items()}, passes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None, help="default 774000")
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()

    if os.environ.get("HINDSIGHT_CHECK", "") not in ("", "0"):
        print("error: HINDSIGHT_CHECK is set; the benchmark would time the "
              "assertion-checked engine instead of the real one", file=sys.stderr)
        return 2
    if not (SRC / "hindsight" / "__init__.py").is_file():
        print(f"error: no hindsight package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import hindsight

    if Path(hindsight.__file__).resolve().parent != SRC / "hindsight":
        print(f"error: imported hindsight from {hindsight.__file__}", file=sys.stderr)
        return 2
    from perfbench.corpus import DEFAULT_SEED
    from perfbench.workloads import WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    problems: list[str] = []
    raw, loops, speed = {}, [], 1.0
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, ops = set_up(workload, seed, workdir)
            setups.append(seconds)
        workload.attach_references(ops)
        if args.trace:
            metrics, passes, problems = traced_run(workload, ops, seed, workdir, t0)
        else:
            done, loops = timed_runs(workload, ops, args.seconds, t0)
            passes = [done]
            raw = end_to_end(done, setups)
            speed = REFERENCE_LOOP_S / statistics.median(loops)
            metrics = at_speed(raw, speed)
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(workdir, ignore_errors=True)

    results = [r for done in passes for r in done]
    failures = [r for r in results if r.kind != "ok"]
    times = list(op_times(results).values())
    p99 = statistics.quantiles(times, n=100, method="inclusive")[98]
    meta = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "ops_per_pass": len(ops),
        "passes": round(len(results) / len(schedule(ops)), 2),
        "samples": len(results),
        "ops_beyond_p99": sum(t > p99 for t in times),
        "failed_share": len(failures) / len(results),
        "group_wall_s": group_walls(results),
        "setup_samples_s": setups,
        "speed_loops": len(loops),
        "speed_factor": speed,
        "raw_metrics": {k: v for k, (v, _u) in raw.items()},
        "failures": [f"{r.op.label}: {r.kind}: {r.error}" for r in failures[:10]],
        "problems": problems,
    }
    correct = not problems and not any(r.kind in ("wrong", "error") for r in failures)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:14.6f} {unit}", file=sys.stderr)
    for line in meta["failures"] + problems:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
