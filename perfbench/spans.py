"""Per-layer tracing from outside the program.

A traced pass replaces each public hindsight function in WRAPS, at the
name its caller looks it up, with a wrapper that records a span: name,
start, end, parent span, operation id, two annotation numbers and
whether the call raised.  Spans stay in memory (typed arrays, about 40
bytes each) and are written out when the run ends.  A name that no
longer exists is skipped, so its layer reports zero calls.

A span's self time is its duration minus the durations of its direct
children; calls nest strictly in one thread, so that is the time no
child covers.  The layer of a span is the part of its name before the
dot; `bench.op` is the benchmark's own per-operation code around the
program.
"""

from __future__ import annotations

import base64
import functools
import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  "Class.method" patches a method.
WRAPS = (
    ("hindsight.cli", "main", "cli.main"),
    ("hindsight.cli", "parse_domain", "parser.parse_domain"),
    ("hindsight.parser", "parse_domain", "parser.parse_domain"),
    ("hindsight.cli", "validate_domain", "model.validate_domain"),
    ("hindsight.engine", "validate_domain", "model.validate_domain"),
    ("hindsight.emitter", "validate_domain", "model.validate_domain"),
    ("hindsight.cli", "emit_program", "emitter.emit_program"),
    ("hindsight.cli", "find_plan", "search.find_plan"),
    ("hindsight.cli", "find_optimal_plan", "search.find_optimal_plan"),
    ("hindsight.cli", "verify_plan", "search.verify_plan"),
    ("hindsight.search", "verify_plan", "search.verify_plan"),
    ("hindsight.search", "initial_state", "engine.initial_state"),
    ("hindsight.engine", "initial_state", "engine.initial_state"),
    ("hindsight.engine", "EpistemicState.step", "engine.step"),
    ("hindsight.cli", "soundness_check", "oracle.soundness_check"),
    ("hindsight.oracle", "soundness_check", "oracle.soundness_check"),
    ("hindsight.oracle", "tqs_timeline", "oracle.tqs_timeline"),
    ("hindsight.oracle", "branch_trace", "oracle.branch_trace"),
    ("hindsight.generators", "generate_bomb", "generators.generate"),
    ("hindsight.generators", "generate_rings", "generators.generate"),
    ("hindsight.generators", "generate_sickness", "generators.generate"),
)

OP_SPAN = "bench.op"
FIND_SPANS = ("search.find_plan", "search.find_optimal_plan")
LAYERS = (
    "bench", "cli", "parser", "model", "emitter", "search", "engine", "oracle",
    "generators",
)
# Steps are bucketed by the stepping state's max_steps; the last bucket
# takes every deeper horizon.
HORIZON_BUCKETS = 8


def _plan_steps(plan) -> int:
    """Step nodes in a plan tree (attributes read defensively)."""
    if plan is None or not hasattr(plan, "actions"):
        return 0
    n = 1 + _plan_steps(getattr(plan, "on_true", None))
    return n + _plan_steps(getattr(plan, "on_false", None))


# span name -> (args, result) -> (x, y)
NOTES = {
    "engine.step": lambda args, result: (len(args[0].branches), args[0].max_steps),
    "search.find_plan": lambda args, result: (result is not None, _plan_steps(result)),
    "search.find_optimal_plan": lambda args, result: (result is not None, _plan_steps(result)),
    "oracle.soundness_check": lambda args, result: (result.checked, 0),
    "emitter.emit_program": lambda args, result: (len(result.encode("utf-8")), 0),
}


class Recorder:
    """Spans of one traced pass, in typed arrays indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.x = array("q")
        self.y = array("q")
        self.err = array("B")
        self.stack: list[int] = []
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.current_op)
        self.x.append(0)
        self.y.append(0)
        self.err.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        while self.stack and self.stack.pop() != i:
            pass

    def wrap(self, fn, name: str):
        nid = self._id(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(nid)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    self.x[i], self.y[i] = note(args, result)
                return result
            except BaseException:
                self.err[i] = 1
                raise
            finally:
                self._close(i)

        return wrapper

    def run_op(self, op_id: int, fn):
        """Run one benchmark operation under a root span."""
        self.current_op = op_id
        i = self._open(self._id(OP_SPAN))
        try:
            return fn()
        finally:
            self._close(i)
            self.stack.clear()
            self.current_op = -1

    def dump(self) -> dict:
        cols = ("name", "start", "end", "parent", "op", "x", "y", "err")
        return {
            "names": self.names,
            "typecodes": {c: getattr(self, c).typecode for c in cols},
            "columns": {
                c: base64.b64encode(getattr(self, c).tobytes()).decode("ascii")
                for c in cols
            },
        }


def _resolve(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    owner, _, key = attr.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    return holder, key


@contextmanager
def traced(rec: Recorder, wraps=WRAPS):
    """Patch every name in `wraps` to record into `rec`; restore on exit."""
    patched = []
    try:
        for module_name, attr, name in wraps:
            holder, key = _resolve(module_name, attr)
            original = vars(holder).get(key) if holder is not None else None
            if original is None:
                continue
            setattr(holder, key, rec.wrap(original, name))
            patched.append((holder, key, original))
        yield patched
    finally:
        for holder, key, original in reversed(patched):
            setattr(holder, key, original)
        for holder, key, original in patched:
            if vars(holder).get(key) is not original:
                raise RuntimeError(f"{holder.__name__}.{key} was not restored")


def _durations(rec: Recorder) -> tuple[list[float], list[float]]:
    """(duration, self time) of every span."""
    dur = [e - s for s, e in zip(rec.start, rec.end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            covered[p] += dur[i]
    return dur, [d - c for d, c in zip(dur, covered)]


def layer_self_times(rec: Recorder) -> dict[str, float]:
    """Summed self time per layer."""
    _dur, self_time = _durations(rec)
    totals = dict.fromkeys(LAYERS, 0.0)
    for i, t in enumerate(self_time):
        layer = rec.names[rec.name[i]].partition(".")[0]
        totals[layer] = totals.get(layer, 0.0) + t
    return totals


def layer_metrics(rec: Recorder, setup: Recorder) -> dict[str, float]:
    """Per-layer counts and times from the spans of one traced pass;
    `generators.s` comes from the traced set-up instead."""
    n = len(rec.start)
    names = rec.names
    dur, self_time = _durations(rec)

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    dur_s: dict[str, float] = {}
    xsum: dict[str, int] = {}
    errs: dict[str, int] = {}
    layer_self = layer_self_times(rec)
    nodes = [0] * (HORIZON_BUCKETS + 1)
    restarts = 0
    for i in range(n):
        name = names[rec.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + self_time[i]
        dur_s[name] = dur_s.get(name, 0.0) + dur[i]
        xsum[name] = xsum.get(name, 0) + rec.x[i]
        errs[name] = errs.get(name, 0) + rec.err[i]
        p = rec.parent[i]
        parent = names[rec.name[p]] if p >= 0 else None
        if parent in FIND_SPANS:
            if name == "engine.step":
                nodes[min(rec.y[i], HORIZON_BUCKETS)] += 1
            elif name == "engine.initial_state":
                restarts += 1

    def count(name):
        return calls.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    finds = [i for i in range(n) if names[rec.name[i]] in FIND_SPANS]
    solved = sum(rec.x[i] for i in finds)
    plan_steps = sum(rec.y[i] for i in finds)
    search_nodes = sum(nodes)
    steps = count("engine.step")
    soundness = count("oracle.soundness_check")
    skipped = errs.get("oracle.soundness_check", 0)
    return {
        "search.nodes": search_nodes,
        **{f"search.nodes_h{k}": nodes[k] for k in range(1, HORIZON_BUCKETS)},
        f"search.nodes_h{HORIZON_BUCKETS}up": nodes[HORIZON_BUCKETS],
        "search.self_s": layer_self["search"],
        "search.yield": ratio(plan_steps, search_nodes),
        "search.restarts": restarts,
        "search.verify_calls": count("search.verify_plan"),
        "search.verify_s": dur_s.get("search.verify_plan", 0.0),
        "search.verify_per_solve": ratio(count("search.verify_plan"), solved),
        "engine.init_calls": count("engine.initial_state"),
        "engine.init_s": self_s.get("engine.initial_state", 0.0),
        "engine.steps": steps,
        "engine.step_s": self_s.get("engine.step", 0.0),
        "engine.step_us": ratio(self_s.get("engine.step", 0.0), steps) * 1e6,
        "engine.branch_steps": xsum.get("engine.step", 0),
        "engine.rejected_steps": errs.get("engine.step", 0),
        "model.validate_calls": count("model.validate_domain"),
        "model.validate_s": layer_self["model"],
        "oracle.calls": soundness,
        "oracle.s": layer_self["oracle"],
        "oracle.atoms_checked": xsum.get("oracle.soundness_check", 0),
        "oracle.skipped": skipped,
        "oracle.coverage": ratio(soundness - skipped, soundness),
        "cli.self_s": layer_self["cli"],
        "parser.calls": count("parser.parse_domain"),
        "parser.s": layer_self["parser"],
        "emitter.calls": count("emitter.emit_program"),
        "emitter.s": layer_self["emitter"],
        "emitter.bytes": xsum.get("emitter.emit_program", 0),
        "bench.self_s": layer_self["bench"],
        "generators.s": layer_self_times(setup)["generators"],
        "trace.spans": n,
    }


# Counts that must repeat exactly between two traced passes.
REPEATED_COUNTS = (
    "engine.steps",
    "engine.branch_steps",
    "engine.rejected_steps",
    "engine.init_calls",
    "search.nodes",
    "search.restarts",
    "search.verify_calls",
    "model.validate_calls",
    "oracle.calls",
    "oracle.atoms_checked",
    "parser.calls",
    "emitter.calls",
    "emitter.bytes",
)


def write_spans(path: Path, header: dict, recorders: dict[str, Recorder]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    record = dict(header, passes={k: r.dump() for k, r in recorders.items()})
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
