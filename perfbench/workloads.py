"""The three workloads: what one operation is and how its answer is checked.

* `ladder` solves fixed rungs through `hindsight.cli.main`: the door
  domain and rendered bomb, rings and sickness instances.  Search
  blow-up dominates.
* `optimal_fuzz` runs `solve --optimal` on criterion 2's random domains:
  tiny, restart-bound instances.
* `soundness_walk` runs criterion 2's lockstep walk with the oracle on
  every state, through library calls: no search at all.

Every hindsight name is looked up when it is called, so a traced pass
sees the patched names.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from perfbench import corpus

ROOT = Path(__file__).resolve().parents[1]
SMARTHOME = ROOT / "tests" / "data" / "smarthome.hpx"
# The door plan (open, sense, drive) is three steps deep with one split.
SMARTHOME_BOUNDS = (3, 1)
# (family, n, repeats per pass).  A rung that solves in milliseconds is
# repeated so that its median time rests on many runs spread over the
# run, as a big rung's rests on seconds of work.
LADDER_RUNGS = (
    ("smarthome", 0, 25),
    ("bomb", 4, 10), ("bomb", 5, 6), ("bomb", 6, 1),
    ("rings", 2, 6), ("rings", 3, 1),
    ("sickness", 3, 10), ("sickness", 4, 6), ("sickness", 5, 1),
)
WARM_UP_CORPUS_OPS = 10


@dataclass
class Op:
    index: int
    label: str
    group: str
    path: Path
    argv: tuple[str, ...] = ()
    text: str = ""  # the domain file's contents, written by write_files
    step_bound: int = 0
    reference: object = None
    repeats: int = 1


def write_files(ops: list[Op]) -> None:
    """Write each op's domain file, which `prepare` only renders."""
    for op in ops:
        op.path.write_text(op.text, encoding="utf-8")


def run_cli(argv) -> tuple[int, str]:
    """`hindsight.cli.main(argv)` with its output captured."""
    from hindsight import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def _json_lines(text: str) -> tuple[list[dict], dict]:
    """(occurrence records, run report) of a json-lines solve."""
    rows = [json.loads(line) for line in text.strip().splitlines()]
    return rows[:-1], rows[-1]


def _cli_verdict(answer) -> tuple:
    """A solve's answer without its timing, for comparing runs."""
    code, text = answer
    records, report = _json_lines(text)
    report = {k: v for k, v in report.items() if k != "wall_seconds"}
    return code, json.dumps([records, report], sort_keys=True)


class Ladder:
    name = "ladder"
    op_limit_s = 30.0

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        from hindsight import generators, parser

        ops = []
        for family, n, repeats in LADDER_RUNGS:
            if family == "smarthome":
                label = "smarthome"
                text = SMARTHOME.read_text(encoding="utf-8")
                steps, branches = SMARTHOME_BOUNDS
            else:
                label = f"{family}({n})"
                domain = getattr(generators, f"generate_{family}")(n)
                text = parser.render_domain(domain)
                steps, branches = generators.benchmark_bounds(family, n)
            path = workdir / f"{family}{n}.hpx"
            argv = (
                "solve", str(path),
                "--max-steps", str(steps), "--max-branches", str(branches),
                "--oracle-check", "--emit-asp", str(path.with_suffix(".lp")),
                "--format", "json-lines",
            )
            ops.append(Op(len(ops), label, family, path, argv, text, steps, repeats=repeats))
        random.Random(seed).shuffle(ops)
        return ops

    def warm_up(self, ops: list[Op]) -> list[Op]:
        """The smallest rung of each family."""
        first: dict[str, Op] = {}
        for op in sorted(ops, key=lambda o: o.index):
            first.setdefault(op.group, op)
        return list(first.values())

    def attach_references(self, ops: list[Op]) -> None:
        """Ladder answers are checked by rule, not against stored values."""

    def run(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, answer) -> str | None:
        code, text = answer
        if code != 0:
            return f"exit code {code}"
        records, report = _json_lines(text)
        depth = 1 + max((r["step"] for r in records), default=-1)
        if not report["plan_found"] or depth != op.step_bound:
            return f"plan depth {depth}, expected {op.step_bound}"
        if not str(report["oracle"]).startswith("ok"):
            return f"oracle: {report['oracle']}"
        counts = report["atom_counts"]
        if any(a > b for a, b in zip(counts, counts[1:])):
            return f"atom counts shrink: {counts}"
        return None

    verdict = staticmethod(_cli_verdict)


class _Corpus:
    size = 0
    op_limit_s = 10.0

    def prepare(self, seed: int, workdir: Path) -> list[Op]:
        from hindsight import parser

        ops = []
        for i, domain in enumerate(corpus.corpus(seed, self.size)):
            path = workdir / f"d{i:04d}.hpx"
            ops.append(Op(i, f"#{i}", "corpus", path, self.argv(path), parser.render_domain(domain)))
        return ops

    def argv(self, path: Path) -> tuple[str, ...]:
        return ()

    def warm_up(self, ops: list[Op]) -> list[Op]:
        return ops[:WARM_UP_CORPUS_OPS]

    def attach_references(self, ops: list[Op]) -> None:
        """The committed answers serve every seed: a seed only relabels
        the corpus, which changes none of them."""
        refs = corpus.load_references()[self.name]
        if len(refs) != len(ops):
            raise ValueError(f"refs.json holds {len(refs)} answers for {len(ops)} "
                             f"{self.name} domains; rerun corpus.py --write-refs")
        for op, ref in zip(ops, refs):
            op.reference = ref


class OptimalFuzz(_Corpus):
    name = "optimal_fuzz"
    size = corpus.OPTIMAL_SIZE

    def argv(self, path: Path) -> tuple[str, ...]:
        steps, branches = corpus.OPTIMAL_BOUNDS
        return (
            "solve", str(path), "--optimal",
            "--max-steps", str(steps), "--max-branches", str(branches),
            "--oracle-check", "--format", "json-lines",
        )

    def run(self, op: Op):
        return run_cli(op.argv)

    def check(self, op: Op, answer) -> str | None:
        code, text = answer
        if op.reference is None:
            return None if code == 1 else f"exit code {code}, expected 1 (no plan)"
        if code != 0:
            return f"exit code {code}, expected a {op.reference}-occurrence plan"
        _records, report = _json_lines(text)
        if report["occurrences"] != op.reference:
            return f"{report['occurrences']} occurrences, expected {op.reference}"
        if not str(report["oracle"]).startswith("ok"):
            return f"oracle: {report['oracle']}"
        return None

    verdict = staticmethod(_cli_verdict)


class SoundnessWalk(_Corpus):
    name = "soundness_walk"
    size = corpus.WALK_SIZE

    def run(self, op: Op):
        from hindsight import parser

        domain = parser.parse_domain(op.path.read_text(encoding="utf-8"))
        return corpus.lockstep_walk(domain, checks=False)

    def check(self, op: Op, answer) -> str | None:
        states, atoms, violations = answer
        if violations:
            return f"{violations} soundness violations"
        if [states, atoms] != list(op.reference):
            return f"{states} states / {atoms} atoms, expected {op.reference}"
        return None

    @staticmethod
    def verdict(answer) -> tuple:
        return tuple(answer)


WORKLOADS = {w.name: w for w in (Ladder(), OptimalFuzz(), SoundnessWalk())}
