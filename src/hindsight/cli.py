"""Command-line front end: solve domain files, run benchmarks, validate.

Exit codes: 0 plan found (or file valid), 1 no plan within the bounds,
2 input error (unreadable file, parse error, bad arguments, a domain the
emitter cannot write), 3 internal inconsistency (replay, oracle, or
engine failure).

Output formats for a found plan:

* ``tree`` — indented conditional-plan tree plus a human summary;
* ``atoms`` — the plan's occurrence/branching/sensing atoms, one per
  line, with the summary on the diagnostic stream;
* ``json-lines`` — one JSON record per plan occurrence, then one final
  JSON run report (the machine-readable channel).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .emitter import EmissionError, emit_program
from .engine import EngineError, EpistemicState
from .generators import (
    benchmark_bounds,
    generate_bomb,
    generate_rings,
    generate_sickness,
)
from .model import PlanningDomain, validate_domain
from .oracle import OracleCapacityError, soundness_check
from .parser import ParseError, parse_domain
from .search import (
    MAX_STEPS,
    PlanSearchError,
    _search,
    extract_atoms,
    find_optimal_plan,  # noqa: F401  perfbench/spans.py traces it under this name
    find_plan,  # noqa: F401  perfbench/spans.py traces it under this name
    format_plan,
    plan_records,
    verify_plan,  # noqa: F401  perfbench/spans.py traces it under this name
)
from .symmetry import find_families

__all__ = ["RunReport", "main"]

EXIT_OK = 0
EXIT_NO_PLAN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# Branch budgets above this are never defaulted to; wide branching is
# opt-in because every extra branch multiplies the knowledge state.
DEFAULT_STEPS = 8
BRANCH_CAP = 8

_GENERATORS = {
    "bomb": generate_bomb,
    "rings": generate_rings,
    "sickness": generate_sickness,
}


@dataclass(frozen=True)
class RunReport:
    """One solver run, as a flat machine-readable record."""

    domain: str
    fluents: int
    actions: int
    max_steps: int
    max_branches: int
    mode: str
    plan_found: bool
    occurrences: int | None
    wall_seconds: float
    atom_counts: tuple[int, ...]
    oracle: str | None

    def to_json(self) -> str:
        record = dataclasses.asdict(self)
        record["atom_counts"] = list(self.atom_counts)
        return json.dumps(record, sort_keys=True)


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-steps", type=int, default=None, metavar="N",
                   help="step budget, at most "
                        f"{MAX_STEPS} (benchmarks default to their intended depth)")
    p.add_argument("--max-branches", type=int, default=None, metavar="N",
                   help="branching budget (defaults to sensing-actions x steps, "
                        f"capped at {BRANCH_CAP})")
    p.add_argument("--concurrent", action="store_true",
                   help="allow several actions per step (one sensing at most)")
    p.add_argument("--optimal", action="store_true",
                   help="search for the fewest action occurrences, not the first plan")
    p.add_argument("--optimize", action="store_true",
                   help="compile static relations to holds/1 facts in the emitted program")
    p.add_argument("--oracle-check", action="store_true",
                   help="replay the plan against the possible-worlds semantics")
    p.add_argument("--emit-asp", metavar="PATH",
                   help="write the answer-set program for this domain and bounds")
    p.add_argument("--trace", metavar="PATH",
                   help="write the full knowledge trace of the verified plan")
    p.add_argument("--format", choices=("tree", "atoms", "json-lines"),
                   default="tree", help="plan output format")


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hindsight",
        description="Epistemic conditional planner with hindsight knowledge.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="find a conditional plan for a domain file")
    solve.add_argument("file", help="domain file")
    _add_search_flags(solve)
    bench = sub.add_parser("bench", help="generate and solve a benchmark instance")
    bench.add_argument("family", choices=sorted(_GENERATORS),
                       help="benchmark family")
    bench.add_argument("--n", type=int, required=True, help="instance size")
    _add_search_flags(bench)
    validate = sub.add_parser("validate", help="parse and check a domain file")
    validate.add_argument("file", help="domain file")
    return top


def _bounds(args, domain: PlanningDomain, bench: tuple | None) -> tuple[int, int]:
    if bench is not None:
        default_steps, default_branches = benchmark_bounds(*bench)
    else:
        default_steps = DEFAULT_STEPS
        default_branches = None
    steps = args.max_steps if args.max_steps is not None else default_steps
    if args.max_branches is not None:
        branches = args.max_branches
    elif default_branches is not None:
        branches = default_branches
    else:
        sensing = sum(1 for a in domain.actions if a.is_sensing)
        branches = min(sensing * steps, BRANCH_CAP)
    if steps < 1:
        raise ValueError(f"step budget must be at least 1, got {steps}")
    if steps > MAX_STEPS:
        raise ValueError(f"step budget must be at most {MAX_STEPS}, got {steps}")
    if branches < 0:
        raise ValueError(f"branch budget must be at least 0, got {branches}")
    return steps, branches


def _atom_counts(state: EpistemicState) -> tuple[int, ...]:
    counts = [0] * (state.horizon + 1)
    for _lit, _t, t1, _br in state.knows_atoms():
        counts[t1] += 1
    return tuple(counts)


def _oracle_summary(state: EpistemicState) -> tuple[str, bool]:
    """(display string, ok?) for a soundness check of the final state."""
    try:
        report = soundness_check(state)
    except OracleCapacityError as exc:
        return f"skipped: {exc}", True
    if report.violations:
        shown = "; ".join(report.violations[:5])
        return f"{len(report.violations)} VIOLATIONS: {shown}", False
    note = ""
    if report.vacuous_branches:
        note = f", branches {list(report.vacuous_branches)} vacuous"
    return f"ok ({report.checked} atoms checked{note})", True


def _run_validate(args) -> int:
    domain = parse_domain(Path(args.file).read_text(encoding="utf-8"))
    report = validate_domain(domain)
    if not report.ok:
        for violation in report.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INPUT
    eps = sum(len(a.effect_props) for a in domain.actions)
    print(
        f"ok: {len(domain.fluents)} fluents, {len(domain.actions)} actions, "
        f"{eps} effect propositions, {len(domain.goals)} goal propositions"
    )
    families = [
        f"{len(f.blocks)} interchangeable blocks such as "
        + " ".join(f.blocks[0].fluents + f.blocks[0].actions)
        for f in find_families(domain)
    ]
    print(f"symmetry: {'; '.join(families) or 'none found'}")
    return EXIT_OK


def _run_search(name: str, domain: PlanningDomain, args, bench: tuple | None) -> int:
    report = validate_domain(domain)
    if not report.ok:
        for violation in report.violations:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_INPUT
    try:
        steps, branches = _bounds(args, domain, bench)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    mode = "concurrent" if args.concurrent else "sequential"
    if args.emit_asp:
        Path(args.emit_asp).write_text(
            emit_program(domain, steps, branches, mode, optimize=args.optimize),
            encoding="utf-8",
        )

    started = time.perf_counter()
    found = _search(domain, steps, branches, optimal=args.optimal, concurrent=args.concurrent)
    wall = time.perf_counter() - started

    base = dict(
        domain=name,
        fluents=len(domain.fluents),
        actions=len(domain.actions),
        max_steps=steps,
        max_branches=branches,
        mode=mode,
    )
    if found is None:
        run = RunReport(**base, plan_found=False, occurrences=None,
                        wall_seconds=round(wall, 6), atom_counts=(), oracle=None)
        if args.format == "json-lines":
            print(run.to_json())
        print(
            f"no plan within steps={steps} branches={branches} ({mode})",
            file=sys.stderr,
        )
        return EXIT_NO_PLAN

    plan, verification = found
    state = verification.state
    counts = _atom_counts(state)
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))

    oracle_text = None
    oracle_ok = True
    if args.oracle_check:
        oracle_text, oracle_ok = _oracle_summary(state)

    if args.trace:
        Path(args.trace).write_text("\n".join(state.all_atoms()) + "\n", encoding="utf-8")

    run = RunReport(
        **base,
        plan_found=True,
        occurrences=verification.occurrences,
        wall_seconds=round(wall, 6),
        atom_counts=counts,
        oracle=oracle_text,
    )
    summary = (
        f"plan found: {verification.occurrences} occurrences in {wall:.3f}s "
        f"(steps={steps}, branches={branches}, {mode})\n"
        "knowledge atoms per stage: "
        + " ".join(str(c) for c in counts)
        + ("" if monotone else "  [WARNING: not monotone]")
        + (f"\noracle check: {oracle_text}" if oracle_text is not None else "")
    )
    if args.format == "tree":
        print(format_plan(plan))
        print(summary)
    elif args.format == "atoms":
        for atom in extract_atoms(plan):
            print(atom)
        print(summary, file=sys.stderr)
    else:
        for record in plan_records(plan):
            print(json.dumps(record, sort_keys=True))
        print(run.to_json())

    if not oracle_ok:
        print("error: oracle check found violations", file=sys.stderr)
        return EXIT_INTERNAL
    if not monotone:
        print("error: knowledge atom counts shrank between stages", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _run_validate(args)
        if args.command == "solve":
            domain = parse_domain(Path(args.file).read_text(encoding="utf-8"))
            return _run_search(args.file, domain, args, None)
        generator = _GENERATORS[args.family]
        # an instance the step budget can never hold is refused before it
        # is generated, which takes long for a large --n
        needed, _branches = benchmark_bounds(args.family, args.n)
        if needed > MAX_STEPS:
            print(
                f"error: {args.family}({args.n}) needs {needed} steps, "
                f"more than the {MAX_STEPS} allowed",
                file=sys.stderr,
            )
            return EXIT_INPUT
        try:
            domain = generator(args.n)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        name = f"{args.family}({args.n})"
        return _run_search(name, domain, args, (args.family, args.n))
    except (ParseError, OSError, UnicodeDecodeError, EmissionError) as exc:
        # bounds and validity are checked before emission, so the emitter
        # rejects only what the domain asks of it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (EngineError, PlanSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
