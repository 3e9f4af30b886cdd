"""Conditional plans and the searches that produce them.

A plan is a tree: physical steps have one continuation, sensing steps
either split (outcome unknown at plan time) or continue straight when
the value was already known.  Search runs depth-first over one engine
`Timeline` at a time — after a split the two sides share no knowledge,
so each side's timeline is solved on its own, the strong goal owed by
both sides and the weak goal by at least one.  No search node builds
or copies a multi-branch state.  Horizons are iteratively deepened, so
the first plan found uses the fewest steps; minimum-occurrence search
adds an outer action-count budget.  Every restart runs one solver from
one root timeline, so a search validates and compiles its domain once.
Every search step applies at least one action: a wait only shifts the
state one time point, so no search ever needed one (see _candidates).

Seven more cuts skip work that provably yields nothing, and so change
no returned plan and no search order; each argument sits with its code
or below.  A node with no split left in the plan-wide split budget
offers no sensing candidate, instead of closing both sides of the split
and then refusing it (_make_solver).  Within one split, a false-side
search that found no plan is not run again for a later plan of the true
side that leaves it the same weak flag and budgets (expand).  The
optimal search tries no horizon above its occurrence budget, and no
occurrence budget above what a plan within the step and branch budgets
can hold (find_optimal_plan).

The fifth and sixth cuts skip work below a timeline that cannot split:
its split budget is 0, or no action of the domain senses.  No step
below it splits, and row h+1 of a step that does not split is the part
of row h that persists plus the effects its rules cause
(`CompiledDomain.forward_row`; engine.py's one-pass argument).  Which
occurrence sets are executable reads row h alone, and which ones the
interference rules reject reads their names alone.  So what solve
yields below such a timeline depends only on its newest row, the steps
d left to its horizon, the weak flag and the occurrence budget.  And a
goal literal that row lacks (`missing`) is gained only as an effect of
an occurrence below it.

The fifth cut is a goal-count bound, h_max-style counting (Bonet &
Geffner, AIJ 129, 2001).  One occurrence causes at most `per_occ` goal
literals, the most goal bits one action's effects hold, and one step at
most `per_step`: per_occ, or all actions' goal bits together under
concurrency.  A node missing more than d × per_step goal literals, or
more than its occurrence budget × per_occ, yields nothing, and returns
before listing its candidates.

One step below the horizon the fifth cut also works per candidate, at
every node, as a test of one step.  A successor there is at its
horizon, so it yields a plan only if its newest row meets the goal.  A
candidate that does not sense makes a step that does not split
(_candidates offers a sensor only on an unknown value), whose row h+1
is the part of row h that persists plus the effects its rules cause,
even at a timeline that can split.  So each goal literal row h lacks
must be an effect of the candidate's own actions, and a candidate that
does not sense and whose effect mask does not cover `missing` is
skipped without a step.  A split adds the sensed value to row h, and
what that lets the closure derive may persist into row h+1 uncaused,
so a sensing candidate is never skipped this way.  Every other
candidate goes through the seventh cut and expand as at any depth.

The sixth cut is a dead-end table, the transposition table of iterative
deepening (Reinefeld & Marsland, IEEE TPAMI 16(7), 1994).  One solver,
and with it one table, serves every restart of a _search call, at every
horizon and occurrence budget: the solver is told the steps d left, so
nothing in it depends on the horizon.  The table maps (row, weak flag)
to the (d, occurrence budget) pairs whose search ran out without
yielding, a budget of None being unbounded.  Fewer steps left or a
smaller budget admit a subset of the same plans, so a node is skipped
when a recorded pair has both a d and a budget at least as large as its
own.  A node is recorded only when its generator ran out without
yielding (one closed after a yield may have had more plans), and only
when d >= 2: one step below the horizon, the one-step form of the
fifth cut decides most candidates with a mask test each.  Once the
table holds MAX_DEAD_ENDS keys it takes no new key, but still updates
the keys it holds, so a full table forgets no dead end it recorded.
The checked build expands every candidate of a node either cut skips,
and every candidate the one-step form skips, and asserts that none
yields a plan (assert_dead).

The seventh cut skips a mirror image of a candidate that yielded
nothing: symmetry pruning in state-space search (Fox & Long, IJCAI
1999; Pochter, Zohar & Rosenschein, AAAI 2011).  symmetry.py finds
families of interchangeable blocks of the domain: every permutation of
a family's blocks, renaming the i-th fluent or action of one block to
the i-th of another, maps the domain onto itself.  At a node that can
split, a single-action candidate that expand ran to the end without a
yield records its key (_mirror_key): its family and its place in its
block, and its block's two bits per fluent in every row of the layer.
There is no key when a link of the timeline's chain names an action of
that block.  A later candidate whose key is recorded there is skipped.
Equal keys for an action A of block i and an action B of block j mean
that the swap σ of the two blocks maps every row of the layer to
itself, and every link's occurrences, and so the rules applied at each
step, to themselves: σ fixes the timeline, and maps A to B.  The
closure, the budgets and every cut read structure, never names (names
only order the candidates), so σ maps the plans below the timeline
after A one to one onto those after B, at the same occurrence and split
costs, and B yields nothing either.  A candidate that yielded is never
recorded, so no yield, yield order or returned plan changes.  The cut
works where the fifth and sixth do not, at timelines that can split, so
a search that can make no split never looks for blocks; a search looks
for them once, at its first node that can split (_mirror_table).  The
checked build expands every candidate the cut skips and asserts that
it yields nothing.

Every plan a search returns has been replayed once through the engine
from scratch by verify_plan, which is also the public checker for plans
from any other source.  One driver, _search, runs the restarts of both
searches and returns the plan with that replay's report; the command
line calls it and reports from that replay instead of making another.

A plan's branches are numbered in one place, plan_walk, by the rule
the engine numbers its branches with.  Atoms (extract_atoms), output
records (plan_records) and the replay all read the plan through it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, Union

from hindsight.engine import (
    CompiledDomain,
    ConcurrencyError,
    EngineError,
    EpistemicState,
    Timeline,
    initial_state,
)
from hindsight.model import PlanningDomain
from hindsight.symmetry import find_families


class PlanFormatError(Exception):
    """Plan atoms that do not describe a well-formed plan tree."""


class PlanSearchError(Exception):
    """Internal failure: a found plan did not survive replay."""


@dataclass(frozen=True)
class Leaf:
    """No further actions on this timeline."""


@dataclass(frozen=True)
class Step:
    """One time step of a plan timeline.

    `actions` may be empty (a deliberate wait); searches never return
    one, but parse_atoms rebuilds idle gaps that way.  `sensed` names the
    fluent observed this step, if any.  A sensing step with `on_false`
    set splits: `on_true`/`on_false` continue the two outcomes.  With
    `on_false` unset the continuation is always `on_true` and `outcome`
    records the value believed at plan time.
    """

    actions: tuple[str, ...]
    sensed: str | None = None
    outcome: bool | None = None
    on_true: ConditionalPlan = Leaf()
    on_false: ConditionalPlan | None = None


ConditionalPlan = Union[Leaf, Step]


def plan_walk(plan: ConditionalPlan) -> Iterator[tuple[int, int, Step, int | None]]:
    """Every step of a plan as (t, branch, step, child): t ascending,
    branches ascending within a step.

    This is the one branch numbering of plans, and the engine numbers
    the branches of a replay by the same rule.  The root is branch 0.
    A split is a step with `sensed` and `on_false` set; its false side
    continues on `child`, which takes the smallest unused index above
    its parent, parents resolved in ascending order.  `child` is None
    for a step that does not split.  A branch whose plan has ended
    keeps its index.  Indices so numbered are always 0..k, so the
    smallest unused index above any parent is k + 1, and a counter
    applies the rule.
    """
    active = {0: plan} if isinstance(plan, Step) else {}
    fresh = 1
    t = 0
    while active:
        advanced: dict[int, ConditionalPlan] = {}
        for br in sorted(active):
            step = active[br]
            child = None
            if step.sensed is not None and step.on_false is not None:
                child, fresh = fresh, fresh + 1
                advanced[child] = step.on_false
            advanced[br] = step.on_true
            yield t, br, step, child
        active = {br: node for br, node in advanced.items() if isinstance(node, Step)}
        t += 1


def count_occurrences(plan: ConditionalPlan) -> int:
    return sum(len(step.actions) for _t, _br, step, _child in plan_walk(plan))


def plan_depth(plan: ConditionalPlan) -> int:
    return max((t + 1 for t, _br, _step, _child in plan_walk(plan)), default=0)


# ---------------------------------------------------------------------------
# Plan <-> atoms


def extract_atoms(plan: ConditionalPlan) -> list[str]:
    """occ/nextBr/sRes atoms of a plan, numbered by plan_walk, so
    replaying the plan yields these exact atoms."""
    atoms: list[str] = []
    for t, br, step, child in plan_walk(plan):
        atoms += (f"occ({name},{t},{br})" for name in step.actions)
        if child is not None:
            atoms.append(f"nextBr({t},{br},{child})")
            atoms.append(f"sRes({step.sensed},{t},{br})")
            atoms.append(f"sRes(-{step.sensed},{t},{child})")
        elif step.sensed is not None and step.outcome:
            atoms.append(f"sRes({step.sensed},{t},{br})")
    return sorted(atoms)


def _sensed_fluent(
    domain: PlanningDomain, names: tuple[str, ...], where: str
) -> str | None:
    """The fluent occurrence set `names` senses, or None when it senses
    nothing; PlanFormatError for an unknown action or for two sensing
    actions, the latter located by `where`."""
    sensors = []
    for n in names:
        try:
            action = domain.action(n)
        except KeyError:
            raise PlanFormatError(f"unknown action {n!r}") from None
        if action.is_sensing:
            sensors.append(action)
    if len(sensors) > 1:
        raise PlanFormatError(f"two sensing actions {where}")
    return sensors[0].knowledge_props[0].fluent if sensors else None


_ATOM_RE = re.compile(r"^(\w+)\(([^()]*)\)$")


def parse_atoms(domain: PlanningDomain, atoms) -> ConditionalPlan:
    """Rebuild a plan tree from occ/nextBr/sRes atoms.

    Other predicates (knows, uBr, ...) are ignored, so a full trace
    parses too.  Idle gaps between a branch's occurrences become
    explicit wait steps; trailing idles are never reconstructed.
    """
    occ: dict[int, dict[int, list[str]]] = {}
    splits: dict[tuple[int, int], int] = {}
    sres: set[tuple[str, int, int]] = set()
    for raw in atoms:
        raw = raw.strip()
        if not raw:
            continue
        m = _ATOM_RE.match(raw)
        if m is None:
            raise PlanFormatError(f"unreadable atom {raw!r}")
        name, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
        if name not in ("occ", "nextBr", "sRes"):
            continue
        try:
            if name == "nextBr":
                t, parent, child = numbers = tuple(int(a) for a in args)
            else:
                first, t, br = args[0], int(args[1]), int(args[2])
                numbers = (t, br)
            if min(numbers) < 0:
                raise ValueError
        except (ValueError, IndexError):
            raise PlanFormatError(f"malformed atom {raw!r}") from None
        if t >= MAX_STEPS:
            raise PlanFormatError(f"step {t} is beyond the last possible step {MAX_STEPS - 1}")
        if name == "occ":
            occ.setdefault(br, {}).setdefault(t, []).append(first)
        elif name == "sRes":
            sres.add((first, t, br))
        elif (t, parent) in splits:
            raise PlanFormatError(f"two splits at step {t} on branch {parent}")
        else:
            splits[(t, parent)] = child

    # build() visits each branch once only if each branch but the root
    # is made by exactly one split
    children: dict[int, tuple[int, int]] = {}
    for (t, parent), child in splits.items():
        if child == 0 or child in children:
            raise PlanFormatError(f"branch {child} is created twice")
        children[child] = (t, parent)
    for child, (t, _parent) in children.items():
        acted = [*occ.get(child, {}), *(s for (s, p) in splits if p == child)]
        if any(step <= t for step in acted):
            raise PlanFormatError(f"branch {child} acts before its split at step {t}")
    for br in set(occ) | {p for (_, p) in splits}:
        if br != 0 and br not in children:
            raise PlanFormatError(f"branch {br} is never created by a split")

    def build(br: int, t: int) -> ConditionalPlan:
        branch_occ = occ.get(br, {})
        future = [s for s in branch_occ if s >= t]
        future += [s for (s, p) in splits if p == br and s >= t]
        if not future:
            return Leaf()
        target = min(future)
        if target > t:
            return Step((), None, None, build(br, t + 1), None)
        names = tuple(sorted(branch_occ.get(t, ())))
        fluent = _sensed_fluent(domain, names, f"at step {t} on branch {br}")
        child = splits.get((t, br))
        if child is not None:
            if fluent is None:
                raise PlanFormatError(
                    f"split at step {t} on branch {br} without a sensing occurrence"
                )
            if (fluent, t, br) not in sres or (f"-{fluent}", t, child) not in sres:
                raise PlanFormatError(
                    f"split at step {t} on branch {br} lacks its two sensing results"
                )
            return Step(names, fluent, None, build(br, t + 1), build(child, t + 1))
        if fluent is not None:
            return Step(names, fluent, (fluent, t, br) in sres, build(br, t + 1), None)
        return Step(names, None, None, build(br, t + 1), None)

    return build(0, 0)


def plan_records(plan: ConditionalPlan) -> list[dict]:
    """One record per action occurrence, for line-oriented output."""
    return [
        {
            "action": name,
            "step": t,
            "branch": br,
            "sensed": step.sensed,
            "then_branch": br if step.sensed is not None else None,
            "else_branch": child,
        }
        for t, br, step, child in plan_walk(plan)
        for name in step.actions
    ]


def format_plan(plan: ConditionalPlan) -> str:
    """Human-readable tree rendering."""
    lines: list[str] = []

    def walk(node: ConditionalPlan, t: int, indent: str) -> None:
        if isinstance(node, Leaf):
            if not lines or lines[-1].endswith(":"):
                lines.append(f"{indent}(nothing to do)")
            return
        label = " + ".join(node.actions) if node.actions else "(wait)"
        if node.sensed is not None and node.on_false is not None:
            lines.append(f"{indent}{t}: {label}")
            lines.append(f"{indent}if {node.sensed}:")
            walk(node.on_true, t + 1, indent + "  ")
            lines.append(f"{indent}if -{node.sensed}:")
            walk(node.on_false, t + 1, indent + "  ")
        else:
            lines.append(f"{indent}{t}: {label}")
            walk(node.on_true, t + 1, indent)

    walk(plan, 0, "")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replay verification


@dataclass(frozen=True)
class VerificationReport:
    plan_found: bool
    weak_branches: tuple[int, ...]
    strong_failures: tuple[int, ...]
    errors: tuple[str, ...]
    occurrences: int
    state: EpistemicState | None

    @property
    def ok(self) -> bool:
        return self.plan_found and not self.errors


def verify_plan(
    domain: PlanningDomain,
    plan: ConditionalPlan,
    max_steps: int,
    max_branches: int,
    checks: bool | None = None,
) -> VerificationReport:
    """Replay a plan through the engine and judge the goals.

    The replay drives all branches simultaneously, exactly as execution
    would, each step with the occurrences plan_walk numbers for it; once
    every timeline is done the remaining steps idle, which never loses
    knowledge.  The engine rejects occurrences it cannot apply.  After
    each step, every plan step must match the link the engine made for
    its branch: the fluent it observed, the value it observed when the
    plan does not split, and whether it split.  Where the splits differ,
    plan_walk's numbering no longer matches the engine's, so the replay
    stops there.  The weak goal must hold on some branch at the final
    step and the strong goal on all of them.
    """
    errors: list[str] = []
    # plan_walk continues a split only on a step that names its fluent
    if any(st.on_false is not None and st.sensed is None for _, _, st, _ in plan_walk(plan)):
        errors.append("split without a sensed fluent")
    state = initial_state(domain, max_steps, max_branches, checks)
    if not errors:
        rows: dict[int, list] = {}
        for row in plan_walk(plan):
            rows.setdefault(row[0], []).append(row)
        for t in range(max_steps):
            now = rows.get(t, ())
            try:
                state = state.step({br: step.actions for _, br, step, _ in now})
            except EngineError as exc:
                errors.append(f"step {t}: {exc}")
                break
            if state.inconsistent:
                errors.append(f"step {t}: knowledge became contradictory")
                break
            split = {b.parent for b in state.branches.values() if b.created_at == t}
            for _, br, step, child in now:
                seen = state.branches[br].timeline.observation
                if seen is not None and step.sensed != seen[0]:
                    errors.append(
                        f"step {t}: {step.actions} senses '{seen[0]}' on branch {br} "
                        f"but is labelled {step.sensed!r}"
                    )
                elif seen is None and step.sensed is not None:
                    errors.append(
                        f"step {t}: {step.actions} on branch {br} is labelled as "
                        f"sensing {step.sensed!r}"
                    )
                elif br in split and child is None:
                    errors.append(
                        f"step {t}: sensing '{step.sensed}' on branch {br} "
                        "came out unknown but the plan has one continuation"
                    )
                elif br not in split and child is not None:
                    errors.append(
                        f"step {t}: the plan splits on '{step.sensed}' at "
                        f"branch {br}, but its value was already known"
                    )
                elif seen is not None and child is None and bool(step.outcome) != seen[1]:
                    errors.append(
                        f"step {t}: the plan takes '{seen[0]}' to be {bool(step.outcome)} "
                        f"on branch {br}, but it was known to be {seen[1]}"
                    )
            if errors:
                break
        if not errors:
            leftover = [br for _, br, _, _ in rows.get(max_steps, ())]
            if leftover:
                errors.append(
                    f"plan continues past the {max_steps}-step budget "
                    f"on branches {leftover}"
                )

    weak = domain.goal_literals("weak")
    strong = domain.goal_literals("strong")
    weak_branches: list[int] = []
    strong_failures: list[int] = []
    if not errors:
        h = state.horizon
        for br in sorted(state.branches):
            if all(state.knows(lit, h, br) for lit in weak):
                weak_branches.append(br)
            if not all(state.knows(lit, h, br) for lit in strong):
                strong_failures.append(br)
    # a branch's own occurrences are those after the split that made it
    occurrences = sum(
        len(link.names)
        for b in state.branches.values()
        for t, link in enumerate(b.timeline.chain()[1:])
        if t > b.created_at
    )
    found = not errors and bool(weak_branches) and not strong_failures
    return VerificationReport(
        plan_found=found,
        weak_branches=tuple(weak_branches),
        strong_failures=tuple(strong_failures),
        errors=tuple(errors),
        occurrences=occurrences,
        state=state if not errors else None,
    )


# ---------------------------------------------------------------------------
# Search


def _candidates(
    compiled: CompiledDomain,
    timeline: Timeline,
    concurrent: bool,
    sensing: bool,
) -> Iterable[tuple[str, ...]]:
    """Occurrence sets to try: single actions in name order, or in
    concurrent mode action subsets smallest first with at most one
    sensor each.  Subsets are made one at a time, as they are tried:
    n actions have 2**n of them, too many to hold at once.

    Sensing a fluent whose value is already known derives nothing and
    is skipped.  Without `sensing` every sensor is skipped: the plan has
    no split left (see _make_solver).

    Waiting (the empty set) is never a candidate.  An idle step applies
    nothing, so closing it copies row t to t+1, and persistence carries
    every literal across it in both directions: the state after a wait
    is the state before it shifted one time point, with the same
    candidates and the same goal test.  Waits also cost no occurrences,
    so for every plan with a wait, the plan without it has the same
    occurrence and split budgets.  When waits were tried, they came
    last, so that plan came earlier in depth-first order, on every
    timeline and across the parent/child generators of a split, and
    under iterative deepening it was also tried one horizon earlier.
    No search ever returned a wait, so leaving waits out changes no
    returned plan and no horizon; it only skips the subtrees below them.
    """
    row = timeline.layer[-1]
    names = []
    for a in compiled.menu:
        if row & a.need != a.need:
            continue
        # no split left, or either value known
        if a.sensed >= 0 and (not sensing or row >> a.sensed & 3):
            continue
        names.append(a.name)
    if not concurrent:
        return [(n,) for n in names]
    actions = compiled.actions
    return (
        combo
        for size in range(1, len(names) + 1)
        for combo in combinations(names, size)
        if sum(1 for n in combo if actions[n].sensed >= 0) <= 1
    )


# The solver nests about two generator frames per step, so a step budget
# near 500 overflows Python's default recursion limit of 1000 frames.
# The command line caps its step budget here, and parse_atoms, whose
# build() recurses once per step, rejects any later step.
MAX_STEPS = 256
# A search's dead-end table takes no new key once it holds this many;
# it still updates the keys it holds.
MAX_DEAD_ENDS = 1 << 16


def _make_solver(compiled: CompiledDomain, concurrent: bool, dead_ends: dict) -> Callable:
    """Build the recursive timeline solver of one search.

    solve(timeline, d, weak_required, occ_budget, split_budget) yields
    (plan, occurrence_count, split_count) in search order for the plans
    of at most `d` steps from `timeline`; the occurrence budget is None
    for unbounded, the split budget always a count.  Nothing in it
    depends on the horizon, so every restart of a search calls the one
    solve, with its horizon as `d`, and shares `dead_ends`, the
    dead-end table (module docstring).

    The split budget bounds the splits of the whole plan: _search starts
    it at `max_branches`, a split takes one, and the false side gets
    what the true side's plan leaves.  Replay numbers a plan with s
    splits 0..s, so it accepts exactly the plans this budget admits; a
    node's budget is at most `max_branches` less the splits on its path,
    so no path ever reaches a branch index replay would refuse.
    With no split left, _candidates offers no sensor.  It offers a
    sensor only on an unknown value, which always splits, so every
    candidate so left out would have had both sides of its split closed
    and then been refused.  None of them ever yielded a plan.
    """
    weak = compiled.domain.goal_literals("weak")
    strong = compiled.mask(compiled.domain.goal_literals("strong"))
    both = strong | compiled.mask(weak)
    sensors = frozenset(a.name for a in compiled.menu if a.sensed >= 0)
    # the most goal literals one occurrence and one step can cause
    per_occ = max(((a.effects & both).bit_count() for a in compiled.menu), default=0)
    per_step = per_occ
    if concurrent:
        union = 0
        for a in compiled.menu:
            union |= a.effects
        per_step = (union & both).bit_count()
    actions = compiled.actions
    # the seventh cut's table (_mirror_table), built at the first node
    # that can split
    mirrors = None

    def solve(
        timeline: Timeline,
        d: int,
        weak_required: bool,
        occ_budget: int | None,
        split_budget: int,
    ) -> Iterator[tuple[ConditionalPlan, int, int]]:
        nonlocal mirrors
        need = both if weak_required else strong
        row = timeline.layer[-1]
        if row & need == need:
            yield Leaf(), 0, 0
            return
        if d <= 0:
            return
        sensing = split_budget >= 1
        missing = need & ~row
        key = None
        # the mirror keys of the candidates here that yielded nothing, or
        # None where the seventh cut does not work
        failed = None
        if not sensing or not sensors:
            # the timeline cannot split: the fifth and sixth cuts
            short = missing.bit_count()
            if d >= 2:
                key = (row, weak_required)
            if (
                short > d * per_step
                or occ_budget is not None and short > occ_budget * per_occ
                or key is not None
                and any(_covers(*seen, d, occ_budget) for seen in dead_ends.get(key, ()))
            ):
                if timeline.checks:
                    every = _candidates(compiled, timeline, concurrent, sensing)
                    assert_dead(timeline, every, d, weak_required, occ_budget, split_budget)
                return
        else:
            # it can split: the seventh cut works if the domain has a block
            if mirrors is None:
                mirrors = _mirror_table(compiled)
            if mirrors:
                failed = set()
        found = False
        for acts in _candidates(compiled, timeline, concurrent, sensing):
            if d == 1 and sensors.isdisjoint(acts):
                # the fifth cut's one-step form: the successor is at the
                # horizon, and its row gains only what acts causes
                effects = 0
                for name in acts:
                    effects |= actions[name].effects
                if missing & ~effects:
                    if timeline.checks:
                        assert_dead(timeline, [acts], d, weak_required, occ_budget, split_budget)
                    continue
            mirror = None
            if failed:
                mirror = _mirror_key(timeline, acts, mirrors)
                if mirror in failed:
                    if timeline.checks:
                        assert_dead(timeline, [acts], d, weak_required, occ_budget, split_budget)
                    continue
            yielded = False
            for hit in expand(timeline, d, acts, weak_required, occ_budget, split_budget):
                found = yielded = True
                yield hit
            if not yielded and failed is not None:
                if not failed:
                    mirror = _mirror_key(timeline, acts, mirrors)
                if mirror is not None:
                    failed.add(mirror)
        if key is not None and not found and (len(dead_ends) < MAX_DEAD_ENDS or key in dead_ends):
            entries = dead_ends.setdefault(key, [])
            entries[:] = [seen for seen in entries if not _covers(d, occ_budget, *seen)]
            entries.append((d, occ_budget))

    def assert_dead(
        timeline: Timeline,
        candidates: list[tuple[str, ...]],
        d: int,
        weak_required: bool,
        occ_budget: int | None,
        split_budget: int,
    ) -> None:
        """The checked build's independent check of every skip: no
        candidate in `candidates`, applied at `timeline` with `d` steps
        left, leads to a plan.  The fifth and sixth cuts pass every
        candidate of the node they skip, the fifth cut's one-step form
        and the symmetry cut the one they skip.  Each is expanded, so
        every skip below is checked in turn."""
        for acts in candidates:
            # an internal invariant; a violation is a search bug, hence an assert
            hit = next(expand(timeline, d, acts, weak_required, occ_budget, split_budget), None)
            assert hit is None, f"the search skipped {acts}, which leads to a plan"

    def expand(
        timeline: Timeline,
        d: int,
        acts: tuple[str, ...],
        weak_required: bool,
        occ_budget: int | None,
        split_budget: int,
    ) -> Iterator[tuple[ConditionalPlan, int, int]]:
        """Plans of at most `d` steps that start by applying `acts` to
        `timeline`.

        After a split, each plan of the true side is completed by every
        plan of the false side that fits the budgets it leaves over.
        That false-side search, solve(no, d - 1, child_weak, rem2, sb2),
        is a pure function of its arguments and the solver's constants,
        and `no` and `d` are the same for the whole split; so once a
        call has yielded nothing, the same (child_weak, rem2, sb2) would
        yield nothing again, and later true-side plans that leave it are
        skipped.  A call that yielded a plan is not recorded: its plans
        are wanted again with the next true-side plan.
        """
        cost = len(acts)
        if occ_budget is not None and cost > occ_budget:
            return
        try:
            successors = timeline.step(acts)
        except ConcurrencyError:
            return
        remaining = None if occ_budget is None else occ_budget - cost
        if len(successors) == 2:
            yes, no = successors
            if yes.inconsistent or no.inconsistent:
                return
            splits_left = split_budget - 1
            if weak_required and weak:
                orders = ((True, False), (False, True))
            else:
                orders = ((False, False),)
            fluent = yes.observation[0]
            refuted = set()  # (weak flag, budgets) whose false side has no plan
            for parent_weak, child_weak in orders:
                for p_plan, p_cost, p_splits in solve(
                    yes, d - 1, parent_weak, remaining, splits_left
                ):
                    rem2 = None if remaining is None else remaining - p_cost
                    sb2 = splits_left - p_splits
                    key = (child_weak, rem2, sb2)
                    if key in refuted:
                        continue
                    solved = False
                    for c_plan, c_cost, c_splits in solve(no, d - 1, child_weak, rem2, sb2):
                        solved = True
                        yield (
                            Step(acts, fluent, None, p_plan, c_plan),
                            cost + p_cost + c_cost,
                            1 + p_splits + c_splits,
                        )
                    if not solved:
                        refuted.add(key)
        else:
            # a step that does not split makes no clash (engine.py)
            for sub, sub_cost, sub_splits in solve(
                successors[0], d - 1, weak_required, remaining, split_budget
            ):
                yield Step(acts, None, None, sub, None), cost + sub_cost, sub_splits

    return solve


def _mirror_table(compiled: CompiledDomain) -> dict[str, tuple[int, frozenset, tuple]]:
    """The actions of the domain's interchangeable blocks
    (symmetry.find_families), each as (place, block, bits): `place`
    numbers its family and its place in its block, `block` holds the
    names of its block's actions, and `bits` are the true bits of the
    block's fluents, in the order every block of the family lists them."""
    mirrors = {}
    place = 0
    for family in find_families(compiled.domain):
        for b in family.blocks:
            block = frozenset(b.actions)
            bits = tuple(2 * compiled.findex[f] for f in b.fluents)
            for p, name in enumerate(b.actions, place):
                mirrors[name] = (p, block, bits)
        place += len(family.blocks[0].actions)
    return mirrors


def _mirror_key(
    timeline: Timeline, acts: tuple[str, ...], mirrors: dict
) -> tuple[int, int] | None:
    """The seventh cut's key of candidate `acts` at `timeline`: its place
    in its family's blocks and its block's bits in every row of the
    layer, or None for a set of more than one action, an action in no
    block of `mirrors` (_mirror_table), and a block one of whose actions
    the timeline's chain names, the candidate's own included (module
    docstring)."""
    entry = mirrors.get(acts[0]) if len(acts) == 1 else None
    if entry is None:
        return None
    place, block, bits = entry
    link = timeline
    while link.prev is not None:
        if not block.isdisjoint(link.names):
            return None
        link = link.prev
    key = 0
    for row in timeline.layer:
        for bit in bits:
            key = key << 2 | row >> bit & 3
    return place, key


def _covers(d: int, budget: int | None, other_d: int, other_budget: int | None) -> bool:
    """Whether a search that yielded nothing with `d` steps left and
    occurrence budget `budget` (None: unbounded) shows that the same
    search with `other_d` and `other_budget` yields nothing too."""
    return d >= other_d and (
        budget is None or other_budget is not None and budget >= other_budget
    )


def _search(
    domain: PlanningDomain,
    max_steps: int,
    max_branches: int,
    *,
    optimal: bool,
    concurrent: bool,
    checks: bool | None = None,
) -> tuple[ConditionalPlan, VerificationReport] | None:
    """The first plan of find_plan's restarts, or of find_optimal_plan's
    when `optimal`, with the report of its one replay at the full
    budgets; None when no restart finds a plan, and PlanSearchError when
    the plan fails its replay.

    A restart is an (occurrence budget, horizon) pair.  Every restart
    runs one solver, and its dead-end table, from one time-zero
    timeline, built where the first restart would build it, so a search
    validates and compiles the domain once and raises what initial_state
    raises; with no restart to make, nothing is built.  Timelines never
    change, so restarts can share it.
    Contradictory initial knowledge gives a timeline that cannot be
    stepped, so no plan starts there (expand drops inconsistent
    successors alike).
    """
    if optimal:
        if max_steps < 0:
            most = -1  # no horizon to try at any occurrence budget
        else:
            per_step = len(domain.actions) if concurrent else 1
            # the most splits a plan can make (find_optimal_plan); from
            # max_branches.bit_length() steps on, 2**steps - 1 >= max_branches
            sensing = any(a.is_sensing for a in domain.actions)
            bound = 2 ** min(max_steps, max_branches.bit_length()) - 1 if sensing else 0
            most = max_steps * (min(max_branches, bound) + 1) * per_step
        restarts = (
            (budget, horizon)
            for budget in range(most + 1)
            for horizon in range(min(max_steps, budget) + 1)
        )
    else:
        restarts = ((None, horizon) for horizon in range(max_steps + 1))
    first = next(restarts, None)
    if first is None:
        return None
    root = initial_state(domain, first[1], max_branches, checks).branches[0].timeline
    if root.inconsistent:
        return None
    solve = _make_solver(root.compiled, concurrent, {})
    for occ_budget, horizon in chain([first], restarts):
        # the search's generators are dropped before the replay runs
        hit = next(solve(root, horizon, True, occ_budget, max_branches), None)
        if hit is not None:
            plan = hit[0]
            report = verify_plan(domain, plan, max_steps, max_branches, checks)
            if not report.ok:
                raise PlanSearchError(
                    f"found plan fails replay: {'; '.join(report.errors) or 'goals unmet'}"
                )
            return plan, report
    return None


def find_plan(
    domain: PlanningDomain,
    max_steps: int,
    max_branches: int,
    *,
    concurrent: bool = False,
    checks: bool | None = None,
) -> ConditionalPlan | None:
    """First plan found, at the smallest workable horizon.

    The horizon grows from zero, so the returned plan is as shallow as
    possible.  The plan is replayed at the full budgets before being
    returned.
    """
    found = _search(
        domain, max_steps, max_branches, optimal=False, concurrent=concurrent, checks=checks
    )
    return None if found is None else found[0]


def find_optimal_plan(
    domain: PlanningDomain,
    max_steps: int,
    max_branches: int,
    *,
    concurrent: bool = False,
    checks: bool | None = None,
) -> ConditionalPlan | None:
    """Plan with the fewest action occurrences within the budgets.

    Outer loop over an occurrence budget, inner loop over horizons:
    the first plan found is optimal because every smaller budget was
    exhausted first.

    Budget b tries the horizons up to min(max_steps, b) only.  Every
    search step applies at least one action, so a plan within budget b
    is at most b steps deep.  A larger horizon only admits deeper plans
    and leaves the search order of the shallower ones as it was, so any
    plan it could find would already have been found at its own depth,
    which was tried first.

    No budget above max_steps × (splits + 1) × per_step is tried, where
    per_step is the most occurrences one step can hold (1, or every
    action in concurrent mode) and splits is the most splits a plan can
    make: min(max_branches, 2**max_steps - 1) when some action senses,
    else 0.  An occurrence set holds at most one sensor, so a branch
    splits at most once a step, and max_steps steps make at most
    2**max_steps branches; the split budget solve starts from is
    max_branches.  A plan with s splits has s + 1 branches, each holding
    at most max_steps × per_step occurrences of its own, so no plan
    costs more than the ceiling: every plan is found as before, and only
    searches with no plan stop sooner.
    """
    found = _search(
        domain, max_steps, max_branches,
        optimal=True, concurrent=concurrent, checks=checks,
    )
    return None if found is None else found[0]
