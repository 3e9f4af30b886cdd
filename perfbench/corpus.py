"""The seeded random-domain corpus behind `optimal_fuzz` and `soundness_walk`.

`random_domain` and `exhaustive_minimum` are copies of criterion 2/7's
`_random_domain` and `_exhaustive_minimum` in tests/test_acceptance.py.
The benchmark keeps its own copies so that editing the test suite
cannot change what the benchmark measures.

The corpus is criterion 2's: domain i comes from `random.Random(774000 + i)`.
A benchmark seed other than 774000 does not draw new domains.  It renames
the fluents and actions of every domain and reorders its declarations, so
the planner sees different text and a different candidate order while the
mix of easy and hard instances stays fixed (see README.md for why).

Reference answers are committed in refs.json and hold for every seed,
since relabelling changes none of them; regenerate them with
`python3 perfbench/corpus.py --write-refs`.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hindsight.engine import EngineError, initial_state
from hindsight.model import (
    Action,
    EffectProposition,
    GoalProposition,
    KnowledgeProposition,
    Literal,
    OneofConstraint,
    PlanningDomain,
    pos,
)

DEFAULT_SEED = 774000
REFS_PATH = Path(__file__).with_name("refs.json")

# (max_steps, max_branches) of criterion 7's optimal comparison and of
# criterion 2's lockstep walk.
OPTIMAL_BOUNDS = (4, 2)
WALK_BOUNDS = (4, 8)

# Corpus sizes: criterion 2 walks 1000 domains; the optimal search is
# about 5x dearer per domain, so it takes the first 500.
OPTIMAL_SIZE = 500
WALK_SIZE = 1000


def random_domain(rng: random.Random) -> PlanningDomain:
    """A copy of criterion 2's generator: at most 4 fluents, 3 actions."""
    fluents = tuple(f"f{i}" for i in range(1, rng.randint(1, 4) + 1))
    actions = []
    may_sense = True
    for ai in range(1, rng.randint(1, 3) + 1):
        name = f"a{ai}"
        executability = (
            (Literal(rng.choice(fluents), rng.random() < 0.5),)
            if rng.random() < 0.3
            else ()
        )
        if may_sense and rng.random() < 0.35:
            may_sense = False
            actions.append(
                Action(
                    name,
                    knowledge_props=(KnowledgeProposition(rng.choice(fluents)),),
                    executability=executability,
                )
            )
            continue
        eps = []
        for ei in range(1, rng.randint(1, 2) + 1):
            conditions = (
                (Literal(rng.choice(fluents), rng.random() < 0.5),)
                if rng.random() < 0.6
                else ()
            )
            eps.append(
                EffectProposition(
                    f"{name}_{ei}",
                    Literal(rng.choice(fluents), rng.random() < 0.5),
                    conditions,
                )
            )
        actions.append(Action(name, effect_props=tuple(eps), executability=executability))

    known = rng.sample(fluents, rng.randint(0, len(fluents)))
    init = tuple(Literal(f, rng.random() < 0.5) for f in known)
    unknown = [f for f in fluents if f not in known]
    oneofs = ()
    if len(unknown) >= 2 and rng.random() < 0.4:
        size = rng.randint(2, min(3, len(unknown)))
        oneofs = (OneofConstraint(tuple(pos(f) for f in rng.sample(unknown, size))),)
    goals = []
    if rng.random() < 0.7:
        goals.append(
            GoalProposition("weak", (Literal(rng.choice(fluents), rng.random() < 0.7),))
        )
    if rng.random() < 0.3:
        goals.append(
            GoalProposition("strong", (Literal(rng.choice(fluents), rng.random() < 0.7),))
        )
    return PlanningDomain(
        fluents=fluents,
        actions=tuple(actions),
        init=init,
        oneofs=oneofs,
        goals=tuple(goals),
    )


def renamed(domain: PlanningDomain, rng: random.Random) -> PlanningDomain:
    """The same domain under a random renaming and declaration order.

    Fluent and action names are permuted among themselves and actions,
    effects and init literals are shuffled.  Every answer the benchmark
    checks (solvability, minimum occurrences, walk state and atom
    counts) is invariant under this, since it only relabels.
    """
    fluents = list(domain.fluents)
    fnew = fluents[:]
    rng.shuffle(fnew)
    fmap = dict(zip(fluents, fnew))
    names = [a.name for a in domain.actions]
    anew = names[:]
    rng.shuffle(anew)
    amap = dict(zip(names, anew))

    def lit(x: Literal) -> Literal:
        return Literal(fmap[x.fluent], x.positive)

    actions = []
    for a in domain.actions:
        eps = list(a.effect_props)
        rng.shuffle(eps)
        name = amap[a.name]
        actions.append(
            Action(
                name,
                effect_props=tuple(
                    EffectProposition(
                        f"{name}_{k}", lit(ep.effect), tuple(lit(c) for c in ep.conditions)
                    )
                    for k, ep in enumerate(eps, start=1)
                ),
                knowledge_props=tuple(
                    KnowledgeProposition(fmap[kp.fluent]) for kp in a.knowledge_props
                ),
                executability=tuple(lit(x) for x in a.executability),
            )
        )
    rng.shuffle(actions)
    init = [lit(x) for x in domain.init]
    rng.shuffle(init)
    return PlanningDomain(
        fluents=tuple(fnew),
        actions=tuple(actions),
        init=tuple(init),
        oneofs=tuple(OneofConstraint(tuple(lit(x) for x in oo.literals)) for oo in domain.oneofs),
        goals=tuple(GoalProposition(g.kind, tuple(lit(x) for x in g.literals)) for g in domain.goals),
    )


def corpus(seed: int, size: int) -> list[PlanningDomain]:
    """Criterion 2's first `size` domains, relabelled by `seed`."""
    domains = [random_domain(random.Random(DEFAULT_SEED + i)) for i in range(size)]
    if seed == DEFAULT_SEED:
        return domains
    return [renamed(d, random.Random(f"{seed}:{i}")) for i, d in enumerate(domains)]


def exhaustive_minimum(domain: PlanningDomain, max_steps: int,
                       max_branches: int, upper: int | None) -> int | None:
    """A copy of criterion 7's brute force: fewest occurrences over all
    branch-wise action assignments at the full horizon, or None."""
    weak = domain.goal_literals("weak")
    strong = domain.goal_literals("strong")
    best = upper

    def goals_met(state) -> bool:
        h = state.horizon
        ids = sorted(state.branches)
        weak_ok = any(
            all(state.knows(lit, h, b, h) for lit in weak) for b in ids
        )
        strong_ok = all(
            all(state.knows(lit, h, b, h) for lit in strong) for b in ids
        )
        return weak_ok and strong_ok

    def explore(state, used: int) -> None:
        nonlocal best
        if best is not None and used >= best:
            return
        if state.inconsistent:
            return
        if state.horizon == max_steps:
            if goals_met(state):
                best = used
            return
        options = []
        for bid in sorted(state.branches):
            choices = [()]
            for action in domain.actions:
                if state.is_executable(bid, action.name):
                    choices.append((action.name,))
            options.append((bid, choices))
        for combo in product(*[c for _, c in options]):
            occurrences = {
                bid: acts for (bid, _), acts in zip(options, combo) if acts
            }
            cost = sum(len(a) for a in occurrences.values())
            try:
                nxt = state.step(occurrences)
            except EngineError:
                continue
            explore(nxt, used + cost)

    explore(initial_state(domain, max_steps, max_branches, checks=False), 0)
    return best


def lockstep_walk(domain: PlanningDomain, checks: bool) -> tuple[int, int, int]:
    """Criterion 2's walk: (states, atoms checked, violations).

    Every live branch takes the same action at every step, to depth 4;
    the oracle checks every consistent state, and a contradictory state
    is a violation when every branch's observations are realizable.
    The oracle module is looked up at call time so that a traced run
    sees its patched names.
    """
    from hindsight import engine, oracle

    states = atoms = violations = 0
    depth_limit = WALK_BOUNDS[0]

    def visit(state, depth: int) -> None:
        nonlocal states, atoms, violations
        states += 1
        if state.inconsistent:
            if all(
                oracle.tqs_timeline(domain, oracle.branch_trace(state, bid))[0]
                for bid in state.branches
            ):
                violations += 1
            return
        report = oracle.soundness_check(state)
        atoms += report.checked
        violations += len(report.violations)
        if depth == depth_limit:
            return
        for action in domain.actions:
            occurrences = {br: (action.name,) for br in state.branches}
            try:
                nxt = state.step(occurrences)
            except EngineError:
                continue
            visit(nxt, depth + 1)

    visit(engine.initial_state(domain, *WALK_BOUNDS, checks=checks), 0)
    return states, atoms, violations


def optimal_references(domains: list[PlanningDomain]) -> list[int | None]:
    """Per domain: the minimum occurrence count at OPTIMAL_BOUNDS, or None
    when no plan exists.  The planner's first plan only seeds the bound."""
    from hindsight.search import count_occurrences, find_plan

    out = []
    for d in domains:
        first = find_plan(d, *OPTIMAL_BOUNDS, checks=False)
        upper = None if first is None else count_occurrences(first)
        out.append(exhaustive_minimum(d, *OPTIMAL_BOUNDS, upper))
    return out


def walk_references(domains: list[PlanningDomain]) -> list[list[int]]:
    """Per domain: [states, atoms] of an assertion-checked walk, which
    must also report zero violations."""
    out = []
    for i, d in enumerate(domains):
        states, atoms, violations = lockstep_walk(d, checks=True)
        if violations:
            raise AssertionError(f"corpus domain {i}: {violations} soundness violations")
        out.append([states, atoms])
    return out


def load_references() -> dict:
    return json.loads(REFS_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-refs"]:
        raise SystemExit("usage: python3 perfbench/corpus.py --write-refs")
    walk_domains = corpus(DEFAULT_SEED, WALK_SIZE)
    refs = {
        "seed": DEFAULT_SEED,
        "optimal_fuzz": optimal_references(walk_domains[:OPTIMAL_SIZE]),
        "soundness_walk": walk_references(walk_domains),
    }
    REFS_PATH.write_text(json.dumps(refs, separators=(",", ":")) + "\n", encoding="utf-8")
