"""Plan search, replay verification, and plan/atom round-trips.

The door-domain expectations (exact plan tree, exact atoms) were worked
out by hand before the search existed; the optimal-search test uses a
domain built so that the first plan found is strictly more expensive
than the cheapest one.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import pathlib
import random
import weakref
from itertools import combinations, islice

import pytest

from hindsight import search
from hindsight.engine import (
    BranchBudgetError,
    CompiledDomain,
    ConcurrencyError,
    EngineError,
    Timeline,
    initial_state,
)
from hindsight.generators import (
    benchmark_bounds,
    generate_bomb,
    generate_rings,
    generate_sickness,
)
from hindsight.model import (
    Action,
    EffectProposition,
    GoalProposition,
    KnowledgeProposition,
    Literal,
    OneofConstraint,
    PlanningDomain,
    neg,
    pos,
    validate_domain,
)
from hindsight.oracle import soundness_check
from hindsight.parser import parse_domain
from hindsight.symmetry import Block, Family, find_families
from hindsight.search import (
    Leaf,
    PlanFormatError,
    Step,
    count_occurrences,
    extract_atoms,
    find_optimal_plan,
    find_plan,
    format_plan,
    parse_atoms,
    plan_depth,
    plan_records,
    verify_plan,
)

DATA = pathlib.Path(__file__).parent / "data"


def door_domain() -> PlanningDomain:
    return parse_domain((DATA / "smarthome.hpx").read_text(encoding="utf-8"))


DOOR_PLAN = Step(
    ("open_door",),
    None,
    None,
    Step(
        ("sense_open",),
        "open",
        None,
        Step(("drive",), None, None, Leaf(), None),
        Leaf(),
    ),
    None,
)


def yale_goal_domain() -> PlanningDomain:
    return PlanningDomain(
        fluents=("loaded", "alive"),
        actions=(
            Action(
                "shoot",
                effect_props=(
                    EffectProposition("shoot_1", neg("alive"), (pos("loaded"),)),
                    EffectProposition("shoot_2", neg("loaded")),
                ),
            ),
            Action("sense_bang", knowledge_props=(KnowledgeProposition("loaded"),)),
        ),
        init=(pos("alive"),),
        goals=(GoalProposition("weak", (neg("alive"),)),),
    )


def detour_domain() -> PlanningDomain:
    """First plan found is dearer than the cheapest one.

    The sensing route (3 occurrences) is tried before the two-step
    physical route (2 occurrences) because of candidate order, and
    deepening alone cannot tell them apart: both need two steps.
    """
    return PlanningDomain(
        fluents=("f", "q", "g"),
        actions=(
            Action("a_sense", knowledge_props=(KnowledgeProposition("f"),)),
            Action("bigfix", effect_props=(EffectProposition("bigfix_1", pos("g")),), executability=(pos("q"),)),
            Action("fix_f", effect_props=(EffectProposition("fix_f_1", pos("g"), (pos("f"),)),)),
            Action("fix_nf", effect_props=(EffectProposition("fix_nf_1", pos("g"), (neg("f"),)),)),
            Action("mkq", effect_props=(EffectProposition("mkq_1", pos("q")),)),
        ),
        init=(neg("g"), neg("q")),
        goals=(GoalProposition("strong", (pos("g"),)),),
    )


def split_budget_domain() -> PlanningDomain:
    """Sensing f splits; the f side can finish with or without a second
    split, the -f side only with one.  With two branches, the f-side
    plans found first split again and leave the -f side no split; only
    the later split-free plan leaves it one."""

    def look(name, fluent):
        return Action(name, knowledge_props=(KnowledgeProposition(fluent),))

    def fix(name, *condition):
        return Action(name, effect_props=(EffectProposition(f"{name}_1", pos("done"), condition),))

    return PlanningDomain(
        fluents=("f", "g", "h", "done"),
        actions=(
            look("a_look_f", "f"),
            look("b_look_g", "g"),
            look("c_look_h", "h"),
            fix("fix_f", pos("f")),
            fix("fix_f_g", pos("f"), pos("g")),
            fix("fix_f_ng", pos("f"), neg("g")),
            fix("fix_nf_h", neg("f"), pos("h")),
            fix("fix_nf_nh", neg("f"), neg("h")),
        ),
        init=(neg("done"),),
        goals=(GoalProposition("strong", (pos("done"),)),),
    )


def _physical_action(name, *effects, executability=()):
    return Action(
        name,
        effect_props=tuple(
            EffectProposition(f"{name}_{i}", lit) for i, lit in enumerate(effects, 1)
        ),
        executability=executability,
    )


def goal_pair_domain() -> PlanningDomain:
    """`finish` makes both goal literals, and only once `ready` holds, so
    the plan ends with it: its last step must cause two goal literals,
    the most any one action causes."""
    return PlanningDomain(
        fluents=("ready", "a", "b"),
        actions=(
            _physical_action("finish", pos("a"), pos("b"), executability=(pos("ready"),)),
            _physical_action("make_a", pos("a")),
            _physical_action("make_ready", pos("ready")),
        ),
        init=(neg("ready"), neg("a"), neg("b")),
        goals=(GoalProposition("strong", (pos("a"), pos("b"))),),
    )


def weak_pair_domain() -> PlanningDomain:
    """goal_pair_domain with `b` owed by one branch only: the last step
    must cause a strong and a weak goal literal."""
    return dataclasses.replace(
        goal_pair_domain(),
        goals=(GoalProposition("strong", (pos("a"),)), GoalProposition("weak", (pos("b"),))),
    )


def concurrent_pair_domain() -> PlanningDomain:
    """`c` already holds; `a` and `b` come from two actions, so one step
    meets the goal only with both of them."""
    return PlanningDomain(
        fluents=("a", "b", "c"),
        actions=(_physical_action("make_a", pos("a")), _physical_action("make_b", pos("b"))),
        init=(neg("a"), neg("b"), pos("c")),
        goals=(GoalProposition("strong", (pos("a"), pos("b"), pos("c"))),),
    )


# ---------------------------------------------------------------------------
# find_plan


def test_door_plan_has_the_expected_shape():
    plan = find_plan(door_domain(), max_steps=4, max_branches=1, checks=True)
    assert plan == DOOR_PLAN
    assert count_occurrences(plan) == 3
    assert plan_depth(plan) == 3  # deepening stopped below the 4-step budget


def test_door_plan_replays_cleanly():
    report = verify_plan(door_domain(), DOOR_PLAN, max_steps=4, max_branches=1, checks=True)
    assert report.ok
    assert report.plan_found
    assert report.errors == ()
    assert report.occurrences == 3
    assert report.weak_branches == (0,)
    assert report.strong_failures == ()
    assert report.state is not None and report.state.horizon == 4
    assert soundness_check(report.state).ok


def test_door_plan_without_deepening_fills_the_horizon():
    plan = find_plan(door_domain(), max_steps=4, max_branches=1, deepen=False)
    report = verify_plan(door_domain(), plan, max_steps=4, max_branches=1)
    assert report.ok
    # the fixed-horizon search pads with a second (useless) door push
    assert count_occurrences(plan) == 4


def test_no_plan_when_the_step_budget_is_too_small():
    assert find_plan(door_domain(), max_steps=2, max_branches=1) is None


def test_no_plan_when_branching_is_forbidden():
    assert find_plan(door_domain(), max_steps=4, max_branches=0) is None


def test_trivial_goal_yields_the_empty_plan():
    d = door_domain()
    trivial = dataclasses.replace(d, goals=(GoalProposition("weak", (neg("in_liv"),)),))
    plan = find_plan(trivial, max_steps=2, max_branches=1)
    assert plan == Leaf()
    assert verify_plan(trivial, plan, 2, 1).ok


def test_a_false_side_without_a_plan_is_searched_again_with_more_split_budget():
    d = split_budget_domain()
    plan = find_plan(d, max_steps=3, max_branches=2, checks=True)
    assert plan == Step(
        ("a_look_f",),
        "f",
        None,
        Step(("fix_f",), None, None, Leaf(), None),
        Step(
            ("c_look_h",),
            "h",
            None,
            Step(("fix_nf_h",), None, None, Leaf(), None),
            Step(("fix_nf_nh",), None, None, Leaf(), None),
        ),
    )
    assert verify_plan(d, plan, 3, 2).ok


def test_concurrent_shot_while_listening_is_found_and_sound():
    d = yale_goal_domain()
    plan = find_plan(d, max_steps=1, max_branches=1, concurrent=True, checks=True)
    assert plan == Step(("sense_bang", "shoot"), "loaded", None, Leaf(), Leaf())
    report = verify_plan(d, plan, max_steps=1, max_branches=1, checks=True)
    assert report.ok
    # the bang branch learns the gun was loaded and the victim is gone
    assert report.state.knows(pos("loaded"), 0, branch=0)
    assert report.state.knows(neg("alive"), 1, branch=0)
    assert soundness_check(report.state).ok
    # one action per step can never manage this within one step
    assert find_plan(d, max_steps=1, max_branches=1, concurrent=False) is None


# ---------------------------------------------------------------------------
# find_optimal_plan


def test_optimal_search_beats_the_first_found_plan():
    d = detour_domain()
    first = find_plan(d, max_steps=2, max_branches=1)
    assert first == Step(
        ("a_sense",),
        "f",
        None,
        Step(("fix_f",), None, None, Leaf(), None),
        Step(("fix_nf",), None, None, Leaf(), None),
    )
    assert count_occurrences(first) == 3
    best = find_optimal_plan(d, max_steps=2, max_branches=1)
    assert best == Step(
        ("mkq",),
        None,
        None,
        Step(("bigfix",), None, None, Leaf(), None),
        None,
    )
    assert count_occurrences(best) == 2
    assert verify_plan(d, best, 2, 1).ok


def test_optimal_search_on_the_door_domain_matches_the_first_plan():
    best = find_optimal_plan(door_domain(), max_steps=4, max_branches=1)
    assert best == DOOR_PLAN


def test_optimal_search_reports_unsolvable_domains():
    assert find_optimal_plan(door_domain(), max_steps=2, max_branches=1) is None


# ---------------------------------------------------------------------------
# waits


def _searches(domain, bounds, concurrent_bounds):
    steps, branches = bounds
    return (
        find_plan(domain, steps, branches, checks=False),
        find_plan(domain, steps, branches, deepen=False, checks=False),
        find_optimal_plan(domain, steps, branches, checks=False),
        find_plan(domain, *concurrent_bounds, concurrent=True, checks=False),
    )


def test_leaving_out_waits_changes_no_returned_plan(monkeypatch):
    from test_acceptance import _random_domain

    cases = [
        (_random_domain(random.Random(774000 + i)), (4, 2), (3, 2)) for i in range(200)
    ]
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4,)),
        (generate_rings, "rings", (2,)),
        (generate_sickness, "sickness", (3, 4)),
    ):
        for n in sizes:
            bounds = benchmark_bounds(kind, n)
            cases.append((generate(n), bounds, bounds))
    found = [_searches(*case) for case in cases]

    real = search._candidates

    def with_waits(compiled, timeline, concurrent, sensing):
        return real(compiled, timeline, concurrent, sensing) + [()]

    monkeypatch.setattr(search, "_candidates", with_waits)
    reference = [_searches(*case) for case in cases]
    # equal plans have equal depth, so the shallowest horizon is unchanged
    assert found == reference
    assert sum(plans[0] is not None for plans in found) > 80


# ---------------------------------------------------------------------------
# timeline search against a multi-branch reference


def _reference_first_plan(domain, horizon, max_branches, concurrent, occ_budget, split_budget):
    """A reference search over whole states: every node steps
    `EpistemicState.step({branch: acts})`, which numbers the split
    branches and enforces the branch budget itself."""
    strong = domain.goal_literals("strong")
    weak = domain.goal_literals("weak")

    def candidates(state, branch):
        names = sorted(
            a.name for a in domain.actions
            if state.is_executable(branch, a.name)
            and not (
                a.is_sensing
                and state.sensing_outcome(branch, a.knowledge_props[0].fluent) is not None
            )
        )
        if not concurrent:
            return [(n,) for n in names]
        return [
            combo
            for size in range(1, len(names) + 1)
            for combo in combinations(names, size)
            if sum(domain.action(n).is_sensing for n in combo) <= 1
        ]

    def solve(state, branch, t, weak_required, occ_budget, split_budget):
        if all(state.knows(lit, t, branch) for lit in strong + (weak if weak_required else ())):
            yield Leaf(), 0, 0
            return
        if t >= state.max_steps:
            return
        for acts in candidates(state, branch):
            cost = len(acts)
            if occ_budget is not None and cost > occ_budget:
                continue
            try:
                nxt = state.step({branch: acts})
            except (ConcurrencyError, BranchBudgetError):
                continue
            if nxt.inconsistent:
                continue
            remaining = None if occ_budget is None else occ_budget - cost
            new_branches = [(bid, b) for bid, b in nxt.branches.items() if b.created_at == t]
            if not new_branches:
                for sub, sub_cost, sub_splits in solve(
                    nxt, branch, t + 1, weak_required, remaining, split_budget
                ):
                    yield Step(acts, None, None, sub, None), cost + sub_cost, sub_splits
                continue
            if split_budget < 1:
                continue
            child, born = new_branches[0]
            fluent = born.timeline.observation[0]
            splits_left = split_budget - 1
            orders = ((True, False), (False, True)) if weak_required and weak else ((False, False),)
            for parent_weak, child_weak in orders:
                for p_plan, p_cost, p_splits in solve(
                    nxt, branch, t + 1, parent_weak, remaining, splits_left
                ):
                    rem2 = None if remaining is None else remaining - p_cost
                    sb2 = splits_left - p_splits
                    for c_plan, c_cost, c_splits in solve(
                        nxt, child, t + 1, child_weak, rem2, sb2
                    ):
                        yield (
                            Step(acts, fluent, None, p_plan, c_plan),
                            cost + p_cost + c_cost,
                            1 + p_splits + c_splits,
                        )

    state0 = initial_state(domain, horizon, max_branches, checks=False)
    for plan, _cost, _splits in solve(state0, 0, 0, True, occ_budget, split_budget):
        return plan
    return None


def _reference_searches(domain, bounds, concurrent_bounds):
    """_searches, with every search run by the reference solver."""
    steps, branches = bounds

    def first(horizons, max_branches, concurrent, occ_budget=None):
        for horizon in horizons:
            plan = _reference_first_plan(
                domain, horizon, max_branches, concurrent, occ_budget, max_branches
            )
            if plan is not None:
                return plan
        return None

    def optimal():
        for budget in range(steps * (branches + 1) + 1):
            plan = first(range(steps + 1), branches, False, budget)
            if plan is not None:
                return plan
        return None

    c_steps, c_branches = concurrent_bounds
    return (
        first(range(steps + 1), branches, False),
        first([steps], branches, False),
        optimal(),
        first(range(c_steps + 1), c_branches, True),
    )


def test_timeline_search_returns_the_plans_of_whole_state_search():
    from test_acceptance import _random_domain

    cases = [
        (_random_domain(random.Random(774000 + i)), (4, 2), (3, 2)) for i in range(200)
    ]
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4,)),
        (generate_rings, "rings", (2,)),
        (generate_sickness, "sickness", (3, 4)),
    ):
        for n in sizes:
            bounds = benchmark_bounds(kind, n)
            cases.append((generate(n), bounds, bounds))
    # inputs where the false-side memo and the split filter cut most:
    # sickness(5), and rings(3) at its benchmark budget of 0 branches;
    # the reference's concurrent search runs at fewer steps to keep time
    cases.append((generate_sickness(5), benchmark_bounds("sickness", 5), (4, 4)))
    cases.append((generate_rings(3), benchmark_bounds("rings", 3), (4, 0)))
    cases.append((split_budget_domain(), (3, 2), (3, 2)))
    # bomb(5), where the steps one below the horizon, which search
    # handles without building a timeline, are 80% of the work
    bounds = benchmark_bounds("bomb", 5)
    cases.append((generate_bomb(5), bounds, bounds))
    # split_budget_domain at the other branch budgets, where the plan-wide
    # split budget cuts more than the branches on one path would
    for max_branches in (0, 1, 3):
        cases.append((split_budget_domain(), (3, max_branches), (3, max_branches)))
    # the frontier's mask test at its limits: two goal literals from one
    # action, a weak goal literal among them, and a goal only a pair meets
    for domain in (goal_pair_domain(), weak_pair_domain(), concurrent_pair_domain()):
        cases.append((domain, (3, 0), (2, 0)))
    # the branch budget at and around what sickness(4) needs
    steps, _branches = benchmark_bounds("sickness", 4)
    for max_branches in range(4):
        bounds = (steps, max_branches)
        cases.append((generate_sickness(4), bounds, bounds))

    found = [_searches(*case) for case in cases]
    assert found == [_reference_searches(*case) for case in cases]
    assert sum(plans[0] is not None for plans in found) > 80
    assert [plans[0] is None for plans in found[-4:]] == [True, True, True, False]


def test_checked_search_catches_a_closure_that_misses_a_changed_point(monkeypatch):
    d = door_domain()
    real = CompiledDomain.close_layer

    def forgetful(self, rules, masks, changed):
        # an incremental close forgets the sensing point; a from-scratch
        # close (every point, as a range) is left alone
        if isinstance(changed, tuple):
            changed = changed[-1:]
        real(self, rules, masks, changed)

    monkeypatch.setattr(CompiledDomain, "close_layer", forgetful)
    # the door goal does not need the missed postdiction ...
    assert find_plan(d, max_steps=4, max_branches=1, checks=False) == DOOR_PLAN
    # ... but the checked build notices that the closure missed it
    with pytest.raises(AssertionError, match="not closed"):
        find_plan(d, max_steps=4, max_branches=1, checks=True)


# ---------------------------------------------------------------------------
# the frontier's mask test


def test_the_last_step_may_cause_as_many_goal_literals_as_one_action_can():
    finish = Step(("make_ready",), None, None, Step(("finish",), None, None, Leaf(), None), None)
    for domain in (goal_pair_domain(), weak_pair_domain()):
        assert find_plan(domain, 3, 0) == finish
        assert find_optimal_plan(domain, 3, 0) == finish


def test_a_concurrent_step_covers_the_missing_goal_with_a_pair():
    d = concurrent_pair_domain()
    pair = Step(("make_a", "make_b"), None, None, Leaf(), None)
    assert find_plan(d, 2, 0, concurrent=True) == pair
    assert find_optimal_plan(d, 2, 0, concurrent=True) == pair
    # one action a step needs a step for each
    assert plan_depth(find_plan(d, 2, 0)) == 2


def test_checked_searches_step_each_candidate_the_frontier_mask_test_skips(monkeypatch):
    """The checked build expands each candidate the frontier's mask test
    skips, and so steps it, and asserts that it leads to no plan; the
    plans are unchanged."""
    cases = []
    for generate, kind, n in (
        (generate_bomb, "bomb", 5),
        (generate_rings, "rings", 2),
        (generate_sickness, "sickness", 3),
    ):
        cases.append((kind, generate(n), benchmark_bounds(kind, n), False))
    cases.append(("yale", yale_goal_domain(), (2, 1), False))
    for domain in (goal_pair_domain, weak_pair_domain, concurrent_pair_domain):
        cases.append((domain.__name__, domain(), (3, 0), False))
    cases.append(("concurrent_pair_domain", concurrent_pair_domain(), (2, 0), True))
    real = Timeline.step
    stepped = []

    def counting(self, names, branch=0):
        stepped.append(names)
        return real(self, names, branch)

    monkeypatch.setattr(Timeline, "step", counting)
    found = []
    for _label, d, (steps, branches), concurrent in cases:
        for search_for in (find_plan, find_optimal_plan):
            found.append(search_for(d, steps, branches, concurrent=concurrent, checks=False))
    unchecked = len(stepped)
    again = []
    for label, d, (steps, branches), concurrent in cases:
        for search_for in (find_plan, find_optimal_plan):
            plan = search_for(d, steps, branches, concurrent=concurrent, checks=True)
            assert plan is not None, label
            again.append(plan)
    assert again == found
    assert len(stepped) - 2 * unchecked > 1000
    # one step below the horizon, at time zero of the door domain, the
    # only candidate is open_door, which cannot cause in_liv: the search
    # skips it, and only the checked build steps it
    for checks, expected in ((False, []), (True, [("open_door",)])):
        root = initial_state(door_domain(), 1, 1, checks=checks).branches[0].timeline
        solve = search._make_solver(root.compiled, False, {})
        stepped.clear()
        assert next(solve(root, 1, True, None, 1), None) is None
        assert stepped == expected


def test_the_checked_build_catches_a_faulty_frontier_mask_test():
    """With `drive`'s effect mask emptied, the frontier's mask test skips
    the step that ends the door plan; the checked build expands that
    step and finds that it leads to a plan."""
    root = initial_state(door_domain(), 3, 2, checks=True).branches[0].timeline
    root.compiled.actions["drive"].effects = 0
    solve = search._make_solver(root.compiled, False, {})
    with pytest.raises(AssertionError, match=r"skipped \('drive',\), which leads to a plan"):
        next(solve(root, 3, True, None, 2), None)


def test_the_checked_build_catches_a_faulty_symmetry_cut(monkeypatch):
    """With every candidate given the same mirror key, the symmetry cut
    skips the door plan's `sense_open` once a second `open_door` there
    yielded nothing; the checked build expands it and finds the plan."""
    monkeypatch.setattr(search, "_mirror_key", lambda timeline, acts: 0)
    assert find_plan(door_domain(), 3, 1, checks=False) is None
    with pytest.raises(AssertionError, match=r"skipped \('sense_open',\), which leads to a plan"):
        find_plan(door_domain(), 3, 1, checks=True)


def _duplicate_an_action(domain: PlanningDomain) -> PlanningDomain:
    """The domain with a copy, under a new name, of the action that
    causes the most goal literals (the first such in declaration order)."""
    goal = set(domain.goal_literals("strong") + domain.goal_literals("weak"))
    original = max(
        domain.actions, key=lambda a: sum(ep.effect in goal for ep in a.effect_props)
    )
    name = f"{original.name}_copy"
    copy = dataclasses.replace(
        original,
        name=name,
        effect_props=tuple(
            dataclasses.replace(ep, id=f"{name}_{i}")
            for i, ep in enumerate(original.effect_props, 1)
        ),
    )
    return dataclasses.replace(domain, actions=domain.actions + (copy,))


def _add_an_idle_fluent(domain: PlanningDomain) -> PlanningDomain:
    """The domain with a fluent nothing reads and an action that touches
    only it."""
    return dataclasses.replace(
        domain,
        fluents=domain.fluents + ("idle",),
        actions=domain.actions + (_physical_action("touch_idle", pos("idle")),),
    )


def _metamorphic_cases():
    from test_acceptance import _random_domain

    cases = [(_random_domain(random.Random(774000 + i)), (4, 2)) for i in range(200)]
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4, 5)),
        (generate_rings, "rings", (2,)),
        (generate_sickness, "sickness", (3, 4)),
    ):
        for n in sizes:
            cases.append((generate(n), benchmark_bounds(kind, n)))
    return cases


def _search_shape(domain, bounds):
    """Plan existence, find_plan's depth and find_optimal_plan's
    occurrence count (None when there is no plan)."""
    first = find_plan(domain, *bounds, checks=False)
    if first is None:
        return None
    best = find_optimal_plan(domain, *bounds, checks=False)
    return plan_depth(first), count_occurrences(best)


@pytest.mark.parametrize("change", [_duplicate_an_action, _add_an_idle_fluent])
def test_actions_that_add_no_goal_reach_keep_the_search_shape(change):
    cases = _metamorphic_cases()
    shapes = [_search_shape(d, bounds) for d, bounds in cases]
    assert [_search_shape(change(d), bounds) for d, bounds in cases] == shapes
    assert sum(shape is not None for shape in shapes) > 80


# ---------------------------------------------------------------------------
# the cuts below a timeline that cannot split, against a brute force


def _wide_random_domain(rng: random.Random, sensors: int) -> PlanningDomain:
    """A valid random domain beyond criterion 2's limits: 5-7 fluents,
    3-5 actions with up to two effects each, `sensors` of them sensing,
    and goals of up to four literals, so that a node can miss several.  Effects
    are often conditioned on an earlier action's effect, and goal
    literals are mostly effects, so that plans are common and some are
    deep."""
    fluents = tuple(f"f{i}" for i in range(1, rng.randint(5, 7) + 1))

    def literal() -> Literal:
        return Literal(rng.choice(fluents), rng.random() < 0.5)

    while True:
        actions = []
        caused: list[Literal] = []
        read: list[Literal] = []
        for ai in range(1, rng.randint(3, 5) - sensors + 1):
            name = f"a{ai}"
            executability = (literal(),) if rng.random() < 0.15 else ()
            effects = []
            for ei in range(1, rng.randint(1, 2) + 1):
                conditions = ()
                if caused and rng.random() < 0.6:
                    # often the previous action's effect: a chain of steps
                    conditions = (caused[-1] if rng.random() < 0.6 else rng.choice(caused),)
                elif rng.random() < 0.3:
                    conditions = (literal(),)
                effects.append(EffectProposition(f"{name}_{ei}", literal(), conditions))
                read += conditions
            caused += [ep.effect for ep in effects]
            actions.append(Action(name, effect_props=tuple(effects), executability=executability))
        # a sensor mostly reads an effect or a condition, where postdiction
        # can teach more than the sensed value
        for si in range(1, sensors + 1):
            watched = rng.choice(caused + read) if rng.random() < 0.8 else literal()
            actions.append(Action(f"s{si}", knowledge_props=(KnowledgeProposition(watched.fluent),)))

        def goal(size: int) -> tuple[Literal, ...]:
            return tuple(
                rng.choice(caused[-2:] if rng.random() < 0.5 else caused)
                if caused and rng.random() < 0.85
                else literal()
                for _ in range(size)
            )

        def init(fluent: str) -> Literal:
            """Mostly the opposite of what the actions cause, so that
            effects and the conditions on them have work to do."""
            made = [lit.positive for lit in caused if lit.fluent == fluent]
            if made and rng.random() < 0.8:
                return Literal(fluent, not made[0])
            return Literal(fluent, rng.random() < 0.5)

        known = rng.sample(fluents, rng.randint(len(fluents) // 2, len(fluents)))
        unknown = [f for f in fluents if f not in known]
        oneofs = ()
        if len(unknown) >= 2 and rng.random() < 0.3:
            members = rng.sample(unknown, rng.randint(2, min(3, len(unknown))))
            oneofs = (OneofConstraint(tuple(pos(f) for f in members)),)
        goals = [GoalProposition("strong", goal(rng.randint(3, 4) if not sensors else rng.randint(1, 3)))]
        if rng.random() < 0.4:
            goals.append(GoalProposition("weak", goal(rng.randint(1, 2))))
        domain = PlanningDomain(
            fluents=fluents,
            actions=tuple(actions),
            init=tuple(init(f) for f in known),
            oneofs=oneofs,
            goals=tuple(goals),
        )
        if validate_domain(domain).ok:
            return domain


def _brute_force_shape(domain, max_steps, max_branches, concurrent=False):
    """(shallowest horizon, fewest occurrences) of any plan within the
    budgets, or None without one, by plain recursion over Timeline.step.

    Every occurrence set is tried at every step: sensors on known values
    too, and no bound, table or frontier.  A split takes one of the
    plan's split budget, its sides share the rest in every way, and
    either side may owe the weak goal.  A result is kept per timeline
    object only, which never changes."""
    root = initial_state(domain, max_steps, max_branches, checks=False).branches[0].timeline
    if root.inconsistent:
        return None
    compiled = root.compiled
    strong = compiled.mask(domain.goal_literals("strong"))
    both = strong | compiled.mask(domain.goal_literals("weak"))
    names = [a.name for a in domain.actions]
    sets = [(n,) for n in names]
    if concurrent:
        sets = [c for k in range(2, len(names) + 1) for c in combinations(names, k)] + sets
    memo = {}

    def fewest(timeline, d, weak_required, splits):
        need = both if weak_required else strong
        if timeline.layer[-1] & need == need:
            return 0
        if d == 0:
            return None
        key = (id(timeline), d, weak_required, splits)
        if key in memo:
            return memo[key][1]
        costs = []
        for acts in sets:
            try:
                successors = timeline.step(acts)
            except EngineError:
                continue
            if any(s.inconsistent for s in successors):
                continue
            if len(successors) == 1:
                rest = [fewest(successors[0], d - 1, weak_required, splits)]
            else:
                yes, no = successors
                owed = ((True, False), (False, True)) if weak_required else ((False, False),)
                rest = [
                    None if a is None or b is None else a + b
                    for first in range(splits)
                    for w_yes, w_no in owed
                    for a in [fewest(yes, d - 1, w_yes, first)]
                    for b in [fewest(no, d - 1, w_no, splits - 1 - first)]
                ]
            costs += [len(acts) + r for r in rest if r is not None]
        memo[key] = (timeline, min(costs, default=None))
        return memo[key][1]

    depths = [d for d in range(max_steps + 1) if fewest(root, d, True, max_branches) is not None]
    if not depths:
        return None
    return depths[0], fewest(root, max_steps, True, max_branches)


def _wide_random_cases():
    """Derandomized wide domains with their budgets: split budgets 0, 1
    and 2 mixed, horizons up to 6 where no split can happen."""
    rng = random.Random(2206)
    cases = []
    for i in range(200):
        domain = _wide_random_domain(rng, i % 3)
        sensing = any(a.is_sensing for a in domain.actions)
        max_branches = rng.choice((0, 1, 2, 2)) if sensing else rng.choice((0, 2))
        max_steps = rng.randint(3, 4) if sensing and max_branches else rng.randint(4, 6)
        cases.append((domain, max_steps, max_branches))
    return cases


def test_search_depth_and_cost_match_a_brute_force_on_wide_random_domains():
    compared = []
    for domain, max_steps, max_branches in _wide_random_cases():
        first = find_plan(domain, max_steps, max_branches)
        best = find_optimal_plan(domain, max_steps, max_branches)
        shape = None if first is None else (plan_depth(first), count_occurrences(best))
        assert shape == _brute_force_shape(domain, max_steps, max_branches), domain
        compared.append((shape, max_branches))
    # plans with and without a split budget, and deep ones among them
    assert sum(shape is not None and b == 0 for shape, b in compared) > 10
    assert sum(shape is not None and b > 0 for shape, b in compared) > 5
    assert sum(shape is not None and shape[0] >= 3 for shape, _b in compared) > 10
    assert sum(shape is not None and shape[0] >= 4 for shape, _b in compared) > 2
    # concurrent steps, where one step can cause more than one action's goals
    for domain, max_steps, max_branches in _wide_random_cases()[:20]:
        max_steps = min(max_steps, 3)
        best = find_optimal_plan(domain, max_steps, max_branches, concurrent=True)
        first = find_plan(domain, max_steps, max_branches, concurrent=True)
        shape = None if first is None else (plan_depth(first), count_occurrences(best))
        assert shape == _brute_force_shape(domain, max_steps, max_branches, True), domain


# ---------------------------------------------------------------------------
# the symmetry cut, against a brute force


def _symmetric_domain(rng: random.Random) -> PlanningDomain:
    """A random gadget of 2-3 fluents and 1-3 actions, some with
    conditional effects and maybe a sensor, copied 2-3 times under fresh
    names, with parts the copies share: a fluent `s` that gadget effects
    may cause, a strong or weak goal holding one literal of every copy,
    a sensor of `s`, and a oneof over the copies' first fluents."""
    copies = range(1, rng.randint(2, 3) + 1)
    local = [f"x{i}" for i in range(rng.randint(2, 3))]

    def literal(pool) -> Literal:
        return Literal(rng.choice(pool), rng.random() < 0.5)

    while True:
        gadget = []  # (name, (effect, conditions) pairs, executability, sensed)
        for ai in range(rng.randint(1, 3)):
            effects = [
                (literal(["s"] if rng.random() < 0.25 else local),
                 (literal(local),) if rng.random() < 0.5 else ())
                for _ in range(rng.randint(1, 2))
            ]
            executability = (literal(local),) if rng.random() < 0.2 else ()
            gadget.append((f"a{ai}", effects, executability, None))
        if rng.random() < 0.5:
            gadget.append(("look", (), (), rng.choice(local)))
        caused = [e for _a, effects, _x, _s in gadget for e, _c in effects if e.fluent != "s"]
        shared = {part for part in ("goal", "weak", "sensor", "oneof") if rng.random() < 0.5}
        unknown = set(rng.sample(local, rng.randint(0, len(local))))
        if "oneof" in shared:
            unknown.add(local[0])
        values = {f: rng.random() < 0.5 for f in local if f not in unknown}

        def copy(lit: Literal, c: int) -> Literal:
            return lit if lit.fluent == "s" else Literal(f"{lit.fluent}_{c}", lit.positive)

        def every_copy(lit: Literal) -> tuple[Literal, ...]:
            return tuple(copy(lit, c) for c in copies)

        actions = [
            Action(
                f"{a}_{c}",
                effect_props=tuple(
                    EffectProposition(f"{a}_{c}_{i}", copy(e, c), tuple(copy(x, c) for x in cs))
                    for i, (e, cs) in enumerate(effects, 1)
                ),
                knowledge_props=(KnowledgeProposition(f"{sensed}_{c}"),) if sensed else (),
                executability=tuple(copy(x, c) for x in executability),
            )
            for c in copies
            for a, effects, executability, sensed in gadget
        ]
        if "sensor" in shared:
            actions.append(Action("look_s", knowledge_props=(KnowledgeProposition("s"),)))
        init = [copy(Literal(f, v), c) for c in copies for f, v in values.items()]
        if rng.random() < 0.7:
            init.append(Literal("s", rng.random() < 0.5))
        if caused and ("goal" in shared or rng.random() < 0.5):
            goals = [GoalProposition("strong", every_copy(rng.choice(caused)))]
        else:
            goals = [GoalProposition("strong", (literal(["s"]),))]
        if "weak" in shared and caused:
            goals.append(GoalProposition("weak", every_copy(rng.choice(caused))))
        domain = PlanningDomain(
            fluents=tuple(f"{f}_{c}" for c in copies for f in local) + ("s",),
            actions=tuple(actions),
            init=tuple(init),
            oneofs=(OneofConstraint(every_copy(pos(local[0]))),) if "oneof" in shared else (),
            goals=tuple(goals),
        )
        if validate_domain(domain).ok:
            return domain


def _symmetric_cases():
    """Derandomized symmetric domains with their budgets: split budgets
    0-2 where some action senses, 3 steps with a split and 4 without."""
    rng = random.Random(2407)
    cases = []
    for _ in range(60):
        domain = _symmetric_domain(rng)
        sensing = any(a.is_sensing for a in domain.actions)
        max_branches = rng.choice((0, 1, 2)) if sensing else 0
        cases.append((domain, 3 if max_branches else 4, max_branches))
    return cases


def test_the_symmetry_cut_matches_a_brute_force_and_changes_no_plan(monkeypatch):
    """find_plan's depth and find_optimal_plan's count equal the brute
    force's on symmetric domains, both searches return the plans they
    return with detection finding nothing, and the cut makes fewer
    timeline steps, so it skipped candidates."""
    from hindsight import engine

    cases = _symmetric_cases()
    found = [(find_plan(d, m, b), find_optimal_plan(d, m, b)) for d, m, b in cases]
    for (first, best), (d, m, b) in zip(found, cases):
        shape = None if first is None else (plan_depth(first), count_occurrences(best))
        assert shape == _brute_force_shape(d, m, b), d
    assert sum(first is not None for first, _best in found) > 20
    assert sum(first is not None and b > 0 for (first, _), (_d, _m, b) in zip(found, cases)) > 5
    # a gadget with two identical actions puts two nodes of one colour
    # class in a copy's component, and detection gives it up
    assert sum(bool(find_families(d)) for d, _m, _b in cases) > 50

    real_step = Timeline.step
    steps = []

    def counting(self, names, branch=0):
        steps.append(names)
        return real_step(self, names, branch)

    def searched():
        """Both searches' plans on every case, and their timeline steps;
        the checked build would also step the candidates the cut skips."""
        steps.clear()
        plans = [
            (find_plan(d, m, b, checks=False), find_optimal_plan(d, m, b, checks=False))
            for d, m, b in cases
        ]
        return plans, len(steps)

    monkeypatch.setattr(Timeline, "step", counting)
    plans, with_cut = searched()
    assert plans == found
    monkeypatch.setattr(engine, "find_families", lambda domain: ())
    plans, without = searched()
    assert plans == found
    assert with_cut < without


def test_the_symmetry_cut_changes_no_yield_of_the_solver(monkeypatch):
    """Every (plan, cost, splits) the solver yields, in order, is what it
    yields with detection finding nothing: the cut skips only candidates
    that yield nothing, never the mirror image of one that yielded."""
    from hindsight import engine

    cases = [(generate_sickness(n), *benchmark_bounds("sickness", n)) for n in (3, 4)]
    cases += [case for case in _symmetric_cases() if case[2] > 0]

    def yields():
        found = []
        for d, max_steps, max_branches in cases:
            root = initial_state(d, max_steps, max_branches, checks=False).branches[0].timeline
            solve = search._make_solver(root.compiled, False, {})
            found.append(list(islice(solve(root, max_steps, True, None, max_branches), 300)))
        return found

    with_cut = yields()
    monkeypatch.setattr(engine, "find_families", lambda domain: ())
    assert yields() == with_cut
    assert [len(y) for y in with_cut[:2]] == [4, 36]
    assert sum(len(y) > 1 for y in with_cut) > 5


def test_a_mirror_image_whose_block_acted_before_is_not_skipped():
    """Two copies of (c, e, poke, look, fin): `poke` may make `e` where
    `c` holds, `look` observes `e`, and `fin` needs `c` known false.  A
    look that reads `e` false after a poke postdicts `c` false, so only
    the poked copy's look leads to `done`.  The copies' names interleave,
    so after `poke_a` (copy 1) the search tries `look_a` (copy 2) first,
    which yields nothing, before `look_b` (copy 1).  Both copies' bits
    are unknown in every row, so only the chain, which names `poke_a`,
    tells the two apart."""
    def copy(i: int, poke: str, look: str, fin: str) -> tuple[Action, ...]:
        return (
            Action(poke, effect_props=(EffectProposition(f"{poke}_1", pos(f"e{i}"), (pos(f"c{i}"),)),)),
            Action(look, knowledge_props=(KnowledgeProposition(f"e{i}"),)),
            Action(
                fin,
                effect_props=(EffectProposition(f"{fin}_1", pos("done")),),
                executability=(neg(f"c{i}"),),
            ),
        )

    d = PlanningDomain(
        fluents=("c1", "e1", "c2", "e2", "done"),
        actions=copy(1, "poke_a", "look_b", "fin_1") + copy(2, "poke_b", "look_a", "fin_2"),
        init=(neg("done"),),
        goals=(GoalProposition("weak", (pos("done"),)),),
    )
    assert find_families(d) == (
        Family((Block(("c1", "e1"), ("poke_a", "look_b", "fin_1")),
                Block(("c2", "e2"), ("poke_b", "look_a", "fin_2")))),
    )
    fin = Step(("fin_1",), None, None, Leaf(), None)
    assert find_plan(d, 3, 1) == Step(("poke_a",), None, None, Step(("look_b",), "e1", None, Leaf(), fin))


def _permute_declarations(domain: PlanningDomain, rng: random.Random) -> PlanningDomain:
    """The domain with its fluents, actions, effects, initial literals,
    oneof groups and members and goals declared in a shuffled order."""

    def shuffled(items):
        """A derangement of `items`: none stays where it was."""
        items = list(items)
        order = list(range(len(items)))
        while len(items) > 1 and any(i == j for i, j in enumerate(order)):
            rng.shuffle(order)
        return tuple(items[j] for j in order)

    return dataclasses.replace(
        domain,
        fluents=shuffled(domain.fluents),
        actions=shuffled(
            dataclasses.replace(a, effect_props=shuffled(a.effect_props)) for a in domain.actions
        ),
        init=shuffled(domain.init),
        oneofs=shuffled(
            dataclasses.replace(group, literals=shuffled(group.literals))
            for group in domain.oneofs
        ),
        goals=shuffled(domain.goals),
    )


def test_permuted_declarations_keep_the_search_shape_and_the_replayed_atoms():
    """Permuting the declarations moves every bit position, so the dead-end
    table's keys and the goal-count bound's masks all change."""
    from test_acceptance import _random_domain

    rng = random.Random(1404)
    cases = [(_random_domain(random.Random(774000 + i)), (4, 2)) for i in range(150)]
    cases += [(d, (m, b)) for d, m, b in _wide_random_cases()[:40]]
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4, 5)),
        (generate_rings, "rings", (2, 3)),
        (generate_sickness, "sickness", (3, 4)),
    ):
        for n in sizes:
            cases.append((generate(n), benchmark_bounds(kind, n)))
    solved = 0
    for domain, bounds in cases:
        permuted = _permute_declarations(domain, rng)
        assert permuted.fluents != domain.fluents or len(domain.fluents) < 2
        shape = _search_shape(domain, bounds)
        assert _search_shape(permuted, bounds) == shape
        if shape is None:
            continue
        solved += 1
        plan = find_plan(domain, *bounds, checks=False)
        report = verify_plan(domain, plan, *bounds, checks=False)
        again = verify_plan(permuted, plan, *bounds, checks=False)
        assert again.ok
        assert set(again.state.all_atoms()) == set(report.state.all_atoms())
    assert solved > 80


def _rename(domain: PlanningDomain, fluent: dict, action: dict) -> PlanningDomain:
    """The domain with its fluents and actions renamed by the two maps,
    declared in the same order; effect ids follow their action's name."""

    def lit(x: Literal) -> Literal:
        return Literal(fluent[x.fluent], x.positive)

    return PlanningDomain(
        fluents=tuple(fluent[f] for f in domain.fluents),
        actions=tuple(
            Action(
                action[a.name],
                effect_props=tuple(
                    EffectProposition(f"{action[a.name]}_{i}", lit(ep.effect), tuple(map(lit, ep.conditions)))
                    for i, ep in enumerate(a.effect_props, 1)
                ),
                knowledge_props=tuple(KnowledgeProposition(fluent[kp.fluent]) for kp in a.knowledge_props),
                executability=tuple(map(lit, a.executability)),
            )
            for a in domain.actions
        ),
        init=tuple(map(lit, domain.init)),
        oneofs=tuple(OneofConstraint(tuple(map(lit, oo.literals))) for oo in domain.oneofs),
        goals=tuple(GoalProposition(g.kind, tuple(map(lit, g.literals))) for g in domain.goals),
        static_fluents=frozenset(fluent[f] for f in domain.static_fluents),
    )


def _rename_plan(plan, fluent: dict, action: dict):
    if isinstance(plan, Leaf):
        return plan
    return Step(
        tuple(action[name] for name in plan.actions),
        None if plan.sensed is None else fluent[plan.sensed],
        plan.outcome,
        _rename_plan(plan.on_true, fluent, action),
        None if plan.on_false is None else _rename_plan(plan.on_false, fluent, action),
    )


def _rename_families(families, fluent: dict, action: dict):
    return tuple(
        Family(tuple(Block(tuple(fluent[f] for f in b.fluents), tuple(action[a] for a in b.actions)) for b in fam.blocks))
        for fam in families
    )


def _renaming_cases():
    from test_acceptance import _random_domain

    cases = [(_random_domain(random.Random(774000 + i)), (4, 2)) for i in range(200)]
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4, 5, 6)),
        (generate_rings, "rings", (2, 3)),
        (generate_sickness, "sickness", (3, 4, 5, 6)),
    ):
        for n in sizes:
            cases.append((generate(n), benchmark_bounds(kind, n)))
    cases += [(d, (m, b)) for d, m, b in _symmetric_cases()]
    return cases


def test_a_renaming_keeps_the_search_shape_and_the_families():
    """A bijective renaming of fluents and actions, in a random name
    order, keeps plan existence, find_plan's depth, find_optimal_plan's
    count and the interchangeable blocks, renamed: detection reads
    structure, never names."""
    rng = random.Random(1405)
    solved = mirrored = 0
    for domain, bounds in _renaming_cases():
        fluents = [f"v{i}" for i in range(len(domain.fluents))]
        actions = [f"act{i}" for i in range(len(domain.actions))]
        rng.shuffle(fluents)
        rng.shuffle(actions)
        fluent = dict(zip(domain.fluents, fluents))
        action = dict(zip((a.name for a in domain.actions), actions))
        renamed = _rename(domain, fluent, action)
        families = find_families(domain)
        assert find_families(renamed) == _rename_families(families, fluent, action)
        shape = _search_shape(domain, bounds)
        assert _search_shape(renamed, bounds) == shape
        solved += shape is not None
        mirrored += bool(families)
    assert solved > 100
    assert mirrored > 50


def test_a_renaming_that_keeps_name_order_renames_the_plan():
    solved = 0
    for domain, bounds in _renaming_cases():
        fluent = {f: f"is_{f}" for f in domain.fluents}
        action = {a.name: f"do_{a.name}" for a in domain.actions}
        renamed = _rename(domain, fluent, action)
        for search_for in (find_plan, find_optimal_plan):
            plan = search_for(domain, *bounds, checks=False)
            again = search_for(renamed, *bounds, checks=False)
            assert again == (None if plan is None else _rename_plan(plan, fluent, action))
            solved += plan is not None
    assert solved > 200


# ---------------------------------------------------------------------------
# search work

# Timeline steps made by find_plan: on the benchmark families at their
# benchmark bounds, on split_budget_domain, whose search resumes the true
# side of a split after its false side failed, and over criterion 2's
# 1000 domains, whose weak goals solve each split twice.  A step is a
# Timeline.step call, raising or not.  A candidate one step below the
# horizon that does not sense and whose effects cannot complete the goal
# makes none, and neither does a node that cannot split when the
# goal-count bound or the dead-end table skips it, nor a mirror image the
# symmetry cut skips.
FIND_PLAN_STEPS = {
    "bomb(4)": 11,
    "bomb(5)": 16,
    "bomb(6)": 22,
    "rings(2)": 37,
    "rings(3)": 352,
    "sickness(3)": 29,
    "sickness(4)": 63,
    "sickness(5)": 128,
    "split_budget_domain": 165,
    "criterion 2": 5907,
}


def test_find_plan_makes_the_pinned_number_of_timeline_steps(monkeypatch):
    from test_acceptance import _random_domain

    cases = {}
    for generate, kind, sizes in (
        (generate_bomb, "bomb", (4, 5, 6)),
        (generate_rings, "rings", (2, 3)),
        (generate_sickness, "sickness", (3, 4, 5)),
    ):
        for n in sizes:
            cases[f"{kind}({n})"] = ([generate(n)], benchmark_bounds(kind, n))
    cases["split_budget_domain"] = ([split_budget_domain()], (3, 2))
    cases["criterion 2"] = (
        [_random_domain(random.Random(774000 + i)) for i in range(1000)],
        (4, 2),
    )

    real_step = Timeline.step
    steps = []  # splits so far of each timeline stepped, raising or not
    split = []  # splits so far of each timeline whose step split

    def counting(self, names, branch=0):
        steps.append(self.splits)
        successors = real_step(self, names, branch)
        if len(successors) == 2:
            split.append(self.splits)
        return successors

    monkeypatch.setattr(Timeline, "step", counting)
    counts = {}
    for label, (domains, (max_steps, max_branches)) in cases.items():
        steps.clear()
        split.clear()
        # the checked build also steps the candidates the cuts skip
        for d in domains:
            find_plan(d, max_steps, max_branches, checks=False)
        counts[label] = len(steps)
        # no split is closed only to be refused on the branch budget
        assert all(splits + 1 <= max_branches for splits in split), label
    assert counts == FIND_PLAN_STEPS


def test_a_full_dead_end_table_keeps_its_keys_and_changes_no_plan(monkeypatch):
    """With the dead-end table capped far below what these searches
    record, both searches return the plans of the uncapped table, no
    table holds more keys than the cap, and a full table still updates
    the keys it holds."""
    cases = [(generate_rings(3), benchmark_bounds("rings", 3))]
    cases.append((generate_bomb(6), benchmark_bounds("bomb", 6)))
    cases += [(d, (max_steps, b)) for d, max_steps, b in _wide_random_cases()[:50]]
    uncapped = [(find_plan(d, *bounds), find_optimal_plan(d, *bounds)) for d, bounds in cases]

    cap = 8

    class Watched(dict):
        most = 0  # the most keys any table held
        full_updates = 0  # entries recorded under a key of a full table

        def setdefault(self, key, default=None):
            if len(self) >= cap:
                Watched.full_updates += 1
            entries = super().setdefault(key, default)
            Watched.most = max(Watched.most, len(self))
            return entries

    real = search._make_solver

    def watched(compiled, concurrent, dead_ends):
        # one solver per search, so each search's table has its stand-in
        return real(compiled, concurrent, Watched())

    monkeypatch.setattr(search, "MAX_DEAD_ENDS", cap)
    monkeypatch.setattr(search, "_make_solver", watched)
    capped = [(find_plan(d, *bounds), find_optimal_plan(d, *bounds)) for d, bounds in cases]
    assert capped == uncapped
    assert Watched.most == cap
    assert Watched.full_updates > 0


@pytest.mark.parametrize(
    "max_steps, max_branches, concurrent", [(4, 0, False), (2, 1, False), (2, 1, True)]
)
def test_optimal_search_tries_no_horizon_above_the_occurrence_budget(
    monkeypatch, max_steps, max_branches, concurrent
):
    d = door_domain()
    real = search._make_solver
    tried = []

    def counting(*args):
        solve = real(*args)

        # only _search calls the solve it gets; the recursion does not
        def restart(timeline, horizon, weak_required, occ_budget, split_budget):
            tried.append((occ_budget, horizon))
            return solve(timeline, horizon, weak_required, occ_budget, split_budget)

        return restart

    monkeypatch.setattr(search, "_make_solver", counting)
    assert find_optimal_plan(d, max_steps, max_branches, concurrent=concurrent) is None
    per_step = len(d.actions) if concurrent else 1
    most = max_steps * (max_branches + 1) * per_step
    assert tried == [
        (budget, horizon)
        for budget in range(most + 1)
        for horizon in range(min(budget, max_steps) + 1)
    ]


class TooManyRestarts(Exception):
    """A search made more restarts than its test allows."""


def _count_restarts(monkeypatch, limit: int) -> list[int]:
    """Count the restarts of the searches that follow, through the solve
    `_make_solver` returns (only _search calls it; the recursion does
    not), and raise once there are more than `limit`, so a search that
    would run on for ever fails at once."""
    real = search._make_solver
    count = [0]

    def counting(*args):
        solve = real(*args)

        def restart(*solve_args):
            count[0] += 1
            if count[0] > limit:
                raise TooManyRestarts(f"more than {limit} restarts")
            return solve(*solve_args)

        return restart

    monkeypatch.setattr(search, "_make_solver", counting)
    return count


@pytest.mark.parametrize(
    "text, max_steps, restarts",
    [
        # no sensor: budgets 0..8, budget b at horizons 0..b: 1 + 2 + ... + 9
        ("(:action a :effect x) (:init ¬x ¬g) (:goal strong g)", 8, 45),
        # at most 2**3 - 1 = 7 splits: budgets 0..3 × 8 = 24, each at
        # horizons 0..min(3, b): 1 + 2 + 3 + 22 × 4
        (
            "(:action s :observe f) (:action a :effect (when f g)) (:init ¬x) "
            "(:goal strong g)",
            3,
            94,
        ),
    ],
    ids=["sensor_free", "sensing"],
)
def test_optimal_search_without_a_plan_stops_at_the_occurrence_ceiling(
    monkeypatch, text, max_steps, restarts
):
    count = _count_restarts(monkeypatch, restarts)
    assert find_optimal_plan(parse_domain(text), max_steps, 1_000_000_000) is None
    assert count[0] == restarts


def _reference_optimal_plan(domain, max_steps, max_branches, concurrent):
    """find_optimal_plan's restarts without the occurrence ceiling: every
    budget up to max_steps × (max_branches + 1) × per_step, each at the
    horizons up to min(max_steps, budget), from one root timeline."""
    root = initial_state(domain, 0, max_branches, checks=False).branches[0].timeline
    if root.inconsistent:
        return None
    per_step = len(domain.actions) if concurrent else 1
    for budget in range(max_steps * (max_branches + 1) * per_step + 1):
        for horizon in range(min(max_steps, budget) + 1):
            # a fresh solver per restart: a reference without the shared table
            solve = search._make_solver(root.compiled, concurrent, {})
            hit = next(solve(root, horizon, True, budget, max_branches), None)
            if hit is not None:
                return hit[0]
    return None


def test_the_occurrence_ceiling_changes_no_optimal_plan():
    from test_acceptance import _random_domain

    domains = [_random_domain(random.Random(774000 + i)) for i in range(200)]
    cases = [(d, 4, 2, False) for d in domains]
    cases += [(d, 3, 2, True) for d in domains]
    cases.append((door_domain(), 4, 1, False))
    # 5 occurrences over 3 branches, more than one branch's 3 steps hold
    cases.append((split_budget_domain(), 3, 2, False))
    found = [
        find_optimal_plan(d, steps, branches, concurrent=concurrent, checks=False)
        for d, steps, branches, concurrent in cases
    ]
    assert found == [_reference_optimal_plan(*case) for case in cases]
    assert found[-2] == DOOR_PLAN
    assert count_occurrences(found[-1]) == 5
    # both kinds of domain have plans, so both ceilings are exercised
    sensing = [any(a.is_sensing for a in d.actions) for d, *_ in cases]
    assert sum(p is not None and s for p, s in zip(found, sensing)) > 50
    assert sum(p is not None and not s for p, s in zip(found, sensing)) > 50


def test_a_search_validates_and_compiles_its_domain_once(monkeypatch):
    from hindsight import engine

    builds = []
    real_validate = engine.validate_domain
    real_compile = CompiledDomain.__init__

    def validating(domain):
        builds.append("validate")
        return real_validate(domain)

    def compiling(self, domain):
        builds.append("compile")
        real_compile(self, domain)

    monkeypatch.setattr(engine, "validate_domain", validating)
    monkeypatch.setattr(CompiledDomain, "__init__", compiling)
    d = door_domain()
    # 15 (budget, horizon) restarts, none with a plan, share one root
    assert find_optimal_plan(d, 4, 0) is None
    assert builds == ["validate", "compile"]
    builds.clear()
    # one build for the search and one for the replay of its plan
    assert find_plan(d, 4, 1) == DOOR_PLAN
    assert builds == ["validate", "compile"] * 2


def test_one_solver_serves_every_restart_of_a_search(monkeypatch):
    restarts = _count_restarts(monkeypatch, 100)
    counting = search._make_solver
    solvers = []

    def once(*args):
        solvers.append(args)
        return counting(*args)

    monkeypatch.setattr(search, "_make_solver", once)
    d = door_domain()
    # horizons 0..3, the last the door plan's depth
    assert find_plan(d, 4, 1) == DOOR_PLAN
    assert (len(solvers), restarts[0]) == (1, 4)
    # 15 (budget, horizon) restarts, none with a plan
    assert find_optimal_plan(d, 4, 0) is None
    assert (len(solvers), restarts[0]) == (2, 19)


def test_a_searched_domain_does_not_outlive_its_search():
    d = generate_sickness(4)
    ref = weakref.ref(d)
    assert find_plan(d, *benchmark_bounds("sickness", 4)) is not None
    del d
    gc.collect()
    assert ref() is None


def test_a_search_raises_what_its_first_restart_raises():
    d = door_domain()
    invalid = dataclasses.replace(d, fluents=d.fluents + d.fluents[:1])
    for call in (
        lambda: find_plan(invalid, 4, 1),
        lambda: find_optimal_plan(invalid, 4, 1),
    ):
        with pytest.raises(EngineError, match="invalid domain"):
            call()
    for call in (
        lambda: find_plan(d, 4, -1),
        lambda: find_optimal_plan(d, 4, -1),
        lambda: find_plan(d, -1, 1, deepen=False),
    ):
        with pytest.raises(EngineError, match="non-negative"):
            call()
    # no restart to make: nothing is built, not even the invalid domain
    assert find_plan(invalid, -1, 1) is None
    assert find_optimal_plan(invalid, -1, 1) is None


@pytest.mark.parametrize("init", ["¬c ¬d", "¬c ¬d g"])
def test_contradictory_initial_knowledge_has_no_plan(init):
    # the oneof group rules c or d in, the init rules both out; with g in
    # the init the goal looks met at time zero, but nothing is trusted
    d = parse_domain(f"(:init {init}) (oneof c d) (:action noop :effect g) (:goal strong g)")
    assert initial_state(d, 2, 0).inconsistent
    assert find_plan(d, 2, 0) is None
    assert find_plan(d, 2, 0, deepen=False) is None
    assert find_optimal_plan(d, 2, 0) is None


# sha256 of repr([plan_depth(find_plan(d, 4, 2)), or None when there is no
# plan, for criterion 2's 1000 domains]), taken before the search skipped
# refused splits and repeated false sides
SHALLOWEST_DEPTHS_DIGEST = "844cc42ed28680395f9d043d56dd9740f37c8a3bc56814414262efb46a241233"


def test_find_plan_keeps_the_shallowest_horizon_on_the_criterion_2_corpus():
    from test_acceptance import _random_domain

    depths = []
    for i in range(1000):
        plan = find_plan(_random_domain(random.Random(774000 + i)), 4, 2)
        depths.append(None if plan is None else plan_depth(plan))
    assert sum(depth is not None for depth in depths) == 533
    assert hashlib.sha256(repr(depths).encode()).hexdigest() == SHALLOWEST_DEPTHS_DIGEST


# ---------------------------------------------------------------------------
# verify_plan diagnostics


def test_replay_rejects_a_plan_that_splits_on_a_known_value():
    d = door_domain()
    opened = dataclasses.replace(d, init=(neg("in_liv"), pos("open")))
    plan = Step(("sense_open",), "open", None, Leaf(), Leaf())
    report = verify_plan(opened, plan, 2, 1)
    assert not report.ok
    assert any("already known" in e for e in report.errors)


@pytest.mark.parametrize("value", [False, True])
def test_replay_rejects_a_sensing_outcome_the_engine_did_not_observe(value):
    """A look at a known value does not split, and the plan's `outcome`
    must be that value: it decides the sRes atom extract_atoms writes."""
    lit = "open" if value else "¬open"
    d = parse_domain(
        f"(:init {lit}) (:action look :observe open) "
        f"(:action act :executable (and {lit}) :effect g) (:goal strong g)"
    )
    plan = Step(("look",), "open", not value, Step(("act",)), None)
    report = verify_plan(d, plan, 3, 1)
    assert not report.ok
    assert any("known to be" in e for e in report.errors), report.errors
    # the plan with the observed outcome replays to its own atoms
    fixed = dataclasses.replace(plan, outcome=value)
    report = verify_plan(d, fixed, 3, 1)
    assert report.ok
    replayed = [a for a in report.state.all_atoms() if a.startswith(("occ(", "sRes(", "nextBr("))]
    assert replayed == extract_atoms(fixed)


def test_replay_rejects_a_plan_missing_the_surprise_continuation():
    plan = Step(
        ("open_door",),
        None,
        None,
        Step(("sense_open",), "open", True, Leaf(), None),
        None,
    )
    report = verify_plan(door_domain(), plan, 3, 1)
    assert any("came out unknown" in e for e in report.errors)


def test_replay_rejects_a_plan_that_overruns_the_step_budget():
    report = verify_plan(door_domain(), DOOR_PLAN, max_steps=2, max_branches=1)
    assert any("continues past" in e for e in report.errors)


def test_replay_rejects_a_plan_with_an_inexecutable_action():
    plan = Step(("drive",), None, None, Leaf(), None)
    report = verify_plan(door_domain(), plan, 2, 1)
    assert any("requires" in e for e in report.errors)


def test_replay_surfaces_goal_failure_without_errors():
    report = verify_plan(door_domain(), Leaf(), 2, 1)
    assert not report.plan_found
    assert report.errors == ()
    assert report.weak_branches == ()


def test_replay_stops_where_knowledge_becomes_contradictory():
    """Criterion 2's domain 42 without its unused a2.  a1 turns f1 off
    where it was on, and the look at f1 after it splits.  On the true
    side no effect made f1 true, so it persists back to before a1, and
    then a1 causes -f1 after it: that side knows f1 and -f1."""
    d = parse_domain(
        "(:fluents f1) (:action a1 :effect (when f1 -f1)) (:action a3 :observe f1)"
    )
    plan = Step(("a1",), None, None, Step(("a3",), "f1", None, Leaf(), Leaf()), None)
    report = verify_plan(d, plan, 4, 2)
    assert report.errors == ("step 1: knowledge became contradictory",)
    assert report.state is None
    assert not report.plan_found


def test_replay_names_the_branches_that_miss_the_strong_goal():
    """a causes g only where f holds, so after a split on f only the
    true side reaches the strong goal; the weak goal is empty and holds
    on both."""
    d = parse_domain(
        "(:action s :observe f) (:action a :effect (when f g)) (:init -g) (:goal strong g)"
    )
    act = Step(("a",), None, None, Leaf(), None)
    report = verify_plan(d, Step(("s",), "f", None, act, act), 2, 1)
    assert report.strong_failures == (1,)
    assert report.errors == ()
    assert not report.plan_found


@pytest.mark.parametrize(
    "plan, fragment",
    [
        (Step(("fly",), None, None, Leaf(), None), "unknown action"),
        (Step(("open_door", "open_door"), None, None, Leaf(), None), "repeated action"),
        (Step(("open_door",), "open", None, Leaf(), Leaf()), "is labelled as sensing"),
        (Step(("sense_open",), "in_liv", None, Leaf(), Leaf()), "but is labelled"),
        (Step(("open_door",), None, None, Leaf(), Leaf()), "split without a sensed fluent"),
    ],
)
def test_malformed_plan_shapes_are_reported(plan, fragment):
    report = verify_plan(door_domain(), plan, 3, 1)
    assert not report.ok
    assert any(fragment in e for e in report.errors), report.errors


# ---------------------------------------------------------------------------
# atoms round-trip


def test_door_plan_atoms_are_exactly_the_expected_ones():
    assert extract_atoms(DOOR_PLAN) == sorted(
        [
            "occ(open_door,0,0)",
            "occ(sense_open,1,0)",
            "nextBr(1,0,1)",
            "sRes(open,1,0)",
            "sRes(-open,1,1)",
            "occ(drive,2,0)",
        ]
    )


def test_atoms_round_trip_through_parse():
    d = door_domain()
    assert parse_atoms(d, extract_atoms(DOOR_PLAN)) == DOOR_PLAN


def test_engine_trace_parses_back_to_the_plan():
    d = door_domain()
    report = verify_plan(d, DOOR_PLAN, 3, 1)
    assert report.ok
    assert parse_atoms(d, report.state.all_atoms()) == DOOR_PLAN


def _numbering_inputs():
    """(domain, max_steps, max_branches): the first 200 criterion-2
    domains; door, bomb(4), rings(2) and sickness(3-4) at their benchmark
    bounds; and a domain whose plan splits two branches at one step,
    which only parents taken in ascending order number as the engine
    does."""
    from test_acceptance import _random_domain

    for i in range(200):
        yield _random_domain(random.Random(774000 + i)), 4, 2
    yield door_domain(), 3, 1
    yield split_budget_domain(), 3, 3
    generate = {"bomb": generate_bomb, "rings": generate_rings, "sickness": generate_sickness}
    for family, n in (("bomb", 4), ("rings", 2), ("sickness", 3), ("sickness", 4)):
        yield generate[family](n), *benchmark_bounds(family, n)


def test_plan_walk_numbers_branches_as_the_engine_does():
    solved = 0
    for d, max_steps, max_branches in _numbering_inputs():
        plan = find_plan(d, max_steps, max_branches)
        if plan is None:
            continue
        solved += 1
        report = verify_plan(d, plan, max_steps, max_branches)
        assert report.ok
        replayed = [
            a for a in report.state.all_atoms() if a.startswith(("occ(", "nextBr(", "sRes("))
        ]
        atoms = extract_atoms(plan)
        assert atoms == sorted(replayed)
        assert parse_atoms(d, atoms) == plan
        records = plan_records(plan)
        assert sorted(
            f"occ({r['action']},{r['step']},{r['branch']})" for r in records
        ) == [a for a in atoms if a.startswith("occ(")]
        assert sorted(
            f"nextBr({r['step']},{r['branch']},{r['else_branch']})"
            for r in records
            if r["else_branch"] is not None
        ) == [a for a in atoms if a.startswith("nextBr(")]
    assert solved == 89 + 6  # 89 of the 200 corpus domains have a plan


def test_idle_gaps_survive_the_round_trip():
    lazy = Step(
        ("open_door",),
        None,
        None,
        Step(
            (),
            None,
            None,
            Step(
                ("sense_open",),
                "open",
                None,
                Step(("drive",), None, None, Leaf(), None),
                Leaf(),
            ),
            None,
        ),
        None,
    )
    d = door_domain()
    assert verify_plan(d, lazy, 4, 1).ok
    assert parse_atoms(d, extract_atoms(lazy)) == lazy


def test_known_value_sensing_round_trips_with_its_outcome():
    d = door_domain()
    opened = dataclasses.replace(d, init=(neg("in_liv"), pos("open")))
    watch = Step(("sense_open",), "open", True, Leaf(), None)
    assert extract_atoms(watch) == sorted(["occ(sense_open,0,0)", "sRes(open,0,0)"])
    assert parse_atoms(opened, extract_atoms(watch)) == watch
    # with the door known shut, the look records no sensing result
    glance = Step(("sense_open",), "open", False, Leaf(), None)
    assert extract_atoms(glance) == ["occ(sense_open,0,0)"]
    assert parse_atoms(d, extract_atoms(glance)) == glance


def test_trailing_idles_are_not_reconstructed():
    idle_only = Step((), None, None, Leaf(), None)
    assert extract_atoms(idle_only) == []
    assert parse_atoms(door_domain(), []) == Leaf()


@pytest.mark.parametrize(
    "atoms, fragment",
    [
        (["nextBr(1,0,1)", "sRes(open,1,0)", "sRes(-open,1,1)"], "without a sensing occurrence"),
        (["occ(sense_open,0,0)", "nextBr(0,0,1)"], "lacks its two sensing results"),
        (["occ(open_door,0,2)"], "never created by a split"),
        (
            [
                "occ(sense_open,0,0)",
                "nextBr(0,0,1)",
                "sRes(open,0,0)",
                "sRes(-open,0,1)",
                "occ(open_door,0,1)",
            ],
            "acts before its split",
        ),
        (["occ(open_door,zero,0)"], "malformed atom"),
        (["what!"], "unreadable atom"),
        (["nextBr(1,0,1)", "nextBr(1,0,2)"], "two splits"),
        (["occ(fly,0,0)"], "unknown action"),
        (
            [
                "occ(sense_open,0,0)",
                "nextBr(0,0,1)",
                "sRes(open,0,0)",
                "sRes(-open,0,1)",
                "nextBr(0,1,2)",
                "sRes(open,0,1)",
                "sRes(-open,0,2)",
                "occ(drive,1,2)",
            ],
            "acts before its split",
        ),
        (["nextBr(0,1,0)"], "branch 0 is created twice"),
        (["occ(open_door,-1,0)"], "malformed atom"),
        (["nextBr(-1,0,1)"], "malformed atom"),
        (["sRes(open,0,-1)"], "malformed atom"),
        (["occ(drive,5000,0)"], "step 5000 is beyond the last possible step 255"),
    ],
)
def test_bad_atom_sets_are_rejected(atoms, fragment):
    with pytest.raises(PlanFormatError, match=fragment):
        parse_atoms(door_domain(), atoms)


def test_the_last_step_under_the_step_limit_parses():
    plan = parse_atoms(door_domain(), [f"occ(drive,{search.MAX_STEPS - 1},0)"])
    assert plan_depth(plan) == search.MAX_STEPS


def test_a_branch_made_by_two_splits_is_rejected_without_building_it_twice():
    """Each level below makes its child at two steps; building every copy
    would take 2**40 calls."""
    atoms = []
    for level in range(40):
        for t in (2 * level, 2 * level + 1):
            atoms += [f"occ(sense_open,{t},{level})", f"nextBr({t},{level},{level + 1})",
                      f"sRes(open,{t},{level})", f"sRes(-open,{t},{level + 1})"]
    with pytest.raises(PlanFormatError, match="created twice"):
        parse_atoms(door_domain(), atoms)


def test_found_plans_round_trip_through_their_atoms_on_the_criterion_2_corpus():
    from test_acceptance import _random_domain

    solved = 0
    for i in range(100):
        d = _random_domain(random.Random(774000 + i))
        for plan in (find_plan(d, 4, 2), find_optimal_plan(d, 4, 2)):
            if plan is not None:
                solved += 1
                assert parse_atoms(d, extract_atoms(plan)) == plan
    assert solved > 50


def test_random_atom_lists_raise_only_plan_format_errors():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    d = door_domain()
    number = st.one_of(st.integers(-3, 6), st.sampled_from([-(10**12), 255, 256, 5000, 10**12]))
    name = st.sampled_from(["open_door", "drive", "sense_open", "fly"])
    atom = st.one_of(
        st.builds("occ({},{},{})".format, name, number, number),
        st.builds("nextBr({},{},{})".format, number, number, number),
        st.builds("sRes({},{},{})".format, st.sampled_from(["open", "-open", "in_liv"]), number, number),
    )

    outcomes = {"plan": 0, "refused": 0}

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(st.lists(atom, max_size=12))
    def parses_or_refuses(atoms):
        try:
            parse_atoms(d, atoms)
            outcomes["plan"] += 1
        except PlanFormatError:
            outcomes["refused"] += 1

    parses_or_refuses()
    assert min(outcomes.values()) > 0, outcomes


# ---------------------------------------------------------------------------
# presentation helpers


def test_plan_records_list_every_occurrence_in_order():
    assert plan_records(DOOR_PLAN) == [
        {
            "action": "open_door",
            "step": 0,
            "branch": 0,
            "sensed": None,
            "then_branch": None,
            "else_branch": None,
        },
        {
            "action": "sense_open",
            "step": 1,
            "branch": 0,
            "sensed": "open",
            "then_branch": 0,
            "else_branch": 1,
        },
        {
            "action": "drive",
            "step": 2,
            "branch": 0,
            "sensed": None,
            "then_branch": None,
            "else_branch": None,
        },
    ]


def test_format_plan_draws_the_branching_tree():
    text = format_plan(DOOR_PLAN)
    assert "0: open_door" in text
    assert "1: sense_open" in text
    assert "if open:" in text
    assert "if -open:" in text
    assert "2: drive" in text
    assert "(nothing to do)" in text
