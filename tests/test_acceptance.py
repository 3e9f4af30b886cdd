"""End-to-end acceptance checks, one printed verdict line per criterion.

Every engine state touched by criteria 1-5 is built assertion-checked
(criterion 9), so closure idempotence, knowledge monotonicity, layer
shape, branch-tree well-formedness, and split inheritance are verified
on every visited state as a side effect of running the scenarios.

Verdict lines are collected while the criteria run and written to the
real stderr when the test process exits — after pytest has restored
the original file descriptors — so they appear exactly once no matter
which capture mode is active.
"""

from __future__ import annotations

import atexit
import math
import random
import sys
import time
from contextlib import contextmanager
from itertools import product

from test_engine import two_door_domain, yale_domain
from test_search import DOOR_PLAN, door_domain, yale_goal_domain

from hindsight.emitter import (
    emit_domain_rules,
    emit_foundational_theory,
    emit_program,
    ground_instance_count,
)
from hindsight.engine import EngineError, initial_state
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
from hindsight.oracle import (
    branch_trace,
    soundness_check,
    tqs_entails,
    tqs_timeline,
)
from hindsight.search import (
    Leaf,
    Step,
    count_occurrences,
    find_optimal_plan,
    find_plan,
    verify_plan,
)

DATA_DIR = __file__.rsplit("/", 1)[0] + "/data"

# Populated as criteria run; criterion 9 reports on it.
_CHECKED = {"states": 0, "criteria": set()}


_VERDICTS: list[str] = []


def _line(text: str) -> None:
    _VERDICTS.append(text)


@atexit.register
def _print_verdicts() -> None:
    if _VERDICTS:
        sys.__stderr__.write("\n" + "\n".join(_VERDICTS) + "\n")
        sys.__stderr__.flush()


@contextmanager
def criterion(num: int, label: str):
    info: dict = {}
    started = time.perf_counter()
    try:
        yield info
    except BaseException:
        _line(f"criterion {num}: FAIL — {label}")
        raise
    wall = time.perf_counter() - started
    detail = f"; {info['detail']}" if "detail" in info else ""
    _line(f"criterion {num}: PASS — {label}{detail} [{wall:.2f}s]")


def _checked_state(domain, max_steps, max_branches, crit: int):
    _CHECKED["states"] += 1
    _CHECKED["criteria"].add(crit)
    return initial_state(domain, max_steps, max_branches, checks=True)


def _checked_verify(domain, plan, max_steps, max_branches, crit: int):
    _CHECKED["states"] += 1
    _CHECKED["criteria"].add(crit)
    return verify_plan(domain, plan, max_steps, max_branches, checks=True)


# -- criterion 1: the door narrative end to end ------------------------------


def test_criterion_1_door_plan_and_hindsight_trace():
    with criterion(1, "door domain: plan shape, hindsight atoms, under 1s") as info:
        started = time.perf_counter()
        domain = door_domain()
        plan = find_plan(domain, 4, 1, checks=True)
        _CHECKED["states"] += 1
        _CHECKED["criteria"].add(1)
        assert plan == DOOR_PLAN  # open the door, sense it, drive when open
        report = _checked_verify(domain, plan, 4, 1, crit=1)
        assert report.plan_found
        atoms = set(report.state.all_atoms())
        for atom in (
            "knows(-in_liv,1,1,0)",
            "sRes(open,1,0)",
            "sRes(-open,1,1)",
            "nextBr(1,0,1)",
            "knows(-open,1,2,1)",
            "knows(ab_open,0,2,1)",
            "knows(-ab_open,0,2,0)",
            "knows(in_liv,3,3,0)",
        ):
            assert atom in atoms, atom
        wall = time.perf_counter() - started
        assert wall < 1.0, f"took {wall:.3f}s"
        info["detail"] = f"3 occurrences, {len(atoms)} trace atoms"


# -- criterion 2: randomized soundness against the world semantics -----------


def _random_domain(rng: random.Random) -> PlanningDomain:
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


def _walk_all_plans(domain: PlanningDomain, tally: dict) -> None:
    """Soundness-check every state reachable by executable plans, length <= 4.

    Each step applies one action to every live branch (branches stay in
    lockstep), which exercises splits, inheritance, and postdiction.
    """

    def visit(state, depth: int) -> None:
        tally["states"] += 1
        _CHECKED["states"] += 1
        if state.inconsistent:
            # sound only when some branch's observations are impossible:
            # sensing split on a value the approximation could not rule
            # out, but that no world can actually produce
            tally["contradictions"] += 1
            if all(
                tqs_timeline(domain, branch_trace(state, bid))[0]
                for bid in state.branches
            ):
                tally["violations"].append(
                    "contradictory knowledge though every branch is realizable"
                )
            return
        report = soundness_check(state)
        tally["atoms"] += report.checked
        for violation in report.violations:
            tally["violations"].append(violation)
        if depth == 4:
            return
        for action in domain.actions:
            occurrences = {br: (action.name,) for br in state.branches}
            try:
                nxt = state.step(occurrences)
            except EngineError:
                tally["rejected"] += 1
                continue
            visit(nxt, depth + 1)

    visit(initial_state(domain, 4, 8, checks=True), 0)
    _CHECKED["criteria"].add(2)


def test_criterion_2_randomized_domains_are_sound():
    with criterion(2, "1000 seeded domains, all plans to depth 4, zero "
                      "soundness violations") as info:
        tally = {
            "states": 0,
            "atoms": 0,
            "violations": [],
            "rejected": 0,
            "contradictions": 0,
        }
        for i in range(1000):
            domain = _random_domain(random.Random(774000 + i))
            assert validate_domain(domain).ok
            _walk_all_plans(domain, tally)
        assert not tally["violations"], tally["violations"][:5]
        assert tally["states"] > 10000  # the walk really went somewhere
        info["detail"] = (
            f"{tally['states']} states, {tally['atoms']} atoms checked, "
            f"{tally['rejected']} rejected steps, "
            f"{tally['contradictions']} impossible-observation dead ends"
        )


# -- criterion 3: postdiction blames a unique cause, never an ambiguous one --


def _one_door_domain() -> PlanningDomain:
    return PlanningDomain(
        fluents=("in", "open_1"),
        actions=(
            Action(
                "drive_1",
                effect_props=(
                    EffectProposition("drive_1_1", pos("in"), (pos("open_1"),)),
                ),
            ),
            Action("sense_in", knowledge_props=(KnowledgeProposition("in"),)),
        ),
        init=(neg("in"),),
    )


def test_criterion_3_ambiguous_versus_unique_postdiction():
    with criterion(3, "two-door run learns no door state; one-door run "
                      "postdicts the door") as info:
        # two doors: either drive could have let the agent in
        dom2 = two_door_domain()
        state = _checked_state(dom2, 3, 1, crit=3)
        state = state.step({0: ("drive_1",)})
        state = state.step({0: ("drive_2",)})
        state = state.step({0: ("sense_in",)})
        assert state.knows(pos("in"), 2, 0)
        assert state.knows(pos("in"), 3, 0)
        for t1 in range(4):
            assert not state.knows(pos("open_1"), 0, 0, t1)
            assert not state.knows(pos("open_2"), 0, 0, t1)
        sound = soundness_check(state)
        assert not sound.violations, sound.violations
        # and the worlds agree the doors are genuinely undetermined
        trace = branch_trace(state, 0)
        assert tqs_entails(dom2, trace, pos("in"), 2)
        assert not tqs_entails(dom2, trace, pos("open_1"), 0)
        assert not tqs_entails(dom2, trace, pos("open_2"), 0)

        # one door: the only possible cause is blamed in hindsight
        dom1 = _one_door_domain()
        state = _checked_state(dom1, 2, 1, crit=3)
        state = state.step({0: ("drive_1",)})
        state = state.step({0: ("sense_in",)})
        assert state.knows(pos("open_1"), 0, 0)
        sound = soundness_check(state)
        assert not sound.violations, sound.violations
        assert tqs_entails(dom1, branch_trace(state, 0), pos("open_1"), 0)
        info["detail"] = "oracle agrees on both variants"


# -- criterion 4: concurrent sensing of a cause at its trigger step ----------


def test_criterion_4_concurrent_shot_with_simultaneous_listening():
    with criterion(4, "concurrent shoot+listen: bang branch knows the load "
                      "and the death") as info:
        domain = yale_goal_domain()
        plan = find_plan(domain, 2, 1, concurrent=True, checks=True)
        _CHECKED["states"] += 1
        _CHECKED["criteria"].add(4)
        assert isinstance(plan, Step)
        assert plan.actions == ("sense_bang", "shoot")
        assert plan.sensed == "loaded"
        report = _checked_verify(domain, plan, 2, 1, crit=4)
        assert report.plan_found
        state = report.state
        # branch 0 heard the bang: the gun was loaded when it fired,
        # so the victim is known dead one step later
        assert state.knows(pos("loaded"), 0, 0)
        assert state.knows(neg("alive"), 1, 0)
        # branch 1 heard nothing: no death is ever known
        assert state.knows(neg("loaded"), 0, 1)
        assert not state.knows(neg("alive"), 1, 1)
        sound = soundness_check(state)
        assert not sound.violations, sound.violations
        trace = branch_trace(state, 0)
        assert tqs_entails(domain, trace, pos("loaded"), 0)
        assert tqs_entails(domain, trace, neg("alive"), 1)
        info["detail"] = "oracle entails both atoms on the bang branch"


# -- criterion 5: benchmark families solve and verify -------------------------


def test_criterion_5_benchmarks_solve_and_pass_the_oracle():
    with criterion(5, "bomb(4)/rings(2)/sickness(4) verified with zero "
                      "oracle violations") as info:
        rows = []
        for family, make, n in (
            ("bomb", generate_bomb, 4),
            ("rings", generate_rings, 2),
            ("sickness", generate_sickness, 4),
        ):
            bounds = benchmark_bounds(family, n)
            domain = make(n)
            started = time.perf_counter()
            plan = find_plan(domain, *bounds, checks=True)
            wall = time.perf_counter() - started
            _CHECKED["states"] += 1
            _CHECKED["criteria"].add(5)
            assert plan is not None, f"{family}({n}) unsolved at {bounds}"
            report = _checked_verify(domain, plan, *bounds, crit=5)
            assert report.plan_found
            assert len(domain.fluents) <= 16
            sound = soundness_check(report.state)
            assert not sound.violations, (family, sound.violations)
            rows.append(
                f"{family}({n}): occ={count_occurrences(plan)} "
                f"atoms={sound.checked} {wall * 1000:.0f}ms"
            )
        # the runtime table is reported, never asserted
        info["detail"] = "; ".join(rows)


# -- criterion 6: frozen program emission and the rule-count law --------------


def test_criterion_6_golden_emission_and_rule_count_law():
    with criterion(6, "byte-exact golden program; template counts follow "
                      "the domain shape") as info:
        domain = door_domain()
        golden = open(f"{DATA_DIR}/smarthome_program.lp", encoding="utf-8").read()
        assert emit_program(domain, 4, 1) == golden
        for dom in (domain, generate_sickness(3), generate_bomb(3)):
            instances = emit_domain_rules(dom)
            by_id: dict[str, int] = {}
            for inst in instances:
                by_id[inst.template_id] = by_id.get(inst.template_id, 0) + 1
            eps = [ep for a in dom.actions for ep in a.effect_props]
            conds = sum(len(ep.conditions) for ep in eps)
            assert by_id.get("T6a", 0) == len(eps)
            assert by_id.get("T6b", 0) == conds
            assert by_id.get("T6c", 0) == conds
            assert by_id.get("T2", 0) == len(dom.init)
        info["detail"] = f"golden is {len(golden)} bytes"


# -- criterion 7: the optimum matches exhaustive enumeration ------------------


def _exhaustive_minimum(domain: PlanningDomain, max_steps: int,
                        max_branches: int, upper: int | None) -> int | None:
    """Fewest occurrences over ALL branch-wise action assignments.

    Independent of the planner: plain depth-first product enumeration
    over per-branch choices at a fixed horizon, with branch-and-bound
    on the occurrence count.  Goals are judged exactly as verify_plan
    judges them: at the final horizon, weak on some branch, strong on
    every branch.
    """
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

    explore(initial_state(domain, max_steps, max_branches, checks=True), 0)
    return best


def test_criterion_7_optimal_search_matches_brute_force():
    with criterion(7, "fewest-occurrence search equals exhaustive minimum "
                      "on seeded domains") as info:
        compared = solved = 0
        for i in range(1000):  # the same seeds criterion 2 walks
            seed = 774000 + i
            domain = _random_domain(random.Random(seed))
            first = find_plan(domain, 4, 2, checks=True)
            upper = None if first is None else count_occurrences(first)
            ground_truth = _exhaustive_minimum(domain, 4, 2, upper)
            optimal = find_optimal_plan(domain, 4, 2, checks=True)
            compared += 1
            if ground_truth is None:
                assert optimal is None, f"seed {seed}: planner found a plan "\
                                        "where enumeration found none"
            else:
                assert optimal is not None, f"seed {seed}: planner missed "\
                                            f"a {ground_truth}-occurrence plan"
                assert count_occurrences(optimal) == ground_truth, (
                    f"seed {seed}: planner {count_occurrences(optimal)} "
                    f"vs enumeration {ground_truth}"
                )
                solved += 1
        info["detail"] = f"{compared} domains, {solved} solvable"


# -- criterion 8: growth stays polynomial, degree <= 3 ------------------------


def _loglog_slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def test_criterion_8_growth_is_polynomial_cubic_at_most():
    with criterion(8, "disarming 2..8: knowledge atoms and ground-rule "
                      "counts grow at degree <= 3") as info:
        sizes = range(2, 9)
        atom_totals = []
        ground_totals = []
        walls = []
        for n in sizes:
            domain = generate_bomb(n)
            started = time.perf_counter()
            plan = find_plan(domain, n, 0, deepen=False)
            walls.append(time.perf_counter() - started)
            assert plan is not None
            # measure on the canonical dunk-everything replay
            chain = Leaf()
            for i in range(n, 0, -1):
                chain = Step((f"dunk_{i}",), on_true=chain)
            report = verify_plan(domain, chain, n, 0, checks=True)
            assert report.plan_found
            atom_totals.append(sum(1 for _ in report.state.knows_atoms()))
            instances = emit_foundational_theory(n, 0) + emit_domain_rules(domain)
            ground_totals.append(ground_instance_count(instances, domain, n, 0))
        atom_slope = _loglog_slope(sizes, atom_totals)
        ground_slope = _loglog_slope(sizes, ground_totals)
        assert atom_slope <= 3.2, f"knowledge atoms grow at degree {atom_slope:.2f}"
        assert ground_slope <= 3.2, f"ground rules grow at degree {ground_slope:.2f}"
        longest = max(walls)
        info["detail"] = (
            f"slopes {atom_slope:.2f}/{ground_slope:.2f}, "
            f"solve walls <= {longest * 1000:.0f}ms (reported only)"
        )


# -- criterion 9: assertion-checked builds covered every scenario -------------


def test_criterion_9_invariants_held_on_every_checked_state():
    with criterion(9, "assertion-checked builds ran under criteria 1-5; "
                      "invariants spot-checked") as info:
        # every state built by criteria 1-5 carried checks=True, so the
        # engine asserted idempotence, monotonicity, layer shape, and
        # branch-tree/inheritance invariants at every step
        assert _CHECKED["criteria"] >= {1, 2, 3, 4, 5}
        assert _CHECKED["states"] > 1000
        # independent spot check on a fresh split-heavy run
        state = initial_state(generate_sickness(3), 4, 2, checks=True)
        state = state.step({0: ("dip",)})
        state = state.step({0: ("sense_color_1",)})
        state = state.step({br: ("sense_color_2",) for br in (0, 1)})
        for bid, branch in state.branches.items():
            for t1 in range(state.horizon + 1):
                row = branch.layer(t1)
                assert len(row) == t1 + 1  # nothing is known about the future
            for t1 in range(state.horizon):
                for t in range(t1 + 1):
                    old = branch.layer(t1)[t]
                    assert old & ~branch.layer(t1 + 1)[t] == 0
            if branch.parent is not None:
                assert branch.parent < bid
        # only the color_1-negative timeline splits again: on the positive
        # one, postdiction pinned disease_1, so color_2 is already known
        # false and the second test has a known outcome
        assert [
            (b.parent, bid, b.timeline.chain()[b.created_at + 1].observation[0])
            for bid, b in sorted(state.branches.items())
            if b.parent is not None
        ] == [
            (0, 1, "color_1"),
            (1, 2, "color_2"),
        ]
        assert state.knows(pos("disease_1"), 0, 0)
        assert state.knows(neg("color_2"), 2, 0)
        info["detail"] = f"{_CHECKED['states']} checked states across criteria"
