"""World-semantics oracle: frozen hand-worked cases.

Expected values here were derived on paper by enumerating worlds, so
they are independent of any engine code.
"""

from __future__ import annotations

import copy
import dataclasses
import random

import pytest
from test_acceptance import _random_domain
from test_cli import LADDER_DIGESTS, _ladder_text

from hindsight import oracle
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
    KnowledgeProposition,
    Literal,
    OneofConstraint,
    PlanningDomain,
    neg,
    pos,
)
from hindsight.oracle import (
    MAX_ORACLE_FLUENTS,
    OracleCapacityError,
    SoundnessReport,
    TraceStep,
    apply_step,
    branch_trace,
    entails,
    initial_sigma,
    result_state,
    soundness_check,
    tqs_entails,
    tqs_timeline,
)
from hindsight.parser import parse_domain
from hindsight.search import find_plan, verify_plan


def two_door_domain() -> PlanningDomain:
    """Drive into the room through either of two doors of unknown state."""
    return PlanningDomain(
        fluents=("in", "open_1", "open_2"),
        actions=(
            Action("drive_1", effect_props=(EffectProposition("drive_1_1", pos("in"), (pos("open_1"),)),)),
            Action("drive_2", effect_props=(EffectProposition("drive_2_1", pos("in"), (pos("open_2"),)),)),
            Action("sense_in", knowledge_props=(KnowledgeProposition("in"),)),
        ),
        init=(neg("in"),),
    )


def yale_domain() -> PlanningDomain:
    """Shooting may kill, depending on an unknown load; the bang reveals it."""
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
    )


def test_initial_sigma_respects_init_literals():
    sigma = initial_sigma(two_door_domain())
    assert sigma == frozenset(
        {
            frozenset(),
            frozenset({"open_1"}),
            frozenset({"open_2"}),
            frozenset({"open_1", "open_2"}),
        }
    )


def test_initial_sigma_respects_oneof_exactly_one():
    d = PlanningDomain(
        fluents=("a", "b", "c"),
        oneofs=(OneofConstraint((pos("a"), pos("b"))),),
        init=(neg("c"),),
    )
    assert initial_sigma(d) == frozenset({frozenset({"a"}), frozenset({"b"})})


def test_initial_sigma_capacity_cap():
    d = PlanningDomain(fluents=tuple(f"f{i}" for i in range(MAX_ORACLE_FLUENTS + 1)))
    with pytest.raises(OracleCapacityError):
        initial_sigma(d)


def test_result_state_reads_conditions_on_the_pre_state():
    d = PlanningDomain(
        fluents=("f", "g"),
        actions=(
            Action("mk_f", effect_props=(EffectProposition("mk_f_1", pos("f")),)),
            Action("chain", effect_props=(EffectProposition("chain_1", pos("g"), (pos("f"),)),)),
        ),
    )
    # simultaneous execution must not chain within the step
    assert result_state(d, frozenset(), ("mk_f", "chain")) == frozenset({"f"})
    assert result_state(d, frozenset({"f"}), ("chain",)) == frozenset({"f", "g"})


def test_result_state_is_identity_for_sensing():
    d = yale_domain()
    w = frozenset({"alive", "loaded"})
    assert result_state(d, w, ("sense_bang",)) == w


def test_apply_step_filters_on_pre_state_then_applies_effects():
    d = yale_domain()
    sigma = initial_sigma(d)
    assert sigma == frozenset({frozenset({"alive"}), frozenset({"alive", "loaded"})})
    # pointwise physical step, no observation
    assert apply_step(d, sigma, TraceStep(("shoot",))) == frozenset(
        {frozenset({"alive"}), frozenset()}
    )
    # concurrent shoot+sense: the bang reports the pre-state load
    out = apply_step(d, sigma, TraceStep(("shoot", "sense_bang"), (("loaded", True),)))
    assert out == frozenset({frozenset()})


def test_entails_requires_agreement_and_rejects_empty():
    sigma = frozenset({frozenset({"a"}), frozenset({"a", "b"})})
    assert entails(sigma, pos("a"))
    assert not entails(sigma, pos("b"))
    assert not entails(sigma, neg("b"))
    with pytest.raises(ValueError):
        entails(frozenset(), pos("a"))


def test_two_door_trace_leaves_door_states_unknown():
    d = two_door_domain()
    steps = (
        TraceStep(("drive_1",)),
        TraceStep(("drive_2",)),
        TraceStep(("sense_in",), (("in", True),)),
    )
    # only the all-closed world dies; either door may have been the way in
    assert not tqs_entails(d, steps, pos("open_1"), 0)
    assert not tqs_entails(d, steps, neg("open_1"), 0)
    assert not tqs_entails(d, steps, pos("open_2"), 0)
    assert tqs_entails(d, steps, pos("in"), 3)
    assert tqs_entails(d, steps, pos("in"), 2)
    assert tqs_entails(d, steps, neg("in"), 0)


def test_one_door_trace_postdicts_the_door():
    d = two_door_domain()
    steps = (
        TraceStep(("drive_1",)),
        TraceStep(("sense_in",), (("in", True),)),
    )
    assert tqs_entails(d, steps, pos("open_1"), 0)
    assert not tqs_entails(d, steps, pos("open_2"), 0)
    assert tqs_entails(d, steps, pos("in"), 1)


def test_yale_concurrent_shot_reveals_the_load_and_the_kill():
    d = yale_domain()
    steps = (TraceStep(("shoot", "sense_bang"), (("loaded", True),)),)
    assert tqs_entails(d, steps, pos("loaded"), 0)
    assert tqs_entails(d, steps, neg("alive"), 1)
    assert tqs_entails(d, steps, neg("loaded"), 1)
    assert tqs_entails(d, steps, pos("alive"), 0)


def test_yale_sequential_sensing_after_the_shot_reveals_nothing_old():
    d = yale_domain()
    steps = (
        TraceStep(("shoot",)),
        TraceStep(("sense_bang",), (("loaded", False),)),
    )
    # both initial worlds survive: the gun is unloaded after shooting either way
    assert not tqs_entails(d, steps, pos("loaded"), 0)
    assert not tqs_entails(d, steps, neg("loaded"), 0)
    assert tqs_entails(d, steps, neg("loaded"), 1)
    assert not tqs_entails(d, steps, pos("alive"), 2)
    assert not tqs_entails(d, steps, neg("alive"), 2)


def test_contradictory_observations_empty_every_stage():
    d = yale_domain()
    steps = (
        TraceStep(("sense_bang",), (("loaded", True),)),
        TraceStep(("sense_bang",), (("loaded", False),)),
    )
    assert tqs_timeline(d, steps) == (frozenset(), frozenset(), frozenset())


def test_tqs_rejects_out_of_range_query_times():
    d = yale_domain()
    with pytest.raises(ValueError):
        tqs_entails(d, (), pos("alive"), 1)
    assert tqs_entails(d, (), pos("alive"), 0)


def _brute_force_sigma(domain: PlanningDomain) -> frozenset:
    """Filter all 2^n fluent assignments by the init and oneof constraints."""
    worlds = set()
    for bits in range(1 << len(domain.fluents)):
        world = frozenset(f for k, f in enumerate(domain.fluents) if bits >> k & 1)

        def holds(lit):
            return (lit.fluent in world) == lit.positive

        if all(map(holds, domain.init)) and all(
            sum(map(holds, oo.literals)) == 1 for oo in domain.oneofs
        ):
            worlds.add(world)
    return frozenset(worlds)


def _tangled_oneof_domains() -> list[PlanningDomain]:
    """Oneof groups with negative members, members fixed by init, groups
    sharing fluents, and choices that contradict each other."""
    fluents = ("a", "b", "c", "d")
    return [
        PlanningDomain(fluents=fluents, oneofs=(OneofConstraint((neg("a"), pos("b"), pos("c"))),)),
        PlanningDomain(
            fluents=fluents,
            init=(pos("b"),),
            oneofs=(OneofConstraint((pos("a"), pos("b"), neg("c"))),),
        ),
        PlanningDomain(
            fluents=fluents,
            oneofs=(
                OneofConstraint((pos("a"), pos("b"))),
                OneofConstraint((pos("b"), neg("c"), pos("d"))),
            ),
        ),
        # choosing b makes both a and -a false: only a/-a choices remain
        PlanningDomain(fluents=fluents, oneofs=(OneofConstraint((pos("a"), neg("a"), pos("b"))),)),
        # the second group cannot be met once the first picks a or b
        PlanningDomain(
            fluents=fluents,
            oneofs=(
                OneofConstraint((pos("a"), pos("b"))),
                OneofConstraint((neg("a"), neg("b"))),
                OneofConstraint((pos("c"), pos("d"))),
            ),
        ),
        PlanningDomain(fluents=fluents, init=(pos("a"), neg("a"))),
    ]


def test_enumerated_initial_worlds_equal_a_brute_force_filter():
    from test_acceptance import _random_domain

    domains = [_random_domain(random.Random(774000 + i)) for i in range(1000)]
    domains += [generate_bomb(n) for n in (1, 2, 5, 12)]
    domains += [generate_rings(2)]
    domains += [generate_sickness(n) for n in (2, 4, 6)]
    domains += _tangled_oneof_domains()
    for domain in domains:
        assert len(domain.fluents) <= 12
        assert initial_sigma(domain) == _brute_force_sigma(domain), domain


@pytest.mark.parametrize(
    "family, n, worlds",
    [("sickness", 9, 9), ("rings", 4, 256)],
    ids=["sickness(9)", "rings(4)"],
)
def test_cap_counts_initial_worlds_not_fluents(family, n, worlds):
    domain = {"sickness": generate_sickness, "rings": generate_rings}[family](n)
    assert len(domain.fluents) > MAX_ORACLE_FLUENTS
    assert len(initial_sigma(domain)) == worlds
    report = soundness_check(initial_state(domain, *benchmark_bounds(family, n)))
    assert report.ok
    assert report.checked > 0


def test_cap_is_reached_at_2_to_the_16_initial_worlds():
    def pairs(n):
        fluents = tuple(f"f{i}" for i in range(2 * n))
        groups = tuple(
            OneofConstraint((pos(fluents[2 * i]), pos(fluents[2 * i + 1]))) for i in range(n)
        )
        return PlanningDomain(fluents=fluents, oneofs=groups)

    assert len(initial_sigma(pairs(MAX_ORACLE_FLUENTS))) == 2**MAX_ORACLE_FLUENTS
    with pytest.raises(OracleCapacityError):
        initial_sigma(pairs(MAX_ORACLE_FLUENTS + 1))


def test_cap_is_reached_with_more_oneof_groups_than_the_recursion_limit():
    n = 1200
    fluents = tuple(f"f{i}" for i in range(2 * n))
    groups = tuple(
        OneofConstraint((pos(fluents[2 * i]), pos(fluents[2 * i + 1]))) for i in range(n)
    )
    with pytest.raises(OracleCapacityError):
        initial_sigma(PlanningDomain(fluents=fluents, oneofs=groups))


def test_cap_is_reached_by_a_oneof_walk_that_finds_no_world():
    # no choice meets all three triangle groups, and the walk refutes
    # each choice of the 40 pairs before them only at the triangle
    def domain(n):
        pairs = [OneofConstraint((pos(f"a{i}"), pos(f"b{i}"))) for i in range(n)]
        triangle = [OneofConstraint((pos(x), pos(y))) for x, y in ("cd", "ce", "de")]
        fluents = tuple(f"{x}{i}" for i in range(n) for x in "ab") + tuple("cde")
        return PlanningDomain(fluents=fluents, oneofs=tuple(pairs + triangle))

    assert initial_sigma(domain(0)) == frozenset()
    with pytest.raises(OracleCapacityError, match="partial oneof choices"):
        initial_sigma(domain(40))


def coin_domain() -> PlanningDomain:
    """Four tosses, one per case of d and e, so heads is certain after
    all four; a look reads it.

    Every toss has two unknown conditions, so the engine can neither
    fire one nor blame one, and a look splits off a tails branch that
    no world realises.
    """
    cases = [(pos("d"), pos("e")), (pos("d"), neg("e")), (neg("d"), pos("e")), (neg("d"), neg("e"))]
    return PlanningDomain(
        fluents=("d", "e", "heads"),
        actions=tuple(
            Action(f"toss{i}", effect_props=(EffectProposition(f"toss{i}_1", pos("heads"), case),))
            for i, case in enumerate(cases, start=1)
        )
        + (Action("look", knowledge_props=(KnowledgeProposition("heads"),)),),
        init=(neg("heads"),),
    )


def test_soundness_check_reports_a_false_claim_and_a_vacuous_branch():
    state = initial_state(coin_domain(), 5, 1)
    for action in ("toss1", "toss2", "toss3", "toss4", "look"):
        state = state.step({0: (action,)})
    assert sorted(state.branches) == [0, 1] and not state.inconsistent
    honest = soundness_check(state)
    assert honest.ok
    assert honest.vacuous_branches == (1,)

    # branch 0 now claims d held initially; d is free in every world
    planted = copy.copy(state.branches[0].timeline)
    planted.layer = (planted.layer[0] | 1 << state.compiled.bit(pos("d")),) + planted.layer[1:]
    state.branches[0].timeline = planted
    report = soundness_check(state)
    assert report.checked == honest.checked + 1
    assert report.violations == (
        "branch 0: claims d at time 0, "
        "but worlds [[], ['d'], ['d', 'e'], ['e']] disagree",
    )
    assert report.vacuous_branches == (1,)


# -- the survivor table against a from-scratch replay ------------------------


def _reference_histories(domain: PlanningDomain, steps) -> list[tuple[int, ...]]:
    """The history (its state at times 0..t) of every initial world that
    survives the trace, replayed one world at a time and in the order of
    the enumerated initial worlds.  A state is an int whose bit k is
    fluent k; nothing here uses the oracle's columns."""
    index = {f: k for k, f in enumerate(domain.fluents)}
    actions = {a.name: a for a in domain.actions}

    def holds(state: int, fluent: str) -> bool:
        return bool(state >> index[fluent] & 1)

    def result(state: int, names) -> int:
        adds = dels = 0
        for name in names:
            for ep in actions[name].effect_props:
                if all(holds(state, c.fluent) == c.positive for c in ep.conditions):
                    if ep.effect.positive:
                        adds |= 1 << index[ep.effect.fluent]
                    else:
                        dels |= 1 << index[ep.effect.fluent]
        return (state | adds) & ~dels

    histories = [(w0,) for w0 in oracle._compiled(domain).initial]
    for step in steps:
        histories = [
            h + (result(h[-1], step.actions),)
            for h in histories
            if all(holds(h[-1], f) == value for f, value in step.observations)
        ]
    return histories


def _reference_report(state) -> SoundnessReport:
    """soundness_check as it was before the survivor table: every branch
    replays every initial world from time zero, and every claimed
    literal is tested world by world."""
    fluents = state.domain.fluents
    checked = 0
    violations: list[str] = []
    vacuous: list[int] = []
    for br in sorted(state.branches):
        histories = _reference_histories(state.domain, branch_trace(state, br))
        if not histories:
            vacuous.append(br)
            continue
        for t in range(state.horizon + 1):
            at_t = {history[t] for history in histories}
            for lit in sorted(state.known_literals(br, t)):
                checked += 1
                bit = 1 << fluents.index(lit.fluent)
                if any(bool(w & bit) != lit.positive for w in at_t):
                    shown = sorted(sorted(f for k, f in enumerate(fluents) if w >> k & 1) for w in at_t)
                    violations.append(
                        f"branch {br}: claims {lit} at time {t}, but worlds {shown} disagree"
                    )
    return SoundnessReport(checked, tuple(violations), tuple(vacuous))


def _reference_timeline(domain: PlanningDomain, steps) -> tuple:
    """tqs_timeline from the per-world replay."""
    fluents = domain.fluents
    histories = _reference_histories(domain, steps)
    return tuple(
        frozenset(frozenset(f for k, f in enumerate(fluents) if h[t] >> k & 1) for h in histories)
        for t in range(len(steps) + 1)
    )


def _assert_matches_reference(state) -> None:
    assert soundness_check(state) == _reference_report(state)


def _walk_states(domain: PlanningDomain) -> list:
    """Criterion 2's lockstep walk: its consistent states in DFS order."""
    states = []

    def visit(state, depth: int) -> None:
        if state.inconsistent:
            return
        states.append(state)
        if depth == 4:
            return
        for action in domain.actions:
            try:
                nxt = state.step({br: (action.name,) for br in state.branches})
            except EngineError:
                continue
            visit(nxt, depth + 1)

    visit(initial_state(domain, 4, 8), 0)
    return states


@pytest.fixture(scope="module")
def walked() -> list[list]:
    """The walk states of the first 200 criterion-2 domains, per domain."""
    return [_walk_states(_random_domain(random.Random(774000 + i))) for i in range(200)]


def test_survivor_table_matches_a_replay_from_time_zero_in_dfs_order(walked):
    splits = 0
    for states in walked:
        for state in states:
            _assert_matches_reference(state)
            splits += len(state.branches) > 1
    assert splits > 100  # the walk reaches both sides of many splits


def test_survivor_table_matches_a_replay_from_time_zero_in_reverse_order(walked):
    for states in walked:
        for state in reversed(states):
            _assert_matches_reference(state)


def _two_longest(walked) -> tuple[list, list]:
    second, longest = sorted(walked, key=len)[-2:]
    return longest, second


def test_survivor_table_matches_a_replay_with_two_domains_interleaved(walked):
    a, b = _two_longest(walked)
    assert len(b) > 50
    half = len(a) // 2
    for state in a[:half] + b + a[half:]:
        _assert_matches_reference(state)
    for pair in zip(a, b):
        for state in pair:
            _assert_matches_reference(state)


@pytest.mark.parametrize("rung", list(LADDER_DIGESTS))
def test_survivor_table_matches_a_replay_on_every_ladder_rung(rung):
    text, bounds = _ladder_text(rung)
    domain = parse_domain(text)
    state = verify_plan(domain, find_plan(domain, *bounds), *bounds).state
    reference = _reference_report(state)
    assert reference.ok and reference.checked > 0
    # from time zero, then from the table
    assert soundness_check(state) == reference
    assert soundness_check(state) == reference


def test_survivor_table_matches_a_replay_on_the_coin_domain():
    state = initial_state(coin_domain(), 5, 1)
    for action in ("toss1", "toss2", "toss3", "toss4", "look"):
        state = state.step({0: (action,)})
        _assert_matches_reference(state)
    assert soundness_check(state).vacuous_branches == (1,)

    planted = copy.copy(state.branches[0].timeline)
    planted.layer = (planted.layer[0] | 1 << state.compiled.bit(pos("d")),) + planted.layer[1:]
    state.branches[0].timeline = planted
    report = soundness_check(state)
    assert report == _reference_report(state)
    assert report.vacuous_branches == (1,)
    assert report.violations[0].startswith("branch 0: claims d at time 0")


def test_survivor_table_keeps_to_its_bound_and_is_dropped_with_its_domain(monkeypatch, walked):
    monkeypatch.setattr(oracle, "MAX_SURVIVOR_ENTRIES", 3)
    a, b = _two_longest(walked)
    assert len(a) > 10 * oracle.MAX_SURVIVOR_ENTRIES
    for state in a:
        _assert_matches_reference(state)
        worlds = oracle._compiled(state.domain)
        assert 0 < len(worlds.survivors) <= 3
        assert len(worlds.link_steps) <= 3

    def domains_in_table() -> set:
        return {timeline.compiled.domain for timeline, _ in oracle._last.survivors.values()}

    assert domains_in_table() == {a[0].domain}
    soundness_check(b[-1])
    assert domains_in_table() == {b[0].domain}
    soundness_check(a[-1])
    # only the branches just checked, each replayed from time zero
    assert [timeline for timeline, _ in oracle._last.survivors.values()] == [
        a[-1].branches[br].timeline for br in sorted(a[-1].branches)
    ]


# -- the column core at larger sizes ------------------------------------------


def _start_domains() -> list[PlanningDomain]:
    domains = [_random_domain(random.Random(774000 + i)) for i in range(1000)]
    domains += [generate_rings(n) for n in (2, 3, 4, 5, 6)]
    domains += [generate_bomb(n) for n in (1, 2, 5, 12)]
    domains += [generate_sickness(n) for n in (2, 4, 6, 9)]
    domains += _tangled_oneof_domains()
    domains += [_oneof_domain(random.Random(9100 + i)) for i in range(40)]
    return domains


def test_time_zero_columns_decode_to_the_initial_worlds_in_order():
    for domain in _start_domains():
        worlds = oracle._compiled(domain)
        initial = worlds.initial
        start = worlds.start
        assert len(start) == len(domain.fluents)
        # no column holds a bit past the last world
        assert all(0 <= column < 1 << len(initial) for column in start), domain
        decoded = [
            sum(1 << k for k, column in enumerate(start) if column >> i & 1)
            for i in range(len(initial))
        ]
        assert decoded == list(initial), domain
        assert frozenset(map(worlds.decode, decoded)) == initial_sigma(domain)


def test_the_column_core_matches_the_per_world_replay_on_rings_6():
    domain = generate_rings(6)
    bounds = benchmark_bounds("rings", 6)
    # the assertion-checked search takes minutes here, and is not under test
    plan = find_plan(domain, *bounds, checks=False)
    state = verify_plan(domain, plan, *bounds, checks=False).state
    assert len(initial_sigma(domain)) == 4096
    reference = _reference_report(state)
    assert reference.ok and reference.checked == 432
    assert soundness_check(state) == reference
    trace = branch_trace(state, 0)
    assert len(trace) == state.horizon == 17
    assert tqs_timeline(domain, trace) == _reference_timeline(domain, trace)


def _oneof_domain(rng: random.Random) -> PlanningDomain:
    """6–10 fluents; 2–3 oneof groups of 2–3 members, some negative, that
    may share fluents and contradict each other; init literals on half
    the fluents no group names; physical actions with 1–3 effects of up
    to two conditions each; and two sensors."""
    fluents = tuple(f"f{i}" for i in range(rng.randint(6, 10)))
    groups = tuple(
        OneofConstraint(
            tuple(Literal(f, rng.random() < 0.8) for f in rng.sample(fluents, rng.randint(2, 3)))
        )
        for _ in range(rng.randint(2, 3))
    )
    named = {lit.fluent for group in groups for lit in group.literals}
    rest = [f for f in fluents if f not in named]
    init = tuple(Literal(f, rng.random() < 0.5) for f in rng.sample(rest, len(rest) // 2))
    actions = [
        Action(
            f"a{i}",
            effect_props=tuple(
                EffectProposition(
                    f"a{i}_{j}",
                    Literal(rng.choice(fluents), rng.random() < 0.5),
                    tuple(Literal(f, rng.random() < 0.5) for f in rng.sample(fluents, rng.randint(0, 2))),
                )
                for j in range(rng.randint(1, 3))
            ),
        )
        for i in range(rng.randint(3, 5))
    ]
    actions += [
        Action(f"s{i}", knowledge_props=(KnowledgeProposition(f),))
        for i, f in enumerate(rng.sample(fluents, 2))
    ]
    return PlanningDomain(fluents=fluents, actions=tuple(actions), init=init, oneofs=groups)


def _concurrent_walk(domain: PlanningDomain, rng: random.Random) -> list:
    """The states of a random walk to depth 4 in DFS order, three
    successors per state, where each branch takes its own one or two
    actions (a sensor among them or not) in every step."""
    names = [a.name for a in domain.actions]
    states = []

    def visit(state, depth: int) -> None:
        states.append(state)
        if state.inconsistent or depth == 4:
            return
        for _ in range(3):
            occurrences = {
                br: tuple(rng.sample(names, rng.randint(1, 2))) for br in state.branches
            }
            try:
                nxt = state.step(occurrences)
            except EngineError:
                continue
            visit(nxt, depth + 1)

    visit(initial_state(domain, 4, 8, checks=False), 0)
    return states


@pytest.fixture(scope="module")
def concurrent_walks() -> list[list]:
    """40 derandomized oneof domains, each with its concurrent walk."""
    return [
        _concurrent_walk(_oneof_domain(random.Random(9100 + i)), random.Random(9200 + i))
        for i in range(40)
    ]


def test_the_column_core_matches_the_per_world_replay_on_concurrent_oneof_walks(
    concurrent_walks,
):
    splits = concurrent = shrunk = 0
    for states in concurrent_walks:
        worlds = len(initial_sigma(states[0].domain))
        for state in states:
            for br in state.branches:
                trace = branch_trace(state, br)
                timeline = tqs_timeline(state.domain, trace)
                assert timeline == _reference_timeline(state.domain, trace)
                concurrent += any(len(step.actions) == 2 for step in trace)
                shrunk += 0 < len(_reference_histories(state.domain, trace)) < worlds
            if state.inconsistent:
                continue
            report = soundness_check(state)
            assert report == _reference_report(state)
            splits += len(state.branches) > 1
    assert splits > 1000 and concurrent > 2500 and shrunk > 2500
    # replayed the other way round, no parent was checked before its child
    for states in concurrent_walks:
        for state in reversed(states):
            if not state.inconsistent:
                assert soundness_check(state) == _reference_report(state)


def test_a_planted_claim_is_reported_as_the_per_world_replay_reports_it(concurrent_walks):
    """Each consistent state gets one extra claim on branch 0, a literal
    it does not claim, at a time and of a fluent drawn at random: the
    column core finds the same violations as the world-by-world test."""
    rng = random.Random(9300)
    wrong = 0
    for states in concurrent_walks:
        for state in states:
            if state.inconsistent:
                continue
            branch = state.branches[0]
            t = rng.randint(0, state.horizon)
            bit = rng.randrange(2 * len(state.domain.fluents))
            if branch.timeline.layer[t] >> bit & 1:
                continue
            planted = copy.copy(branch.timeline)
            planted.layer = tuple(row | (1 << bit if i == t else 0) for i, row in enumerate(planted.layer))
            variant = copy.copy(state)
            variant.branches = {**state.branches, 0: dataclasses.replace(branch, timeline=planted)}
            report = soundness_check(variant)
            assert report == _reference_report(variant)
            wrong += not report.ok
    assert wrong > 300
