"""Knowledge engine: stepping, branching, postdiction, cross-checked.

The door-narrative expectations were worked out by hand, rule by rule,
before the engine existed; the oracle cross-checks replay every branch
against exhaustive world enumeration.
"""

from __future__ import annotations

import copy
import hashlib
import pathlib
import random

import pytest

from hindsight.engine import (
    BranchBudgetError,
    ConcurrencyError,
    EngineError,
    ExecutabilityError,
    StepBudgetError,
    initial_state,
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
from hindsight.oracle import TraceStep, branch_trace, soundness_check
from hindsight.parser import parse_domain

DATA = pathlib.Path(__file__).parent / "data"


def door_domain() -> PlanningDomain:
    return parse_domain((DATA / "smarthome.hpx").read_text(encoding="utf-8"))


def two_door_domain() -> PlanningDomain:
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


def run_door_narrative():
    """open the door, sense whether it opened, drive in on the open side."""
    s = initial_state(door_domain(), max_steps=3, max_branches=1, checks=True)
    s = s.step({0: ["open_door"]})
    s = s.step({0: ["sense_open"]})
    s = s.step({0: ["drive"]})
    return s


def test_door_narrative_reproduces_the_worked_trace():
    s = run_door_narrative()
    atoms = set(s.all_atoms())
    expected = [
        "occ(open_door,0,0)",
        "kNotInit(in_liv,0,0,0)",
        "knows(-in_liv,0,1,0)",
        "knows(-in_liv,1,1,0)",
        "occ(sense_open,1,0)",
        "sOcc(1,0)",
        "sRes(open,1,0)",
        "nextBr(1,0,1)",
        "sRes(-open,1,1)",
        "knows(-open,1,2,1)",
        "knows(ab_open,0,2,1)",   # failed opening exposes the abnormality
        "knows(open,1,2,0)",
        "knows(-open,0,2,0)",
        "knows(-ab_open,0,2,0)",  # successful opening rules it out
        "occ(drive,2,0)",
        "knows(in_liv,3,3,0)",
        "apply(open_door_1,0,0)",
        "apply(open_door_1,0,1)",  # the split branch re-evaluates the shared past
        "uBr(0,0)",
        "uBr(2,1)",
    ]
    for atom in expected:
        assert atom in atoms, atom
    # the branch that found the door shut must not reach the room
    assert "knows(in_liv,3,3,1)" not in atoms
    # before sensing, the door state is open in neither direction
    assert "knows(open,1,1,0)" not in atoms
    assert "knows(-open,1,1,0)" not in atoms


def test_door_narrative_is_sound_against_world_semantics():
    report = soundness_check(run_door_narrative())
    assert report.ok, report.violations
    # three literals known about each of four time points, on two branches
    assert report.checked == 24
    assert report.vacuous_branches == ()


def test_door_branch_traces_reconstruct_both_timelines():
    s = run_door_narrative()
    assert branch_trace(s, 0) == (
        TraceStep(("open_door",)),
        TraceStep(("sense_open",), (("open", True),)),
        TraceStep(("drive",)),
    )
    assert branch_trace(s, 1) == (
        TraceStep(("open_door",)),
        TraceStep(("sense_open",), (("open", False),)),
        TraceStep(()),
    )


def test_two_door_entry_postdicts_neither_door():
    d = two_door_domain()
    s = initial_state(d, max_steps=3, max_branches=1, checks=True)
    s = s.step({0: ["drive_1"]})
    s = s.step({0: ["drive_2"]})
    s = s.step({0: ["sense_in"]})
    assert s.knows(pos("in"), 2, branch=0)
    assert s.knows(pos("in"), 3, branch=0)
    for lit in (pos("open_1"), neg("open_1"), pos("open_2"), neg("open_2")):
        for t in range(4):
            assert not s.knows(lit, t, branch=0), (lit, t)
    report = soundness_check(s)
    assert report.ok, report.violations


def test_one_door_entry_postdicts_the_door():
    d = two_door_domain()
    s = initial_state(d, max_steps=2, max_branches=1, checks=True)
    s = s.step({0: ["drive_1"]})
    s = s.step({0: ["sense_in"]})
    # success reveals the door was open all along
    assert s.knows(pos("open_1"), 0, branch=0)
    assert not s.knows(pos("open_2"), 0, branch=0)
    # failure reveals it was shut
    assert s.knows(neg("open_1"), 0, branch=1)
    report = soundness_check(s)
    assert report.ok, report.violations


def test_concurrent_shot_and_listen_reveal_the_load():
    d = yale_domain()
    s = initial_state(d, max_steps=1, max_branches=1, checks=True)
    s = s.step({0: ["shoot", "sense_bang"]})
    # bang branch: it was loaded, so the victim is gone
    assert s.knows(pos("loaded"), 0, branch=0)
    assert s.knows(neg("alive"), 1, branch=0)
    # silent branch: it was empty, so nothing changed
    assert s.knows(neg("loaded"), 0, branch=1)
    assert s.knows(pos("alive"), 1, branch=1)
    # unloading happened either way
    assert s.knows(neg("loaded"), 1, branch=0)
    assert s.knows(neg("loaded"), 1, branch=1)
    report = soundness_check(s)
    assert report.ok, report.violations


def test_listening_after_the_shot_reveals_nothing_about_the_past():
    d = yale_domain()
    s = initial_state(d, max_steps=2, max_branches=1, checks=True)
    s = s.step({0: ["shoot"]})
    assert s.knows(neg("loaded"), 1, branch=0)
    s = s.step({0: ["sense_bang"]})
    # the outcome was already known, so no branch and no new knowledge
    assert list(s.branches) == [0]
    assert not s.knows(pos("loaded"), 0, branch=0)
    assert not s.knows(neg("loaded"), 0, branch=0)
    assert not s.knows(pos("alive"), 2, branch=0)
    assert not s.knows(neg("alive"), 2, branch=0)
    assert soundness_check(s).ok


def test_oneof_closure_at_time_zero():
    d = PlanningDomain(
        fluents=("a", "b", "c"),
        oneofs=(OneofConstraint((pos("a"), pos("b"), pos("c"))),),
        init=(neg("a"), neg("b")),
    )
    s = initial_state(d, max_steps=1, max_branches=0, checks=True)
    # two alternatives ruled out: the third is concluded
    assert s.knows(pos("c"), 0, branch=0)
    assert soundness_check(s).ok


def test_oneof_elimination_through_sensing():
    d = PlanningDomain(
        fluents=("a", "b"),
        actions=(Action("look_a", knowledge_props=(KnowledgeProposition("a"),)),),
        oneofs=(OneofConstraint((pos("a"), pos("b"))),),
    )
    s = initial_state(d, max_steps=1, max_branches=1, checks=True)
    s = s.step({0: ["look_a"]})
    assert s.knows(neg("b"), 0, branch=0)  # a held, so b did not
    assert s.knows(pos("b"), 0, branch=1)  # a failed, so b held
    assert soundness_check(s).ok


def test_branches_stay_isolated_after_the_split():
    s = run_door_narrative()
    # the drive on branch 0 must not leak into branch 1, whose own
    # persistence keeps it outside the room
    assert s.knows(pos("in_liv"), 3, branch=0)
    assert not s.knows(pos("in_liv"), 3, branch=1)
    assert s.knows(neg("in_liv"), 3, branch=1)
    # branch 1 still knows the shared past
    assert s.knows(neg("in_liv"), 0, branch=1)


def test_executability_is_checked_against_knowledge():
    d = door_domain()
    s = initial_state(d, max_steps=2, max_branches=0, checks=True)
    with pytest.raises(ExecutabilityError):
        s.step({0: ["drive"]})


def test_step_budget_is_enforced():
    d = door_domain()
    s = initial_state(d, max_steps=1, max_branches=0, checks=True)
    s = s.step({0: ["open_door"]})
    with pytest.raises(StepBudgetError):
        s.step({0: ["open_door"]})


def test_branch_budget_is_enforced():
    d = door_domain()
    s = initial_state(d, max_steps=2, max_branches=0, checks=True)
    s = s.step({0: ["open_door"]})
    with pytest.raises(BranchBudgetError):
        s.step({0: ["sense_open"]})


def test_double_sensing_in_one_step_is_rejected():
    d = PlanningDomain(
        fluents=("a", "b"),
        actions=(
            Action("look_a", knowledge_props=(KnowledgeProposition("a"),)),
            Action("look_b", knowledge_props=(KnowledgeProposition("b"),)),
        ),
    )
    s = initial_state(d, max_steps=1, max_branches=3, checks=True)
    with pytest.raises(ConcurrencyError):
        s.step({0: ["look_a", "look_b"]})


def test_same_effect_twice_in_one_step_is_rejected():
    d = PlanningDomain(
        fluents=("f",),
        actions=(
            Action("mk1", effect_props=(EffectProposition("mk1_1", pos("f")),)),
            Action("mk2", effect_props=(EffectProposition("mk2_1", pos("f")),)),
        ),
    )
    s = initial_state(d, max_steps=1, max_branches=0, checks=True)
    with pytest.raises(ConcurrencyError):
        s.step({0: ["mk1", "mk2"]})


def test_opposite_effects_need_mutually_exclusive_conditions():
    clash = PlanningDomain(
        fluents=("f", "x"),
        actions=(
            Action("up", effect_props=(EffectProposition("up_1", pos("f")),)),
            Action("down", effect_props=(EffectProposition("down_1", neg("f")),)),
        ),
    )
    s = initial_state(clash, max_steps=1, max_branches=0, checks=True)
    with pytest.raises(ConcurrencyError):
        s.step({0: ["up", "down"]})

    guarded = PlanningDomain(
        fluents=("f", "x"),
        actions=(
            Action("up", effect_props=(EffectProposition("up_1", pos("f"), (neg("x"),)),)),
            Action("down", effect_props=(EffectProposition("down_1", neg("f"), (pos("x"),)),)),
        ),
        init=(pos("x"), neg("f")),
    )
    s = initial_state(guarded, max_steps=1, max_branches=0, checks=True)
    s = s.step({0: ["up", "down"]})
    assert s.knows(neg("f"), 1, branch=0)
    assert soundness_check(s).ok


def test_unknown_action_and_branch_are_engine_errors():
    s = initial_state(door_domain(), max_steps=2, max_branches=0, checks=True)
    with pytest.raises(EngineError):
        s.step({0: ["fly"]})
    with pytest.raises(EngineError):
        s.step({7: ["open_door"]})


def test_repeated_action_in_one_step_is_rejected():
    s = initial_state(door_domain(), max_steps=2, max_branches=0, checks=True)
    with pytest.raises(ConcurrencyError):
        s.step({0: ["open_door", "open_door"]})


def test_invalid_domain_is_rejected_at_state_creation():
    bad = PlanningDomain(fluents=("f",), init=(pos("f"), neg("f")))
    with pytest.raises(EngineError):
        initial_state(bad, max_steps=1, max_branches=0)


def test_stepping_does_not_mutate_the_original_state():
    s0 = initial_state(door_domain(), max_steps=2, max_branches=1, checks=True)
    before = s0.all_atoms()
    s0.step({0: ["open_door"]})
    assert s0.all_atoms() == before
    assert s0.horizon == 0


def test_checks_flag_reads_the_environment(monkeypatch):
    monkeypatch.setenv("HINDSIGHT_CHECK", "1")
    assert initial_state(door_domain(), 1, 0).checks
    monkeypatch.setenv("HINDSIGHT_CHECK", "0")
    assert not initial_state(door_domain(), 1, 0).checks
    monkeypatch.delenv("HINDSIGHT_CHECK")
    assert not initial_state(door_domain(), 1, 0).checks


def test_inconsistency_detector_trips_on_a_contradictory_row():
    s = initial_state(door_domain(), max_steps=1, max_branches=0, checks=False)
    bit = s.compiled.bit(pos("open"))
    planted = copy.copy(s.branches[0].timeline)
    planted.layer = (planted.layer[0] | (1 << bit) | (1 << (bit ^ 1)),)
    s.branches[0].timeline = planted
    assert s._scan_inconsistent()
    with pytest.raises(EngineError):
        s.inconsistent = True
        s.step({0: ["open_door"]})


def test_knowledge_is_monotone_across_evaluation_stages():
    s = run_door_narrative()
    for bid, b in s.branches.items():
        for t1 in range(s.horizon):
            for t in range(t1 + 1):
                assert b.layer(t1)[t] & ~b.layer(t1 + 1)[t] == 0, (bid, t, t1)


def test_a_child_knows_nothing_before_its_split_and_its_parents_rows_at_it():
    s = run_door_narrative()
    parent, child = s.branches[0], s.branches[1]
    assert (child.parent, child.created_at) == (0, 1)
    for t1 in range(child.created_at):
        for t in range(t1 + 1):
            claims = s.known_literals(0, t, t1)
            assert claims  # the parent knows the init literals
            assert s.known_literals(1, t, t1) == ()
            for lit in claims:
                assert s.knows(lit, t, 0, t1)
                assert not s.knows(lit, t, 1, t1)
    at = child.created_at
    assert child.layer(at) == parent.layer(at)
    for t in range(at + 1):
        assert s.known_literals(1, t, at) == s.known_literals(0, t, at)
    # the newest stage is the timeline's own layer
    assert child.layer(s.horizon) is child.timeline.layer


def test_negative_postdiction_never_blames_a_repeated_condition_alone():
    # a repeated condition counts among the "others" of its own copy, so
    # it is blamed only when every condition was known to hold
    def outcome(conditions):
        d = PlanningDomain(
            fluents=("in", "open"),
            actions=(
                Action("drive", effect_props=(EffectProposition("drive_1", pos("in"), conditions),)),
                Action("sense_in", knowledge_props=(KnowledgeProposition("in"),)),
            ),
            init=(neg("in"),),
        )
        s = initial_state(d, max_steps=2, max_branches=1, checks=True)
        s = s.step({0: ["drive"]}).step({0: ["sense_in"]})
        assert s.knows(pos("open"), 0, branch=0)
        return s.knows(neg("open"), 0, branch=1)

    assert outcome((pos("open"),))
    assert not outcome((pos("open"), pos("open")))


def test_checked_stepping_catches_a_forward_row_that_drops_causation(monkeypatch):
    from hindsight import engine

    def persistence_only(self, rules, row):
        # the one-pass row of a step that does not split, without causation
        return row & ~self.complement(engine._possibly_fired(rules, row))

    monkeypatch.setattr(engine.CompiledDomain, "forward_row", persistence_only)

    def narrative(checks):
        s = initial_state(door_domain(), max_steps=3, max_branches=1, checks=checks)
        return s.step({0: ["open_door"]}).step({0: ["sense_open"]}).step({0: ["drive"]})

    # unchecked, driving through the open door no longer gets anyone in ...
    assert not narrative(False).knows(pos("in_liv"), 3, 0)
    # ... and the checked build notices that the new row was not closed,
    # in step and in next_row, which never calls step
    with pytest.raises(AssertionError, match="does not split was not closed"):
        narrative(True)
    s = initial_state(door_domain(), max_steps=3, max_branches=1, checks=True)
    s = s.step({0: ["open_door"]}).step({0: ["sense_open"]})
    with pytest.raises(AssertionError, match="does not split was not closed"):
        s.branches[0].timeline.next_row(("drive",))


# -- next_row and the validation cache -------------------------------------------


def _raised(call):
    """(class, message) of the EngineError `call()` raises."""
    with pytest.raises(EngineError) as info:
        call()
    return type(info.value), str(info.value)


def _rejected_occurrences():
    """(domain factory, occurrence set, class of its rejection): one
    set per check that rejects it at time zero."""
    two_lookers = PlanningDomain(
        fluents=("a", "b"),
        actions=(
            Action("look_a", knowledge_props=(KnowledgeProposition("a"),)),
            Action("look_b", knowledge_props=(KnowledgeProposition("b"),)),
        ),
    )
    clash = PlanningDomain(
        fluents=("f",),
        actions=(
            Action("up", effect_props=(EffectProposition("up_1", pos("f")),)),
            Action("down", effect_props=(EffectProposition("down_1", neg("f")),)),
        ),
    )
    # one action whose own two effects clash
    flip = PlanningDomain(
        fluents=("f",),
        actions=(
            Action(
                "flip",
                effect_props=(
                    EffectProposition("flip_1", pos("f")),
                    EffectProposition("flip_2", neg("f")),
                ),
            ),
        ),
    )
    return [
        (door_domain, ("fly",), EngineError),
        (door_domain, ("open_door", "open_door"), ConcurrencyError),
        (lambda: two_lookers, ("look_a", "look_b"), ConcurrencyError),
        (door_domain, ("drive",), ExecutabilityError),
        (lambda: clash, ("down", "up"), ConcurrencyError),
        (lambda: flip, ("flip",), ConcurrencyError),
    ]


def test_next_row_rejects_what_step_rejects_and_caches_no_rejected_set():
    for domain, names, kind in _rejected_occurrences():
        # each call on a fresh domain, so no cache entry can decide it
        stepped = _raised(
            lambda: initial_state(domain(), 1, 1, True).branches[0].timeline.step(names)
        )
        root = initial_state(domain(), 1, 1, True).branches[0].timeline
        assert _raised(lambda: root.next_row(names)) == stepped, names
        assert stepped[0] is kind, names
        # a set that raised is not kept, so it raises again, and alike
        assert names not in root.compiled.valid, names
        assert _raised(lambda: root.step(names)) == stepped, names
        assert names not in root.compiled.valid, names


def test_a_cached_set_is_still_checked_for_executability():
    fresh = initial_state(door_domain(), 3, 1, checks=True).branches[0].timeline
    expected = _raised(lambda: fresh.step(("drive",)))
    assert expected[0] is ExecutabilityError
    # the narrative drives once the door is known to be open, which keeps
    # ("drive",) as a valid set of the narrative's compiled domain
    s = run_door_narrative()
    assert ("drive",) in s.compiled.valid
    root = s.branches[0].timeline.chain()[0]
    assert _raised(lambda: root.step(("drive",))) == expected
    assert _raised(lambda: root.next_row(("drive",))) == expected
    # and on the side where the door stayed shut, alike
    shut = s.branches[1].timeline
    message = _raised(lambda: shut.next_row(("drive",)))
    assert message == _raised(lambda: shut.step(("drive",)))
    assert message == (
        ExecutabilityError, "'drive' at step 3 on branch 0 requires open to be known"
    )


def test_next_row_refuses_a_sensor_that_would_split():
    s = initial_state(door_domain(), 2, 1, checks=True).step({0: ["open_door"]})
    timeline = s.branches[0].timeline
    assert len(timeline.step(("sense_open",))) == 2
    with pytest.raises(EngineError, match="splits"):
        timeline.next_row(("sense_open",))
    # once the value is known, a look does not split, and next_row gives
    # the row step gives
    known = timeline.step(("sense_open",))[1]
    (after,) = known.step(("sense_open",))
    assert known.next_row(("sense_open",)) == after.layer[-1]


# Pinned from the whole-layer sweep closure that preceded the worklist
# closure.  The 1000-domain walk reaches 37596 states; the digest covers
# the first 300 domains only, because rendering the atoms of every state
# of the whole walk would more than double this test's run time.
WALK_DIGEST_DOMAINS = 300
WALK_DIGEST = "ed479954cf36c060d6d19b47193fa9a3ed7efb2b49b54efe70ae9ea7a76ed27a"


def _single_action_walk(domain, checks, digest):
    """Every live branch, in sorted order, takes each action alone, in
    domain order, to depth 4; returns the number of states visited.

    With a `digest`, feeds it every state's atoms and inconsistency
    flag, and a marker for every step the engine rejects.
    """
    states = 0

    def visit(state, depth: int) -> None:
        nonlocal states
        states += 1
        if digest is not None:
            digest.update("\n".join(state.all_atoms()).encode())
            digest.update(f"\ninconsistent={state.inconsistent}\n".encode())
        if depth == 4:
            return
        for br in sorted(state.branches):
            for action in domain.actions:
                try:
                    nxt = state.step({br: (action.name,)})
                except EngineError:
                    if digest is not None:
                        digest.update(b"error\n")
                    continue
                visit(nxt, depth + 1)

    visit(initial_state(domain, 4, 8, checks=checks), 0)
    return states


def test_incremental_closure_reproduces_the_pinned_atoms_of_a_corpus_walk():
    from test_acceptance import _random_domain

    domains = [_random_domain(random.Random(774000 + i)) for i in range(1000)]
    digest = hashlib.sha256()
    states = sum(
        _single_action_walk(d, False, digest if i < WALK_DIGEST_DOMAINS else None)
        for i, d in enumerate(domains)
    )
    assert states == 37596
    assert digest.hexdigest() == WALK_DIGEST
    # the checked build re-closes every final layer from scratch after
    # every step and asserts that the incremental closure missed nothing
    assert sum(_single_action_walk(d, True, None) for d in domains) == 37596


# -- multi-branch walks: every branch picks its own step ----------------------

# Pinned from the engine that kept a second copy of every branch's
# history beside its timelines; covers every state's atoms and every
# rejected step of the walks below.
MULTI_WALK_DIGEST = "a586171ea1c40ea77030e410080eaec359a8471d8cbb325ce3b1c0edc111b847"


def _lineage_trace(state, branch_id, acts, seen):
    """A branch's trace rebuilt from its lineage, as `branch_trace` was
    computed before timelines linked back: step t's actions belong to the
    newest ancestor split before t, its observation to the newest one
    split at or before t.  `acts[b][t]` and `seen[b][t]` are what the walk
    gave and observed on branch b itself."""
    lineage = []
    b = branch_id
    while b is not None:
        lineage.append(b)
        b = state.branches[b].parent
    lineage.reverse()
    steps = []
    for t in range(state.horizon):
        owner = holder = lineage[0]
        for b in lineage:
            created = state.branches[b].created_at
            if created < t:
                owner = b
            if created <= t:
                holder = b
        obs = seen[holder].get(t)
        steps.append(TraceStep(acts[owner].get(t, ()), (obs,) if obs is not None else ()))
    return tuple(steps)


def _multi_branch_walk(domain, max_steps, max_branches, rng, digest, tally):
    """One seeded walk to the step budget: at each step every branch takes
    one action of its own choosing or idles, so splits nest.  A rejected
    pick is drawn again, at most three times, before every branch idles.
    Every state's traces must match `_lineage_trace`."""
    state = initial_state(domain, max_steps, max_branches, checks=False)
    acts = {0: {}}
    seen = {0: {}}
    menu = [None, *domain.actions]
    while state.horizon < max_steps and not state.inconsistent:
        h = state.horizon
        for attempt in range(4):
            picks = {br: rng.choice(menu) if attempt < 3 else None for br in sorted(state.branches)}
            occ = {br: (a.name,) for br, a in picks.items() if a is not None}
            try:
                nxt = state.step(occ)
            except EngineError:
                tally["rejected"] += 1
                digest.update(b"rejected\n")
                continue
            break
        split = {
            b.parent: (bid, b.timeline.observation[0])
            for bid, b in nxt.branches.items()
            if b.created_at == h
        }
        for br, names in occ.items():
            acts[br][h] = names
            a = picks[br]
            if a.is_sensing:
                fluent = a.knowledge_props[0].fluent
                known = state.sensing_outcome(br, fluent)
                seen[br][h] = (fluent, known is not False)
            if br in split:
                child, fluent = split[br]
                acts[child], seen[child] = {}, {h: (fluent, False)}
                tally["nested"] += state.branches[br].parent is not None
        state = nxt
        tally["states"] += 1
        digest.update("\n".join(state.all_atoms()).encode())
        digest.update(f"\ninconsistent={state.inconsistent}\n".encode())
        for br in state.branches:
            assert branch_trace(state, br) == _lineage_trace(state, br, acts, seen), br


def test_multi_branch_walks_read_their_history_off_the_timeline_chain():
    from test_acceptance import _random_domain

    from hindsight.generators import benchmark_bounds, generate_sickness

    digest = hashlib.sha256()
    tally = {"states": 0, "rejected": 0, "nested": 0}
    for i in range(200):
        domain = _random_domain(random.Random(774000 + i))
        rng = random.Random(i)
        for _ in range(3):
            _multi_branch_walk(domain, 4, 8, rng, digest, tally)
    for n in (3, 4):
        rng = random.Random(n)
        for _ in range(100):
            _multi_branch_walk(generate_sickness(n), benchmark_bounds("sickness", n)[0], 3,
                               rng, digest, tally)
    # 27 splits were made by a branch that was itself a split's child
    assert tally == {"states": 3300, "rejected": 1582, "nested": 27}
    assert digest.hexdigest() == MULTI_WALK_DIGEST


def test_random_walks_beyond_criterion_2_stay_monotone_and_sound():
    """Random domains of up to 6 fluents and random occurrence sequences
    to depth 7, with concurrent sets and looks at known values, stepped
    with checks: no step loses a knowledge atom, every consistent state
    is sound against the possible worlds, and on every branch whose step
    did not split, `next_row` gives the successor's newest row."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"depth 7": 0, "concurrent": 0, "split": 0, "known look": 0, "next row": 0}

    @st.composite
    def domains(draw):
        fluents = tuple(f"f{i}" for i in range(1, draw(st.integers(1, 6)) + 1))
        literal = st.builds(Literal, st.sampled_from(fluents), st.booleans())
        actions = []
        for ai in range(1, draw(st.integers(1, 4)) + 1):
            name = f"a{ai}"
            executability = tuple(draw(st.lists(literal, max_size=1)))
            if draw(st.integers(0, 2)) == 0:
                sensed = KnowledgeProposition(draw(st.sampled_from(fluents)))
                actions.append(Action(name, knowledge_props=(sensed,), executability=executability))
                continue
            eps = tuple(
                EffectProposition(
                    f"{name}_{ei}",
                    draw(literal),
                    tuple(draw(st.lists(literal, max_size=2, unique_by=lambda lit: lit.fluent))),
                )
                for ei in range(1, draw(st.integers(1, 3)) + 1)
            )
            actions.append(Action(name, effect_props=eps, executability=executability))
        known = draw(st.lists(st.sampled_from(fluents), unique=True))
        init = tuple(Literal(f, draw(st.booleans())) for f in known)
        unknown = [f for f in fluents if f not in known]
        oneofs = ()
        if len(unknown) >= 2 and draw(st.booleans()):
            members = draw(st.lists(st.sampled_from(unknown), min_size=2, max_size=3, unique=True))
            oneofs = (OneofConstraint(tuple(pos(f) for f in members)),)
        return PlanningDomain(fluents=fluents, actions=tuple(actions), init=init, oneofs=oneofs)

    # per step, per branch in sorted order, the indices of the actions taken
    steps = st.lists(
        st.lists(st.lists(st.integers(0, 3), max_size=3), max_size=4), min_size=7, max_size=7
    )

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(domains(), steps)
    def walk(domain, picks):
        state = initial_state(domain, max_steps=7, max_branches=4, checks=True)
        for step in picks:
            if state.inconsistent:
                return
            occ = {
                br: sorted({domain.actions[i % len(domain.actions)].name for i in chosen})
                for br, chosen in zip(sorted(state.branches), step)
            }
            # a rejected step (interference, executability or the branch
            # budget) falls back to fewer actions per branch, down to idling
            for k in (3, 2, 1, 0):
                occ = {br: names[:k] for br, names in occ.items()}
                try:
                    nxt = state.step(occ)
                    break
                except EngineError:
                    pass
            assert set(state.knows_atoms()) <= set(nxt.knows_atoms())
            # a step that does not split: next_row is step's newest row
            for br, b in state.branches.items():
                after = nxt.branches[br].timeline
                if after.splits == b.timeline.splits:
                    assert b.timeline.next_row(occ.get(br, ())) == after.layer[-1]
                    seen["next row"] += 1
            for b in nxt.branches.values():
                for t1 in range(nxt.horizon):
                    for t in range(t1 + 1):
                        assert b.layer(t1)[t] & ~b.layer(t1 + 1)[t] == 0
            if not nxt.inconsistent:
                report = soundness_check(nxt)
                assert report.ok, report.violations
            seen["concurrent"] += any(len(names) > 1 for names in occ.values())
            seen["split"] += len(nxt.branches) > len(state.branches)
            for br in occ:
                link = nxt.branches[br].timeline
                seen["known look"] += bool(link.observation) and link.splits == link.prev.splits
            state = nxt
        seen["depth 7"] += state.horizon == 7

    walk()
    assert all(seen.values()), seen
