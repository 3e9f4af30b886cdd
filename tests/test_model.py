"""Core value types and the structural validator."""

from __future__ import annotations

from hindsight.model import (
    Action,
    EffectProposition,
    GoalProposition,
    KnowledgeProposition,
    Literal,
    OneofConstraint,
    PlanningDomain,
    complement,
    neg,
    pos,
    positify,
    validate_domain,
)


def door_domain() -> PlanningDomain:
    return PlanningDomain(
        fluents=("open", "ab_open", "in_liv"),
        actions=(
            Action(
                "open_door",
                effect_props=(EffectProposition("open_door_1", pos("open"), (neg("ab_open"),)),),
            ),
            Action(
                "drive",
                effect_props=(EffectProposition("drive_1", pos("in_liv")),),
                executability=(pos("open"), neg("in_liv")),
            ),
            Action("sense_open", knowledge_props=(KnowledgeProposition("open"),)),
        ),
        init=(neg("in_liv"), neg("open")),
        goals=(GoalProposition("weak", (pos("in_liv"),)),),
    )


def test_complement_is_an_involution():
    assert complement(neg("open")) == pos("open")
    assert complement(complement(pos("in_liv"))) == pos("in_liv")


def test_positify_strips_the_sign():
    assert positify(neg("f")) == pos("f")
    assert positify(pos("f")) == pos("f")


def test_literal_str_uses_sign_prefix():
    assert str(pos("open")) == "open"
    assert str(neg("open")) == "-open"


def test_is_sensing_flag():
    d = door_domain()
    assert d.action("sense_open").is_sensing
    assert not d.action("drive").is_sensing


def test_action_lookup_raises_on_unknown_name():
    d = door_domain()
    try:
        d.action("fly")
    except KeyError:
        pass
    else:
        raise AssertionError("expected KeyError")


def test_goal_literals_conjoins_across_propositions():
    d = PlanningDomain(
        fluents=("a", "b"),
        goals=(
            GoalProposition("strong", (pos("a"),)),
            GoalProposition("strong", (pos("b"), pos("a"))),
        ),
    )
    assert d.goal_literals("strong") == (pos("a"), pos("b"))
    assert d.goal_literals("weak") == ()


def test_validate_accepts_the_door_domain():
    assert validate_domain(door_domain()).ok


def test_validate_flags_mixed_sensing_and_physical():
    d = PlanningDomain(
        fluents=("f",),
        actions=(
            Action(
                "weird",
                effect_props=(EffectProposition("weird_1", pos("f")),),
                knowledge_props=(KnowledgeProposition("f"),),
            ),
        ),
    )
    report = validate_domain(d)
    assert any("mixed sensing/physical" in v for v in report.violations)


def test_validate_flags_inconsistent_init():
    d = PlanningDomain(fluents=("open",), init=(pos("open"), neg("open")))
    report = validate_domain(d)
    assert any("inconsistent init" in v for v in report.violations)


def test_validate_flags_undeclared_fluents_everywhere():
    d = PlanningDomain(
        fluents=("a",),
        actions=(
            Action(
                "act",
                effect_props=(EffectProposition("act_1", pos("x"), (neg("y"),)),),
                executability=(pos("z"),),
            ),
        ),
        init=(pos("w"),),
        oneofs=(OneofConstraint((pos("u"), neg("a"))),),
        goals=(GoalProposition("weak", (pos("v"),)),),
    )
    report = validate_domain(d)
    for name in "xyzwuv":
        assert any(f"'{name}'" in v for v in report.violations), name


def test_validate_flags_small_oneof_and_repeats():
    d = PlanningDomain(
        fluents=("a", "b"),
        oneofs=(
            OneofConstraint((pos("a"),)),
            OneofConstraint((pos("a"), pos("a"), pos("b"))),
        ),
    )
    report = validate_domain(d)
    assert any("fewer than two" in v for v in report.violations)
    assert any("repeated literals" in v for v in report.violations)


def test_validate_flags_static_misuse():
    d = PlanningDomain(
        fluents=("adj", "far"),
        actions=(
            Action("bad_eff", effect_props=(EffectProposition("bad_eff_1", pos("adj")),)),
            Action("bad_sense", knowledge_props=(KnowledgeProposition("adj"),)),
        ),
        init=(pos("adj"),),
        static_fluents=frozenset({"adj", "far"}),
    )
    report = validate_domain(d)
    assert any("in effect" in v for v in report.violations)
    assert any("sensed by" in v for v in report.violations)
    assert any("no init value" in v for v in report.violations)


def test_validate_flags_contradictory_effect_conditions():
    d = PlanningDomain(
        fluents=("a", "b"),
        actions=(
            Action(
                "act",
                effect_props=(
                    EffectProposition("act_1", pos("b"), (pos("a"), neg("a"))),
                ),
            ),
        ),
    )
    report = validate_domain(d)
    assert any("contradictory condition" in v for v in report.violations)


def test_literal_ordering_is_stable():
    lits = [pos("b"), neg("b"), pos("a")]
    assert sorted(lits) == [pos("a"), neg("b"), pos("b")]


def test_every_exported_name_resolves():
    import hindsight

    for name in hindsight.__all__:
        assert hasattr(hindsight, name), name
