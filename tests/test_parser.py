"""Front-end dialect: parsing, rendering, round-trips, and total-parse fuzz."""

from __future__ import annotations

import pathlib
import random
import re
import string

import pytest

from hindsight.model import (
    Action,
    EffectProposition,
    GoalProposition,
    KnowledgeProposition,
    OneofConstraint,
    PlanningDomain,
    neg,
    pos,
    validate_domain,
)
from hindsight.parser import ParseError, parse_domain, render_domain

DATA = pathlib.Path(__file__).parent / "data"


def test_parses_the_door_domain_file():
    d = parse_domain((DATA / "smarthome.hpx").read_text(encoding="utf-8"))
    assert d.fluents == ("ab_open", "open", "in_liv")
    assert [a.name for a in d.actions] == ["open_door", "drive", "sense_open"]
    od = d.action("open_door")
    assert od.effect_props == (
        EffectProposition("open_door_1", pos("open"), (neg("ab_open"),)),
    )
    drive = d.action("drive")
    assert drive.executability == (pos("open"), neg("in_liv"))
    assert drive.effect_props == (EffectProposition("drive_1", pos("in_liv")),)
    assert d.action("sense_open").knowledge_props == (KnowledgeProposition("open"),)
    assert d.init == (neg("in_liv"), neg("open"))
    assert d.goals == (GoalProposition("weak", (pos("in_liv"),)),)
    assert validate_domain(d).ok


def test_negation_spellings_agree():
    for text in ("(:init -open)", "(:init ¬open)", "(:init ¬ open)", "(:init (not open))"):
        d = parse_domain(text)
        assert d.init == (neg("open"),), text


def test_parenthesized_and_bare_when_are_equivalent():
    bare = parse_domain("(:action a :effect when -c e)")
    wrapped = parse_domain("(:action a :effect (when -c e))")
    assert bare.actions == wrapped.actions


def test_multiple_effect_propositions_get_ordinal_ids():
    d = parse_domain("(:action shoot :effect when loaded -alive -loaded)")
    eps = d.action("shoot").effect_props
    assert [ep.id for ep in eps] == ["shoot_1", "shoot_2"]
    assert eps[0] == EffectProposition("shoot_1", neg("alive"), (pos("loaded"),))
    assert eps[1] == EffectProposition("shoot_2", neg("loaded"))


def test_executable_keyword_with_and_without_colon():
    a = parse_domain("(:action go :executable at :effect there)")
    b = parse_domain("(:action go executable at :effect there)")
    assert a.actions == b.actions


def test_goal_forms():
    d = parse_domain("(:goal weak in) (:goal strong (and -a b))")
    assert d.goals == (
        GoalProposition("weak", (pos("in"),)),
        GoalProposition("strong", (neg("a"), pos("b"))),
    )


def test_oneof_and_static_blocks():
    d = parse_domain("(:init pos_1 adj (:static adj)) (oneof armed_1 armed_2)")
    assert d.oneofs == (OneofConstraint((pos("armed_1"), pos("armed_2"))),)
    assert d.static_fluents == frozenset({"adj"})
    assert d.init == (pos("pos_1"), pos("adj"))


def test_declared_fluents_come_first_then_first_use():
    d = parse_domain("(:fluents z y) (:init x -y)")
    assert d.fluents == ("z", "y", "x")


def test_duplicate_action_name_is_an_error_with_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(:action a :effect f)\n(:action a :effect g)")
    assert err.value.span.line == 2
    assert "duplicate action" in err.value.message


def test_error_positions_are_one_based():
    with pytest.raises(ParseError) as err:
        parse_domain("(:init open))")
    assert (err.value.span.line, err.value.span.column) == (1, 13)


@pytest.mark.parametrize(
    "bad",
    [
        "(",
        ")",
        "(:init open",
        "(:wat 1)",
        "stray",
        "(:goal weird f)",
        "(:goal weak)",
        "(:action)",
        "(:action a :observe -f)",
        "(:action a :observe f :observe g)",
        "(:action a :effect)",
        "(:action a :effect when c)",
        "(:action a :frobnicate f)",
        "(:init (and a b))",
        "(:fluents -f)",
        "(:init ?)",
        "(:init --f)",
        "(:init (not (not f)))",
        "((:init f))",
        "()",
    ],
)
def test_malformed_inputs_raise_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_domain(bad)


def test_round_trip_on_the_door_domain():
    d = parse_domain((DATA / "smarthome.hpx").read_text(encoding="utf-8"))
    assert parse_domain(render_domain(d)) == d


def test_round_trip_on_a_kitchen_sink_domain():
    d = PlanningDomain(
        fluents=("a", "b", "c", "adj"),
        actions=(
            Action(
                "act",
                effect_props=(
                    EffectProposition("act_1", pos("a"), (neg("b"), pos("c"))),
                    EffectProposition("act_2", neg("c")),
                ),
                executability=(pos("adj"),),
            ),
            Action("look", knowledge_props=(KnowledgeProposition("b"),)),
            Action("idle_like"),
        ),
        init=(neg("a"), pos("adj")),
        oneofs=(OneofConstraint((pos("b"), pos("c"))),),
        goals=(
            GoalProposition("strong", (pos("a"),)),
            GoalProposition("weak", (neg("c"), pos("a"))),
        ),
        static_fluents=frozenset({"adj"}),
    )
    assert parse_domain(render_domain(d)) == d


def test_empty_domain_round_trips():
    assert render_domain(PlanningDomain()) == ""
    assert parse_domain("") == PlanningDomain()


def test_comments_and_blank_lines_are_ignored():
    d = parse_domain("; a comment\n\n(:init open) ; trailing\n;;; more\n")
    assert d.init == (pos("open"),)


def test_fuzz_parser_is_total():
    """Random byte soup must either parse or raise ParseError — nothing else."""
    rng = random.Random(0xD1A1EC7)
    alphabet = string.ascii_lowercase + "()-_;: \n¬" + string.digits
    keywords = [":init", ":goal", ":action", ":fluents", "oneof", "when", "and", "not", ":observe", ":effect"]
    parsed = 0
    for _ in range(3000):
        n = rng.randrange(0, 60)
        pieces = []
        for _ in range(n):
            if rng.random() < 0.25:
                pieces.append(rng.choice(keywords))
            else:
                pieces.append("".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 6))))
        text = " ".join(pieces)
        try:
            parse_domain(text)
            parsed += 1
        except ParseError:
            pass
    # sanity: the fuzzer is not only generating garbage
    assert parsed > 0


def test_fuzz_round_trip_on_random_well_formed_domains():
    rng = random.Random(0x5EED)
    for _ in range(200):
        fluents = tuple(f"f{i}" for i in range(rng.randrange(1, 5)))
        lit = lambda: (pos if rng.random() < 0.5 else neg)(rng.choice(fluents))
        actions = []
        for k in range(rng.randrange(0, 4)):
            name = f"a{k}"
            if rng.random() < 0.3:
                actions.append(Action(name, knowledge_props=(KnowledgeProposition(rng.choice(fluents)),)))
            else:
                eps = tuple(
                    EffectProposition(
                        f"{name}_{j + 1}",
                        lit(),
                        tuple(lit() for _ in range(rng.randrange(0, 3))),
                    )
                    for j in range(rng.randrange(0, 3))
                )
                execs = tuple(lit() for _ in range(rng.randrange(0, 2)))
                actions.append(Action(name, effect_props=eps, executability=execs))
        goals = tuple(
            GoalProposition(rng.choice(["weak", "strong"]), tuple({lit(): None for _ in range(rng.randrange(1, 3))}))
            for _ in range(rng.randrange(0, 3))
        )
        d = PlanningDomain(
            fluents=fluents,
            actions=tuple(actions),
            init=tuple({l.fluent: l for l in (lit() for _ in range(rng.randrange(0, 4)))}.values()),
            goals=goals,
        )
        assert parse_domain(render_domain(d)) == d


# ---------------------------------------------------------------------------
# The README's domain language section

README = pathlib.Path(__file__).parents[1] / "README.md"


def _readme_domain_texts() -> list[str]:
    """The README's `lisp` example, and one domain per form of its syntax
    table with `…` dropped: a clause that starts with a keyword goes into
    an action, `(:static …)` into the `(:init …)` its row names, and each
    effect the `:effect` row lists into an action of its own."""
    def code(cell: str) -> list[str]:
        return [c.replace(" …", "").replace("…", "") for c in re.findall(r"`([^`]*)`", cell)]

    text = README.read_text(encoding="utf-8")
    texts = re.findall(r"```lisp\n(.*?)```", text, re.S)
    rows = text[text.index("| Form | Meaning |"):].splitlines()[2:]
    for row in rows[: next(i for i, r in enumerate(rows) if not r.startswith("|"))]:
        form_cell, meaning_cell = row.strip("| ").split(" | ")
        forms = code(form_cell)
        if forms[0].startswith("(:static"):
            texts.append(f"{forms[1][:-1]} {forms[0]})")
            continue
        texts += [f"(:action n {f} :effect e)" if f.startswith(":") else f for f in forms]
        if ":effect" in forms[0]:
            texts += [f"(:action n :effect {e})" for e in code(meaning_cell)]
    return texts


def test_the_readme_domain_examples_parse():
    texts = _readme_domain_texts()
    assert len(texts) == 13
    for text in texts:
        try:
            parse_domain(text)
        except ParseError as exc:
            pytest.fail(f"README form {text!r}: {exc}")
    # the conditional effect is documented in the form render_domain writes
    assert "(when (and c1 c2) eff)" in render_domain(
        parse_domain("(:action n :effect (when (and c1 c2) eff))")
    )
