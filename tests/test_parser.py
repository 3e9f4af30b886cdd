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
    Literal,
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
        # a lone sign before a clause keyword or at the end of its list
        "(:action a :effect ¬ :observe f)",
        "(:action a :executable ¬ :effect g)",
        "(:action a :executable ¬)",
        "(:action a :effect g ¬)",
        "(:action a :effect when c ¬)",
        "(:action a :effect when ¬ c)",
        "(:action a :effect (when c ¬))",
        "(:action a :effect (when ¬ c))",
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


@pytest.mark.parametrize("name", ["when", "executable"])
def test_an_unconditional_effect_on_a_keyword_named_fluent_round_trips(name):
    d = PlanningDomain(
        fluents=(name, "g"),
        actions=(
            Action("a", effect_props=(EffectProposition("a_1", pos(name)), EffectProposition("a_2", pos("g")))),
        ),
        goals=(GoalProposition("weak", (pos(name),)),),
    )
    assert validate_domain(d).ok
    assert parse_domain(render_domain(d)) == d


_NAMES = ("f", "g_1", "café", "when", "executable", "and", "not", "oneof", "weak")


def test_rendered_domains_parse_back_unchanged():
    """parse_domain(render_domain(d)) == d on generated domains that
    validate_domain accepts: oneof groups, statics, repeated literals, and
    names that are also words of the dialect."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def domains(draw):
        fluents = tuple(draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=6, unique=True)))
        statics = draw(st.sets(st.sampled_from(fluents), max_size=2))
        dynamic = [f for f in fluents if f not in statics]
        literal = st.builds(Literal, st.sampled_from(fluents), st.booleans())

        def condition():
            lits = draw(st.lists(literal, max_size=3))
            return tuple(l for l in lits if Literal(l.fluent, not l.positive) not in lits)

        values = draw(st.dictionaries(st.sampled_from(fluents), st.booleans()))
        values.update({f: draw(st.booleans()) for f in statics if f not in values})
        init = [Literal(f, v) for f, v in values.items()]
        if init and draw(st.booleans()):
            init.append(init[0])
        actions = []
        for name in draw(st.lists(st.sampled_from(_NAMES), max_size=4, unique=True)):
            executability = tuple(draw(st.lists(literal, max_size=2)))
            if dynamic and draw(st.booleans()):
                sensed = KnowledgeProposition(draw(st.sampled_from(dynamic)))
                actions.append(Action(name, knowledge_props=(sensed,), executability=executability))
                continue
            effects = tuple(
                EffectProposition(
                    f"{name}_{k}",
                    Literal(draw(st.sampled_from(dynamic)), draw(st.booleans())),
                    condition(),
                )
                for k in range(1, draw(st.integers(0, 3 if dynamic else 0)) + 1)
            )
            actions.append(Action(name, effect_props=effects, executability=executability))
        oneofs = tuple(
            OneofConstraint(tuple(draw(st.lists(literal, min_size=2, max_size=3, unique=True))))
            for _ in range(draw(st.integers(0, 2)))
        )
        goals = tuple(
            GoalProposition(draw(st.sampled_from(("weak", "strong"))), condition())
            for _ in range(draw(st.integers(0, 2)))
        )
        return PlanningDomain(fluents, tuple(actions), tuple(init), oneofs, goals, frozenset(statics))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(domains())
    def round_trips(d):
        assert validate_domain(d).ok, validate_domain(d).violations
        assert parse_domain(render_domain(d)) == d

    round_trips()


# ---------------------------------------------------------------------------
# The reader: positions, symbol characters, error order


def _error(text: str) -> tuple[str, tuple[int, int]]:
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    return err.value.message, (err.value.span.line, err.value.span.column)


def test_a_lone_sign_that_ends_a_list_is_reported_at_the_sign():
    assert _error("(:init a\n  b ¬)") == ("missing init literal", (2, 5))
    assert _error("(:action a :effect ¬)") == ("missing effect literal", (1, 20))
    assert _error("(:action a :effect ¬ :observe f)") == ("missing effect literal", (1, 20))
    assert _error("(:action a :executable ¬ :effect g)") == ("missing condition", (1, 24))
    assert _error("(:action a :effect (when c ¬))") == ("missing effect literal", (1, 28))


@pytest.mark.parametrize(
    "spaced, joined",
    [
        ("(:init g) (:action a :effect ¬ g) (:goal weak -g)",
         "(:init g) (:action a :effect ¬g) (:goal weak -g)"),
        ("(:action a :executable ¬ f :effect g)", "(:action a :executable ¬f :effect g)"),
        ("(:action a :effect (when ¬ c e))", "(:action a :effect (when ¬c e))"),
        ("(:action a :effect (when c ¬ e))", "(:action a :effect (when c ¬e))"),
        ("(:action a :effect when ¬ c ¬ e)", "(:action a :effect when ¬c ¬e)"),
        ("(:action a :effect ¬ e when c ¬ f :executable x)",
         "(:action a :effect ¬e when c ¬f :executable x)"),
        ("(:goal strong ¬ g)", "(:goal strong ¬g)"),
    ],
)
def test_a_lone_sign_negates_the_literal_after_it_wherever_a_literal_goes(spaced, joined):
    assert parse_domain(spaced) == parse_domain(joined)


def test_positions_count_characters_after_crlf_tab_and_negation_sign():
    # only \n starts a line; \r, a tab and ¬ are one column each
    assert _error("(:init a)\r\n\t(:init ¬b ?)") == ("unexpected character '?'", (2, 12))
    assert _error("(:init a)\r\n\t(:init ¬ ¬ b)") == ("double negation", (2, 9))
    assert _error("(:init a)\n\n   (:goal weak ¬b ¬ ¬b)") == ("double negation", (3, 19))


def test_a_bad_character_after_an_unbalanced_paren_is_reported_first():
    assert _error("(:init a))\n(:goal weak ?)") == ("unexpected character '?'", (2, 13))
    assert _error("(:init a))\n(:goal weak :)") == ("':' must start a keyword", (2, 13))
    assert _error("(:init a))\n(:goal weak b") == ("unbalanced ')'", (1, 10))
    assert _error("(:init a\n(:goal (weak b)") == ("unbalanced '('", (2, 1))


def test_unicode_letters_and_digits_are_symbol_characters():
    d = parse_domain("(:init ¬café x²)")
    assert d.fluents == ("café", "x²")
    assert d.init == (neg("café"), pos("x²"))


def test_long_sign_chains_and_deep_nesting_are_parse_errors():
    assert _error("(:init " + "¬ " * 3000 + "f)") == ("double negation", (1, 8))
    assert _error("(" * 100_000 + ")" * 100_000) == ("form must start with a keyword", (1, 1))


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
