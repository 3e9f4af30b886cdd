"""S-expression front end for planning domains.

The dialect, by example::

    (:fluents open ab_open in_liv)            ; optional declaration block
    (:init -in_liv -open (:static adj))       ; literals; :static marks fixed relations
    (oneof armed_1 armed_2)                   ; exactly one holds initially
    (:goal weak in_liv)                       ; or: (:goal strong (and a -b))
    (:action open_door :effect when -ab_open open)
    (:action drive :executable (and open -in_liv) :effect in_liv)
    (:action sense_open :observe open)

Negation is written ``-f``, ``¬f``, ``¬ f``, or ``(not f)``, wherever a
literal goes.  ``;`` starts a comment.  Undeclared fluents are collected
in first-use order.  Parsing is total: any input produces either a
domain or a ParseError carrying a source position — never a crash.
Nothing recurses over the input, so no depth of nesting and no chain of
signs can overflow the stack.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from hindsight.model import (
    Action,
    EffectProposition,
    GoalProposition,
    KnowledgeProposition,
    Literal,
    OneofConstraint,
    PlanningDomain,
)


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


# ---------------------------------------------------------------------------
# Reading: text to nested lists of symbols


@dataclass(frozen=True)
class _Atom:
    text: str
    span: SourceSpan


@dataclass(frozen=True)
class _List:
    items: tuple
    span: SourceSpan


# Layout, a symbol, a paren, a bare ':' and any other character.  In a
# str pattern \w is exactly `ch.isalnum() or ch == "_"` and \s is exactly
# str.isspace().
_TOKEN = re.compile(r"(\s+|;[^\n]*)|([-¬]\w*|:\w+|\w+)|([()])|(:)|(.)", re.S)


def _read(text: str) -> list:
    """The toplevel forms of `text`, parens grouped into _List nodes and
    symbols as _Atom nodes, a leading '¬' spelled '-'.  A bad character
    is reported before any paren imbalance."""
    forms: list = []
    items = forms
    stack: list = []  # (enclosing items, span of the open paren)
    line, line_start = 1, 0
    unbalanced = None
    for m in _TOKEN.finditer(text):
        kind, tok, start = m.lastindex, m.group(), m.start()
        if kind == 1:
            nl = tok.rfind("\n")
            if nl >= 0:
                line += tok.count("\n")
                line_start = start + nl + 1
            continue
        span = SourceSpan(line, start - line_start + 1)
        if kind == 2:
            items.append(_Atom("-" + tok[1:] if tok[0] == "¬" else tok, span))
        elif kind == 3:
            if tok == "(":
                stack.append((items, span))
                items = []
            elif stack:
                outer, open_span = stack.pop()
                outer.append(_List(tuple(items), open_span))
                items = outer
            elif unbalanced is None:
                unbalanced = span
        elif kind == 4:
            raise ParseError("':' must start a keyword", span)
        else:
            raise ParseError(f"unexpected character {tok!r}", span)
    if unbalanced is not None:
        raise ParseError("unbalanced ')'", unbalanced)
    if stack:
        raise ParseError("unbalanced '('", stack[-1][1])
    return forms


# ---------------------------------------------------------------------------
# Domain parsing


class _DomainBuilder:
    def __init__(self) -> None:
        self.fluent_order: dict[str, None] = {}
        self.init: list[Literal] = []
        self.oneofs: list[OneofConstraint] = []
        self.goals: list[GoalProposition] = []
        self.actions: list[Action] = []
        self.statics: set[str] = set()

    def touch(self, fluent: str) -> None:
        self.fluent_order.setdefault(fluent, None)


def _symbol(node, what: str) -> _Atom:
    if not isinstance(node, _Atom):
        raise ParseError(f"expected {what}, got a list", node.span)
    return node


def _parse_literal(
    nodes, i: int, builder: _DomainBuilder, what: str, stop=frozenset()
) -> tuple[Literal, int]:
    """Parse one literal starting at nodes[i]; returns (literal, next index).

    A lone sign, the token "¬ f" yields, negates the one node after it.
    A sign that ends `nodes`, or stands before a keyword in `stop`, is
    missing its literal."""
    node = nodes[i]
    sign = node if isinstance(node, _Atom) and node.text == "-" else None
    if sign is not None:
        i += 1
        if i == len(nodes) or isinstance(nodes[i], _Atom) and nodes[i].text in stop:
            raise ParseError(f"missing {what}", sign.span)
        node = nodes[i]
    if isinstance(node, _List):
        if not (len(node.items) == 2 and isinstance(node.items[0], _Atom) and node.items[0].text == "not"):
            raise ParseError(f"expected {what}", node.span)
        inner = _symbol(node.items[1], "fluent")
        # (not -f) double negation is rejected rather than simplified
        if inner.text.startswith("-"):
            raise ParseError("negation inside (not ...)", inner.span)
        lit = Literal(inner.text, False)
    elif node.text.startswith("-"):
        lit = Literal(node.text[1:], False)
    else:
        lit = Literal(node.text, True)
    if sign is not None:
        if not lit.positive:
            raise ParseError("double negation", sign.span)
        lit = Literal(lit.fluent, False)
    builder.touch(lit.fluent)
    return lit, i + 1


def _parse_literals(nodes, builder: _DomainBuilder, what: str) -> tuple[Literal, ...]:
    """Every literal of `nodes`, read one after another."""
    lits: list[Literal] = []
    i = 0
    while i < len(nodes):
        lit, i = _parse_literal(nodes, i, builder, what)
        lits.append(lit)
    return tuple(lits)


_ACTION_KEYWORDS = frozenset({":effect", ":observe", ":executable", "executable"})


def _parse_condition(nodes, i: int, builder: _DomainBuilder) -> tuple[tuple[Literal, ...], int]:
    """A condition starting at nodes[i], either a single literal or
    (and lit ...); returns (literals, next index)."""
    node = nodes[i]
    if isinstance(node, _List) and node.items and isinstance(node.items[0], _Atom) and node.items[0].text == "and":
        return _parse_literals(node.items[1:], builder, "condition literal"), i + 1
    lit, i = _parse_literal(nodes, i, builder, "condition", _ACTION_KEYWORDS)
    return (lit,), i


def _parse_when(nodes, i: int, builder: _DomainBuilder) -> tuple[EffectProposition, int] | None:
    """The conditional effect `when cond literal` whose `when` is
    nodes[i], and the index after it; None when `nodes` end first."""
    if i + 2 >= len(nodes):
        return None
    conds, i = _parse_condition(nodes, i + 1, builder)
    if i == len(nodes):
        return None
    eff, i = _parse_literal(nodes, i, builder, "effect literal", _ACTION_KEYWORDS)
    return EffectProposition("", eff, conds), i


def _parse_action(form: _List, builder: _DomainBuilder) -> Action:
    items = list(form.items[1:])
    if not items:
        raise ParseError("missing action name", form.span)
    name_atom = _symbol(items[0], "action name")
    name = name_atom.text
    if name.startswith("-") or not name:
        raise ParseError("bad action name", name_atom.span)

    effects: list[EffectProposition] = []
    observes: list[KnowledgeProposition] = []
    executability: list[Literal] = []
    i = 1
    while i < len(items):
        head = items[i]
        key = head.text if isinstance(head, _Atom) else None
        if key in (":executable", "executable"):
            if i + 1 >= len(items):
                raise ParseError("missing executability condition", head.span)
            conds, i = _parse_condition(items, i + 1, builder)
            executability.extend(conds)
        elif key == ":observe":
            if i + 1 >= len(items):
                raise ParseError("missing sensed fluent", head.span)
            fl = _symbol(items[i + 1], "sensed fluent")
            if fl.text.startswith("-"):
                raise ParseError("sensed fluent must be unsigned", fl.span)
            if observes:
                raise ParseError("more than one :observe in an action", head.span)
            builder.touch(fl.text)
            observes.append(KnowledgeProposition(fl.text))
            i += 2
        elif key == ":effect":
            i += 1
            saw_item = False
            while i < len(items):
                node = items[i]
                if isinstance(node, _Atom) and node.text in _ACTION_KEYWORDS:
                    break
                if isinstance(node, _Atom) and node.text == "when":
                    read = _parse_when(items, i, builder)
                    if read is None:
                        raise ParseError("truncated conditional effect", node.span)
                    ep, i = read
                    effects.append(ep)
                elif isinstance(node, _List) and node.items and isinstance(node.items[0], _Atom) and node.items[0].text == "when":
                    read = _parse_when(node.items, 0, builder)
                    if read is None or read[1] != len(node.items):
                        raise ParseError("conditional effect needs a condition and a literal", node.span)
                    effects.append(read[0])
                    i += 1
                else:
                    eff, i = _parse_literal(items, i, builder, "effect literal", _ACTION_KEYWORDS)
                    effects.append(EffectProposition("", eff, ()))
                saw_item = True
            if not saw_item:
                raise ParseError("empty :effect clause", head.span)
        else:
            span = head.span if isinstance(head, (_Atom, _List)) else form.span
            raise ParseError(f"unknown action clause {key or '(...)'!r}", span)

    numbered = tuple(
        EffectProposition(f"{name}_{k}", ep.effect, ep.conditions)
        for k, ep in enumerate(effects, start=1)
    )
    return Action(name, numbered, tuple(observes), tuple(executability))


def parse_domain(text: str) -> PlanningDomain:
    """Parse a domain description; raises ParseError with a source span."""
    forms = _read(text)
    builder = _DomainBuilder()
    declared: list[str] = []
    seen_action_names: dict[str, SourceSpan] = {}

    for form in forms:
        if not isinstance(form, _List):
            raise ParseError(f"unexpected toplevel token {form.text!r}", form.span)
        if not form.items:
            raise ParseError("empty form", form.span)
        head = form.items[0]
        if not isinstance(head, _Atom):
            raise ParseError("form must start with a keyword", form.span)
        key = head.text

        if key == ":fluents":
            for node in form.items[1:]:
                at = _symbol(node, "fluent name")
                if at.text.startswith("-"):
                    raise ParseError("fluent declaration must be unsigned", at.span)
                declared.append(at.text)
                builder.touch(at.text)
        elif key == ":init":
            rest = list(form.items[1:])
            i = 0
            while i < len(rest):
                node = rest[i]
                if isinstance(node, _List) and node.items and isinstance(node.items[0], _Atom) and node.items[0].text == ":static":
                    for sub in node.items[1:]:
                        at = _symbol(sub, "static fluent name")
                        if at.text.startswith("-"):
                            raise ParseError("static declaration must be unsigned", at.span)
                        builder.touch(at.text)
                        builder.statics.add(at.text)
                    i += 1
                else:
                    lit, i = _parse_literal(rest, i, builder, "init literal")
                    builder.init.append(lit)
        elif key == "oneof":
            lits = _parse_literals(form.items[1:], builder, "oneof literal")
            builder.oneofs.append(OneofConstraint(lits))
        elif key == ":goal":
            if len(form.items) < 3:
                raise ParseError(":goal needs a kind and literals", form.span)
            kind_atom = _symbol(form.items[1], "goal kind")
            if kind_atom.text not in ("weak", "strong"):
                raise ParseError(f"unknown goal kind {kind_atom.text!r}", kind_atom.span)
            rest = form.items[2:]
            if len(rest) == 1 and isinstance(rest[0], _List):
                lits, _ = _parse_condition(rest, 0, builder)
            else:
                lits = _parse_literals(rest, builder, "goal literal")
            builder.goals.append(GoalProposition(kind_atom.text, lits))
        elif key == ":action":
            action = _parse_action(form, builder)
            if action.name in seen_action_names:
                raise ParseError(f"duplicate action name '{action.name}'", form.span)
            seen_action_names[action.name] = form.span
            builder.actions.append(action)
        else:
            raise ParseError(f"unknown keyword {key!r}", head.span)

    # declared fluents first (in declaration order), then first-use order
    order: dict[str, None] = {}
    for f in declared:
        order.setdefault(f, None)
    for f in builder.fluent_order:
        order.setdefault(f, None)

    return PlanningDomain(
        fluents=tuple(order),
        actions=tuple(builder.actions),
        init=tuple(builder.init),
        oneofs=tuple(builder.oneofs),
        goals=tuple(builder.goals),
        static_fluents=frozenset(builder.statics),
    )


# ---------------------------------------------------------------------------
# Rendering


def _render_literal(lit: Literal) -> str:
    return str(lit)


def _render_condition(lits: tuple[Literal, ...]) -> str:
    if len(lits) == 1:
        return _render_literal(lits[0])
    return "(and " + " ".join(_render_literal(l) for l in lits) + ")"


def render_domain(domain: PlanningDomain) -> str:
    """Render a domain so that parse_domain(render_domain(d)) == d."""
    lines: list[str] = []
    if domain.fluents:
        lines.append("(:fluents " + " ".join(domain.fluents) + ")")
    if domain.init or domain.static_fluents:
        parts = [_render_literal(l) for l in domain.init]
        if domain.static_fluents:
            parts.append("(:static " + " ".join(sorted(domain.static_fluents)) + ")")
        lines.append("(:init " + " ".join(parts) + ")")
    for oo in domain.oneofs:
        lines.append("(oneof " + " ".join(_render_literal(l) for l in oo.literals) + ")")
    for a in domain.actions:
        chunk = f"(:action {a.name}"
        if a.executability:
            chunk += " :executable " + _render_condition(a.executability)
        if a.effect_props:
            rendered = []
            for ep in a.effect_props:
                # a bare `when` or `executable` would read back as a keyword
                if ep.conditions or str(ep.effect) in ("when", "executable"):
                    rendered.append(f"(when {_render_condition(ep.conditions)} {_render_literal(ep.effect)})")
                else:
                    rendered.append(_render_literal(ep.effect))
            chunk += " :effect " + " ".join(rendered)
        for kp in a.knowledge_props:
            chunk += f" :observe {kp.fluent}"
        chunk += ")"
        lines.append(chunk)
    for g in domain.goals:
        if len(g.literals) == 1:
            lines.append(f"(:goal {g.kind} {_render_literal(g.literals[0])})")
        else:
            lines.append(f"(:goal {g.kind} (and " + " ".join(_render_literal(l) for l in g.literals) + "))")
    return "\n".join(lines) + ("\n" if lines else "")
