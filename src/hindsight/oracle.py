"""Brute-force possible-worlds semantics, used as ground truth.

The initial worlds are numbered 0..W-1, and a world's state is kept
bit-sliced (Biham, FSE 1997): a *column* is an int whose bit i is one
fluent's value in initial world i, and a time point's state is one
column per fluent, in `domain.fluents` order.  A belief state is a set
of worlds; here it is a *survivor mask*, an int over the same world
numbers.  This encoding is the oracle's own: it shares neither code nor
bit layout with the engine's two-bits-per-literal rows.

Physical actions map every world at once.  An effect rule's condition
is the AND of the columns it needs true and the complements of those it
needs false, all read on the pre-state, so simultaneous actions never
chain within a step; the rules' adds are unioned, and deletes applied
last: post[k] = (pre[k] | adds_k) & ~dels_k (_advance).  A step costs
O(rules) int operations however many worlds there are.  Worlds evolve
the same way whatever is observed, so the columns depend only on the
actions taken; an observation only ANDs the survivor mask with the
observed fluent's pre-state column, or its complement (_observe).  A
step that observes one fluent both ways so keeps no world.

A domain is compiled once, and kept until a query names another
domain.  Every effect proposition becomes a (fluents needed true,
fluents needed false, effect fluent, sign) rule.  The initial worlds
are enumerated directly instead of filtered out of all 2^n
assignments: the init literals fix their fluents, each oneof group
picks exactly one member (making its other literals false), and the
fluents neither mentions are free, so the worlds are the consistent
oneof choices times every assignment of the free fluents, in that
order (`initial`).  The time-zero columns are built from that structure,
not world by world (`start`): a fixed fluent's column is one block of
ones or zeros per choice, and a free fluent's a periodic pattern,
because the free assignments count upwards within each choice.  The
capacity cap counts those initial worlds (MAX_ORACLE_WORLDS), not
fluents: sickness(n) has 2n fluents but only n worlds.  A second cap
bounds the work of finding them, since oneof choices can contradict a
later group exponentially often (_consistent_choices).

Queries use hindsight semantics: "was l true at time t" is answered
from the initial worlds that survive *all* observations along the whole
trace, evolved forward t steps: the final survivor mask applied to the
time-t columns.

soundness_check checks a claim as one mask operation.  For each time
point of a branch it keeps an *allowed* row in the engine's
literal-bit numbering: the positive literal's bit when the fluent is
true in every survivor, the negative one's when it is false in every
survivor.  The engine claims the literals of its layer row `known`, so
the wrong claims are `known & ~allowed`; literals and the violation
text are built only when there is one.  The numbering is read once per
compiled domain from `CompiledDomain.bit`, the table that names the
engine's bits.  That is the whole of what the check takes from the
engine besides its claims: the allowed rows come from the columns
alone, through no engine inference, so an engine that derives a wrong
literal cannot make the oracle agree with it.

soundness_check does not replay a branch from time zero.  The compiled
domain keeps a survivor table from each engine `Timeline` it checked to
the columns of that timeline's chain (`prev` links back to time zero),
its survivor mask and its allowed rows.  A branch walks `prev` back to
the nearest timeline in the table, or to time zero, and extends forward
from there one link at a time, each link's step compiled once per
(names, observation).  When the links observe nothing that narrows the
survivor mask, the allowed rows already known stand, and one row per
new time point is added; otherwise every row is recomputed.  A state
checked right after its parent thus costs one step per branch.  This
rests on timelines never changing: a timeline's chain, and so its
columns and survivors, is fixed when it is made.  Entries hold their
timeline, so its id cannot be reused while the entry lives, and a hit
also compares identity.  The table is dropped with the compiled domain
when a query names another domain, and emptied whenever it reaches
MAX_SURVIVOR_ENTRIES, after which branches replay from time zero again.

The public functions keep worlds as frozensets of fluent names; they
encode their arguments, run the column core and decode the result.  All
of it is deliberately exhaustive and simple — it exists to cross-check
the polynomial engine, so it shares no inference code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from hindsight.model import Fluent, Literal, PlanningDomain, complement

if TYPE_CHECKING:  # pragma: no cover
    from hindsight.engine import CompiledDomain, EpistemicState, Timeline

# 2**16 initial worlds is the most the exhaustive enumeration will attempt.
MAX_ORACLE_FLUENTS = 16
MAX_ORACLE_WORLDS = 1 << MAX_ORACLE_FLUENTS
# The survivor table and the compiled link steps of one domain are each
# emptied when they reach this many entries.
MAX_SURVIVOR_ENTRIES = 1 << 12

WorldState = frozenset


class OracleCapacityError(Exception):
    """Domain too large for exhaustive world enumeration."""


@dataclass(frozen=True)
class TraceStep:
    """One time step of a branch: actions taken plus observations made.

    Observations are (fluent, value) pairs evaluated on the step's
    pre-state; a sensing action reports the value the world had when it
    looked, even when a physical action fires in the same step.
    """

    actions: tuple[str, ...] = ()
    observations: tuple[tuple[Fluent, bool], ...] = ()


# An effect rule: (fluents needed true, fluents needed false, effect
# fluent, sign), fluents as indices into `domain.fluents`.
_Rule = tuple[tuple[int, ...], tuple[int, ...], int, bool]
# A compiled trace step: ((fluent, observed value) pairs, effect rules).
_Step = tuple[tuple[tuple[int, bool], ...], tuple[_Rule, ...]]
# One time point: entry k is fluent k's column.
_Columns = tuple[int, ...]


class _Survivors(NamedTuple):
    """A chain's columns at times 0..t, the mask of the initial worlds
    that survive its observations, and its allowed row per time point."""

    columns: tuple[_Columns, ...]
    mask: int
    allowed: tuple[int, ...]


def _advance(columns: _Columns, rules: tuple[_Rule, ...], everyone: int) -> _Columns:
    """Every world's successor: conditions on the pre-state, effects folded.

    Simultaneous actions all read the same pre-state; their add and
    delete sets are unioned, deletes applied last.  `everyone` is the
    mask of all the worlds.
    """
    if not rules:
        return columns
    post = list(columns)
    dels = []
    for need, forbid, k, positive in rules:
        fires = everyone
        for j in need:
            fires &= columns[j]
        for j in forbid:
            fires &= ~columns[j]
        if positive:
            post[k] |= fires
        elif fires:
            dels.append((k, fires))
    for k, fires in dels:
        post[k] &= ~fires
    return tuple(post)


def _observe(columns: _Columns, observations: Iterable[tuple[int, bool]], mask: int) -> int:
    """The worlds of `mask` that show every observed value in `columns`."""
    for k, value in observations:
        mask &= columns[k] if value else ~columns[k]
    return mask


def _allowed(columns: _Columns, mask: int, bits: Sequence[tuple[int, int]]) -> int:
    """The literal bits (`bits[k]`: fluent k's true and false bit) that
    hold in every world of the non-empty `mask`."""
    row = 0
    for column, (true_bit, false_bit) in zip(columns, bits):
        column &= mask
        if column == mask:
            row |= true_bit
        elif not column:
            row |= false_bit
    return row


def _transpose(columns: _Columns, mask: int) -> list[int]:
    """The state, as an int over fluent indices, of each world of `mask`,
    in world order."""
    width = mask.bit_length()
    # bit strings read lowest bit first, so index i is world i
    rows = [format(column, f"0{width}b")[::-1] for column in columns]
    members = [i for i, bit in enumerate(format(mask, "b")[::-1]) if bit == "1"]
    return [sum(1 << k for k, row in enumerate(rows) if row[i] == "1") for i in members]


def _columns(states: Sequence[int], n: int) -> _Columns:
    """The columns of a few world states over n fluents, world i being
    `states[i]`."""
    return tuple(sum(1 << i for i, state in enumerate(states) if state >> k & 1) for k in range(n))


class _Worlds:
    """A domain compiled to world columns."""

    def __init__(self, domain: PlanningDomain):
        self.domain = domain
        self.fluents = domain.fluents
        self.index = {f: k for k, f in enumerate(domain.fluents)}
        self.rules = {
            a.name: tuple(self._rule(ep.conditions, ep.effect) for ep in a.effect_props)
            for a in domain.actions
        }
        # (names, observation) of a timeline link -> its compiled step
        self.link_steps: dict[tuple, _Step] = {}
        # id(timeline) -> (timeline, what survives its chain)
        self.survivors: dict[int, tuple[Timeline, _Survivors]] = {}
        # the compiled domain whose literal numbering the allowed rows
        # use, and that numbering: per fluent, its true and false bit
        self.numbered: CompiledDomain | None = None
        self.bits: tuple[tuple[int, int], ...] = ()

    def _rule(self, conditions: Iterable[Literal], effect: Literal) -> _Rule:
        need: list[int] = []
        forbid: list[int] = []
        for c in conditions:
            (need if c.positive else forbid).append(self.index[c.fluent])
        return tuple(need), tuple(forbid), self.index[effect.fluent], effect.positive

    def _masks(self, literals: Iterable[Literal]) -> tuple[int, int]:
        """(mask of the positive literals' fluents, mask of the negative ones)."""
        need = forbid = 0
        for lit in literals:
            if lit.positive:
                need |= 1 << self.index[lit.fluent]
            else:
                forbid |= 1 << self.index[lit.fluent]
        return need, forbid

    def _assignment(self, literals: Iterable[Literal]) -> tuple[int, int] | None:
        """(fixed fluents, their values) making every literal true, or
        None when two of the literals contradict each other."""
        need, forbid = self._masks(literals)
        if need & forbid:
            return None
        return need | forbid, need

    @cached_property
    def choices(self) -> tuple[tuple[int, ...], int]:
        """(the value of each consistent init/oneof choice, in the order
        they are found; the mask of the free fluents).

        Raises OracleCapacityError before allowing more than
        MAX_ORACLE_WORLDS worlds.
        """
        base = self._assignment(self.domain.init)
        if base is None:
            return (), 0
        groups = []
        fixed = base[0]
        for oo in self.domain.oneofs:
            choices = []
            for i, lit in enumerate(oo.literals):
                others = [complement(o) for j, o in enumerate(oo.literals) if j != i]
                choice = self._assignment([lit, *others])
                if choice is not None:
                    choices.append(choice)
            groups.append(choices)
            need, forbid = self._masks(oo.literals)
            fixed |= need | forbid
        free = (1 << len(self.fluents)) - 1 & ~fixed
        per_choice = 1 << free.bit_count()
        values: list[int] = []
        for _fixed, value in _consistent_choices(base, groups):
            if (len(values) + 1) * per_choice > MAX_ORACLE_WORLDS:
                raise OracleCapacityError(
                    f"more than {MAX_ORACLE_WORLDS} initial worlds exceeds the "
                    f"2**{MAX_ORACLE_FLUENTS}-world cap for exhaustive enumeration"
                )
            values.append(value)
        return tuple(values), free

    @cached_property
    def initial(self) -> tuple[int, ...]:
        """Every world consistent with the init literals and oneof groups,
        as an int over fluent indices: each choice, with every
        assignment of the free fluents in increasing order."""
        values, free = self.choices
        return tuple(value | sub for value in values for sub in _submasks(free))

    @cached_property
    def everyone(self) -> int:
        """The mask of all the initial worlds."""
        values, free = self.choices
        return (1 << (len(values) << free.bit_count())) - 1

    @cached_property
    def start(self) -> _Columns:
        """The time-zero columns: bit i of entry k is fluent k in world i
        of `initial`, built per fluent rather than per world."""
        values, free = self.choices
        everyone = self.everyone
        per_choice = 1 << free.bit_count()
        width = len(values) * per_choice
        blocks = {ord("1"): "1" * per_choice, ord("0"): "0" * per_choice}
        columns = []
        half = 1  # half the period of the next free fluent's column
        for k in range(len(self.fluents)):
            bit = 1 << k
            if free & bit:
                # the free assignments count upwards, lowest fluent
                # first: false for `half` worlds, then true for `half`
                column, span = ((1 << half) - 1) << half, 2 * half
                while span < width:
                    column |= column << span
                    span *= 2
                columns.append(column & everyone)
                half *= 2
            else:
                # one block of per_choice bits per choice, written
                # highest world first
                chosen = "".join(["1" if value & bit else "0" for value in reversed(values)])
                columns.append(int(chosen.translate(blocks) or "0", 2))
        return tuple(columns)

    def encode(self, world: Iterable[Fluent]) -> int:
        return sum(1 << self.index[f] for f in world)

    def decode(self, world: int) -> WorldState:
        return frozenset(f for k, f in enumerate(self.fluents) if world >> k & 1)

    def step_rules(self, actions: Iterable[str]) -> tuple[_Rule, ...]:
        return tuple(r for name in actions for r in self.rules[name])

    def compile_step(self, step: TraceStep) -> _Step:
        observations = tuple((self.index[f], bool(value)) for f, value in step.observations)
        return observations, self.step_rules(step.actions)

    def replay(self, steps: Iterable[TraceStep]) -> tuple[list[_Columns], int]:
        """The columns at times 0..len(steps), and the mask of the
        initial worlds that survive the whole trace."""
        columns = [self.start]
        mask = self.everyone
        for step in steps:
            observations, rules = self.compile_step(step)
            mask = _observe(columns[-1], observations, mask)
            columns.append(_advance(columns[-1], rules, self.everyone))
        return columns, mask

    def numbering(self, compiled: CompiledDomain) -> tuple[tuple[int, int], ...]:
        """Per fluent, the bits of its true and its false literal in
        `compiled`'s numbering.  The table's allowed rows are in the
        numbering last read; one that differs empties the table."""
        if compiled is not self.numbered:
            pairs = [[0, 0] for _ in self.fluents]
            for lit in compiled.lits:
                pairs[self.index[lit.fluent]][not lit.positive] = 1 << compiled.bit(lit)
            bits = tuple(map(tuple, pairs))
            if bits != self.bits:
                self.survivors.clear()
            self.numbered, self.bits = compiled, bits
        return self.bits

    def link_step(self, link: Timeline) -> _Step:
        """The compiled step from `link.prev` to `link`."""
        key = (link.names, link.observation)
        step = self.link_steps.get(key)
        if step is None:
            if len(self.link_steps) >= MAX_SURVIVOR_ENTRIES:
                self.link_steps.clear()
            seen = () if link.observation is None else (link.observation,)
            step = self.link_steps[key] = self.compile_step(TraceStep(link.names, seen))
        return step

    def surviving(self, timeline: Timeline) -> _Survivors:
        """What survives `timeline`'s chain, with allowed rows in the
        numbering last read: extended from the nearest timeline on the
        chain already in the table, or from time zero."""
        table = self.survivors
        pending = []
        link = timeline
        while True:
            entry = table.get(id(link))
            if entry is not None and entry[0] is link:
                if not pending:
                    return entry[1]
                columns, mask, allowed = entry[1]
                break
            if link.prev is None:
                columns, mask, allowed = (self.start,), self.everyone, ()
                break
            pending.append(link)
            link = link.prev
        before = mask
        for link in reversed(pending):
            observations, rules = self.link_step(link)
            mask = _observe(columns[-1], observations, mask)
            columns += (_advance(columns[-1], rules, self.everyone),)
        if mask == before:
            # the rows known still stand; add one per new time point
            for c in columns[len(allowed):]:
                allowed += (_allowed(c, mask, self.bits),)
        else:
            allowed = tuple(_allowed(c, mask, self.bits) for c in columns)
        survivors = _Survivors(columns, mask, allowed)
        if len(table) >= MAX_SURVIVOR_ENTRIES:
            table.clear()
        table[id(timeline)] = (timeline, survivors)
        return survivors


_last: _Worlds | None = None


def _compiled(domain: PlanningDomain) -> _Worlds:
    """The compiled form of `domain`.

    Only the most recently used domain is kept, compared by identity:
    callers check many states of one domain in a row, and a cache keyed
    by every domain seen would keep them all alive.  The survivor table
    and the compiled link steps go with it.
    """
    global _last
    if _last is None or _last.domain is not domain:
        _last = _Worlds(domain)
    return _last


def _submasks(mask: int) -> Iterator[int]:
    """Every int whose set bits are a subset of `mask`'s, in increasing
    order, 0 first."""
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        if not sub:
            return


def _consistent_choices(
    assignment: tuple[int, int], groups: Sequence[Sequence[tuple[int, int]]]
) -> Iterator[tuple[int, int]]:
    """Every way of extending `assignment` by one choice per oneof group
    without contradicting it or an earlier choice, depth first.  The walk
    keeps its own stack, so any number of groups fits.

    The world cap counts only the choices yielded, and a walk can try
    exponentially many partial choices that all come to a contradiction
    later.  So the walk raises OracleCapacityError once it has tried more
    than (len(groups) + 1) * MAX_ORACLE_WORLDS of them: a walk within the
    cap and without dead ends tries at most that many."""
    cap = (len(groups) + 1) * MAX_ORACLE_WORLDS
    tried = 0
    stack = [(0, assignment)]
    while stack:
        tried += 1
        if tried > cap:
            raise OracleCapacityError(
                f"more than {cap} partial oneof choices exceeds the work cap "
                "for exhaustive enumeration"
            )
        depth, (fixed, value) = stack.pop()
        if depth == len(groups):
            yield fixed, value
            continue
        for g_fixed, g_value in reversed(groups[depth]):
            if not (value ^ g_value) & fixed & g_fixed:
                stack.append((depth + 1, (fixed | g_fixed, value | g_value)))


def initial_sigma(domain: PlanningDomain) -> frozenset:
    """All worlds consistent with the init literals and oneof constraints."""
    worlds = _compiled(domain)
    return frozenset(map(worlds.decode, worlds.initial))


def result_state(domain: PlanningDomain, world: WorldState, actions: Iterable[str]) -> WorldState:
    """Pointwise transition: conditions on the pre-state, effects folded.

    Simultaneous actions all read the same pre-state; their add and
    delete sets are unioned, deletes applied last.
    """
    (post,) = apply_step(domain, (world,), TraceStep(tuple(actions)))
    return post


def apply_step(domain: PlanningDomain, sigma: Iterable, step: TraceStep) -> frozenset:
    """One trace step over a belief state: observation filter, then effects."""
    worlds = _compiled(domain)
    states = [worlds.encode(world) for world in sigma]
    columns = _columns(states, len(worlds.fluents))
    everyone = (1 << len(states)) - 1
    observations, rules = worlds.compile_step(step)
    mask = _observe(columns, observations, everyone)
    return frozenset(map(worlds.decode, _transpose(_advance(columns, rules, everyone), mask)))


def entails(sigma: frozenset, literal: Literal) -> bool:
    """True when the literal holds in every world.  Empty sigma is an error."""
    if not sigma:
        raise ValueError("entailment query against an empty belief state")
    # the AND and the OR of the worlds, over the literal's fluent alone
    every = all(literal.fluent in world for world in sigma)
    some = any(literal.fluent in world for world in sigma)
    return every if literal.positive else not some


def tqs_timeline(domain: PlanningDomain, steps: tuple) -> tuple:
    """Hindsight belief states along a trace.

    Element t is the set of time-t states of those initial worlds that
    survive every observation in the *entire* trace — so later sensing
    sharpens what is known about earlier times.  All elements are empty
    when the observations contradict each other.
    """
    worlds = _compiled(domain)
    columns, mask = worlds.replay(steps)
    return tuple(frozenset(map(worlds.decode, _transpose(c, mask))) for c in columns)


def tqs_entails(domain: PlanningDomain, steps: tuple, literal: Literal, t: int) -> bool:
    """Was `literal` true at time t, given everything the trace revealed?"""
    if not 0 <= t <= len(steps):
        raise ValueError(f"query time {t} outside trace of length {len(steps)}")
    return entails(tqs_timeline(domain, steps)[t], literal)


# ---------------------------------------------------------------------------
# Cross-checking the engine


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of replaying an engine state against the world semantics."""

    checked: int = 0
    violations: tuple[str, ...] = ()
    vacuous_branches: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def branch_trace(state: EpistemicState, branch_id: int) -> tuple:
    """The action/observation timeline a branch lived through.

    A branch's newest timeline links back step by step to time zero,
    through its ancestors' timelines before its split, so each link is
    one step: the occurrences it applied and what it observed.  At its
    split step a child's link is its own, with the opposite observation
    to the one its parent continued with.
    """
    return tuple(
        TraceStep(link.names, () if link.observation is None else (link.observation,))
        for link in state.branches[branch_id].timeline.chain()[1:]
    )


def soundness_check(state: EpistemicState) -> SoundnessReport:
    """Verify every final-stage knowledge claim against the world semantics.

    Only the final evaluation stage is checked: knowledge never shrinks
    as evaluation advances, so the final stage covers all earlier ones.
    Branches whose observation sequence no world can realize are
    vacuously sound and reported separately.  Each branch's survivors
    extend those of the nearest timeline on its chain that was checked
    before, and its claims are checked against their allowed rows (see
    the module docstring).
    """
    if state.inconsistent:
        raise ValueError("cannot soundness-check an inconsistent state")
    worlds = _compiled(state.domain)
    worlds.numbering(state.compiled)
    checked = 0
    violations: list[str] = []
    vacuous: list[int] = []
    for br in sorted(state.branches):
        timeline = state.branches[br].timeline
        survivors = worlds.surviving(timeline)
        if not survivors.mask:
            vacuous.append(br)
            continue
        known = timeline.layer
        checked += sum(map(int.bit_count, known))
        if any(map(int.__and__, known, map(int.__invert__, survivors.allowed))):
            violations += _violations(worlds, state, br, survivors)
    return SoundnessReport(checked, tuple(violations), tuple(vacuous))


def _violations(
    worlds: _Worlds, state: EpistemicState, br: int, survivors: _Survivors
) -> list[str]:
    """One message per literal that branch `br` claims at some time and
    a surviving world contradicts, by time, then in literal order."""
    out = []
    for t, allowed in enumerate(survivors.allowed):
        wrong = [
            lit for lit in state.known_literals(br, t)
            if not allowed >> state.compiled.bit(lit) & 1
        ]
        if wrong:
            at_t = set(_transpose(survivors.columns[t], survivors.mask))
            shown = sorted(sorted(worlds.decode(w)) for w in at_t)
            out += (
                f"branch {br}: claims {lit} at time {t}, but worlds {shown} disagree"
                for lit in sorted(wrong)
            )
    return out
