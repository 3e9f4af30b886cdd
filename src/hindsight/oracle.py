"""Brute-force possible-worlds semantics, used as ground truth.

A world is an int whose bit k is true when fluent k of the domain (in
`domain.fluents` order) holds.  This encoding is the oracle's own: it
shares neither code nor bit layout with the engine's two-bits-per-literal
rows.  A belief state (sigma) is a set of worlds.  Physical actions map
each world pointwise through add/delete effects whose conditions are
evaluated on that world's pre-state; sensing filters sigma down to the
worlds that agree with the observed value.

A domain is compiled once, and kept until a query names another
domain.  Every effect proposition becomes a (positive-condition mask,
negative-condition mask, effect bit, sign) row.  The initial worlds
are enumerated directly instead of filtered out of all 2^n
assignments: the init literals fix their fluents, each oneof group
picks exactly one member (making its other literals false), and the
fluents neither mentions are free, so the worlds are the consistent
oneof choices times every assignment of the free fluents.  The
capacity cap counts those initial worlds (MAX_ORACLE_WORLDS), not
fluents: sickness(n) has 2n fluents but only n worlds.  A second cap
bounds the work of finding them, since oneof choices can contradict a
later group exponentially often (_consistent_choices).

Queries use hindsight semantics: "was l true at time t" is answered
from the initial worlds that survive *all* observations along the whole
trace, evolved forward t steps.  A trace is followed one step at a
time over the histories (world at times 0..t) of the survivors so far
(_extend): keep the histories whose last world shows the step's
observation, then append that world's successor.  soundness_check
folds the survivors of a branch's trace at every time point into an
all-true mask (AND) and an any-true mask (OR), so each claimed literal
is one bit test.

soundness_check does not replay a branch from time zero.  The compiled
domain keeps a survivor table from each engine `Timeline` it checked to
the histories that survive that timeline's chain (`prev` links back to
time zero).  A branch walks `prev` back to the nearest timeline in the
table, or to time zero, and extends forward from there one link at a
time, each link's step compiled once per (names, observation).  A state
checked right after its parent thus costs one step per branch.  This
rests on timelines never changing: a timeline's chain, and so its
survivors, is fixed when it is made.  Entries hold their timeline, so
its id cannot be reused while the entry lives, and a hit also compares
identity.  The table is dropped with the compiled domain when a query
names another domain, and emptied whenever it reaches
MAX_SURVIVOR_ENTRIES, after which branches replay from time zero again.

The public functions keep worlds as frozensets of fluent names; they
encode their arguments, run the int core and decode the result.  All
of it is deliberately exponential and simple — it exists to
cross-check the polynomial engine, so it shares no inference code with
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from hindsight.model import Fluent, Literal, PlanningDomain, complement

if TYPE_CHECKING:  # pragma: no cover
    from hindsight.engine import EpistemicState, Timeline

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


# A compiled trace step: (observed fluents, their observed values, effect
# rows).  A step that observes one fluent both ways gets values -1, which
# no world matches.
_Step = tuple[int, int, tuple[tuple[int, int, int, bool], ...]]
# A world's states at times 0..t.
_History = tuple[int, ...]


def _result(world: int, rules: tuple) -> int:
    """Pointwise transition: conditions on the pre-state, effects folded.

    Simultaneous actions all read the same pre-state; their add and
    delete sets are unioned, deletes applied last.
    """
    adds = dels = 0
    for need, forbid, bit, positive in rules:
        if world & need == need and not world & forbid:
            if positive:
                adds |= bit
            else:
                dels |= bit
    return (world | adds) & ~dels


def _extend(histories: Iterable[_History], step: _Step) -> list[_History]:
    """One step over histories: keep those whose last world shows the
    step's observation, then append that world's successor."""
    seen, value, rules = step
    return [h + (_result(h[-1], rules),) for h in histories if h[-1] & seen == value]


class _Worlds:
    """A domain compiled to int worlds."""

    def __init__(self, domain: PlanningDomain):
        self.domain = domain
        self.fluents = domain.fluents
        self.index = {f: k for k, f in enumerate(domain.fluents)}
        self.full = (1 << len(domain.fluents)) - 1
        self.rules = {
            a.name: tuple(
                self._masks(ep.conditions)
                + (1 << self.index[ep.effect.fluent], ep.effect.positive)
                for ep in a.effect_props
            )
            for a in domain.actions
        }
        # (names, observation) of a timeline link -> its compiled step
        self.link_steps: dict[tuple, _Step] = {}
        # id(timeline) -> (timeline, histories surviving its chain)
        self.survivors: dict[int, tuple[Timeline, list[_History]]] = {}

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
    def initial(self) -> tuple[int, ...]:
        """Every world consistent with the init literals and oneof groups.

        Raises OracleCapacityError before enumerating more than
        MAX_ORACLE_WORLDS worlds.
        """
        base = self._assignment(self.domain.init)
        if base is None:
            return ()
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
        free = self.full & ~fixed
        per_choice = 1 << bin(free).count("1")
        values: list[int] = []
        for _fixed, value in _consistent_choices(base, groups):
            if (len(values) + 1) * per_choice > MAX_ORACLE_WORLDS:
                raise OracleCapacityError(
                    f"more than {MAX_ORACLE_WORLDS} initial worlds exceeds the "
                    f"2**{MAX_ORACLE_FLUENTS}-world cap for exhaustive enumeration"
                )
            values.append(value)
        return tuple(value | sub for value in values for sub in _submasks(free))

    def encode(self, world: Iterable[Fluent]) -> int:
        return sum(1 << self.index[f] for f in world)

    def decode(self, world: int) -> WorldState:
        return frozenset(f for k, f in enumerate(self.fluents) if world >> k & 1)

    def step_rules(self, actions: Iterable[str]) -> tuple:
        return tuple(r for name in actions for r in self.rules[name])

    def compile_step(self, step: TraceStep) -> _Step:
        seen = value = 0
        for fluent, observed in step.observations:
            bit = 1 << self.index[fluent]
            if seen & bit and bool(value & bit) != observed:
                return seen, -1, ()
            seen |= bit
            if observed:
                value |= bit
        return seen, value, self.step_rules(step.actions)

    def histories(self, steps: Iterable[TraceStep]) -> list[_History]:
        """The history of every initial world that survives the trace."""
        out = [(w0,) for w0 in self.initial]
        for step in steps:
            out = _extend(out, self.compile_step(step))
        return out

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

    def surviving(self, timeline: Timeline) -> list[_History]:
        """The histories that survive `timeline`'s chain: extended from
        the nearest timeline on the chain already in the table, or from
        time zero."""
        pending = []
        link = timeline
        while True:
            entry = self.survivors.get(id(link))
            if entry is not None and entry[0] is link:
                if not pending:
                    return entry[1]
                histories = entry[1]
                break
            if link.prev is None:
                histories = self.histories(())  # time zero applies no step
                break
            pending.append(link)
            link = link.prev
        for link in reversed(pending):
            histories = _extend(histories, self.link_step(link))
        if len(self.survivors) >= MAX_SURVIVOR_ENTRIES:
            self.survivors.clear()
        self.survivors[id(timeline)] = (timeline, histories)
        return histories


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
    """Every int whose set bits are a subset of `mask`'s, 0 first."""
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
    worlds = _compiled(domain)
    return worlds.decode(_result(worlds.encode(world), worlds.step_rules(actions)))


def apply_step(domain: PlanningDomain, sigma: Iterable, step: TraceStep) -> frozenset:
    """One trace step over a belief state: observation filter, then effects."""
    worlds = _compiled(domain)
    histories = _extend([(worlds.encode(world),) for world in sigma], worlds.compile_step(step))
    return frozenset(worlds.decode(history[-1]) for history in histories)


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
    histories = worlds.histories(steps)
    return tuple(
        frozenset(worlds.decode(history[t]) for history in histories)
        for t in range(len(steps) + 1)
    )


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
    before (see the module docstring).
    """
    if state.inconsistent:
        raise ValueError("cannot soundness-check an inconsistent state")
    worlds = _compiled(state.domain)
    index = worlds.index
    checked = 0
    violations: list[str] = []
    vacuous: list[int] = []
    for br in sorted(state.branches):
        histories = worlds.surviving(state.branches[br].timeline)
        if not histories:
            vacuous.append(br)
            continue
        for t in range(state.horizon + 1):
            every, some = worlds.full, 0
            for history in histories:
                every &= history[t]
                some |= history[t]
            claims = state.known_literals(br, t)
            checked += len(claims)
            wrong = [
                lit for lit in claims
                if not (every if lit.positive else ~some) >> index[lit.fluent] & 1
            ]
            for lit in sorted(wrong):
                at_t = {history[t] for history in histories}
                violations.append(
                    f"branch {br}: claims {lit} at time {t}, "
                    f"but worlds {sorted(sorted(worlds.decode(w)) for w in at_t)} disagree"
                )
    return SoundnessReport(checked, tuple(violations), tuple(vacuous))
