"""Polynomial-time knowledge tracking with branching on sensing.

The state records, per branch, a triangular family of knowledge layers:
layer t1 holds everything established about each time point t <= t1
after t1 steps have been evaluated.  Layers only ever grow — later
sensing can sharpen what is known about the past (postdiction), never
retract it.  Literals are interned as bit positions so a layer is one
int per time point and the closure rules become mask arithmetic.

A branch's future depends only on its own newest layer and the effects
applied on its history, so one branch is one immutable `Timeline`.
`Timeline.step` validates occurrences, checks executability against
current knowledge and interference between simultaneous effects,
resolves sensing (a fluent it does not know splits the timeline into a
true and a false successor), and closes the new layer under the
inference rules, each of which relates one step pair (t, t+1) or, for
the oneof rule, time point 0 alone:

* causation: an applied effect whose conditions are all known produces
  knowledge of the effect at the next time point;
* positive postdiction: if the effect is known after but its complement
  was known before, the conditions must have held;
* negative postdiction: if the complement of the effect is known after
  and all conditions but one were known, the remaining one failed;
* forward/backward persistence: a literal carries across a step unless
  some applied effect could have interfered with it;
* initial-state exclusivity: "exactly one of" constraints eliminate
  and conclude alternatives as their siblings are ruled in or out.

Each timeline links back (`prev`) to the one it was stepped from and
keeps the occurrences of that step, so a branch's newest timeline is
its whole history.  Both sides of a split link back to the same parent
timeline and start from its newest layer and applied-effect history, so
each re-evaluates the shared past under its own sensing outcome.
Branches never communicate after the split.  The search steps timelines
alone; `EpistemicState` is the multi-branch view (branch numbering over
each branch's newest timeline) that replay, the oracle and traces read.
Its `step` steps each branch's timeline, and every layer, occurrence,
observation, sensing result and split it reports is read off the chain:
layer t1 of a branch is link t1's `layer`, and a branch's split is its
`parent` and `created_at` with the observation of the link that step
made, kept nowhere else.

A state's domain is compiled once into a `CompiledDomain` that all its
timelines share.  Each effect proposition becomes masks over the
literal bits: its conditions, their complements (the falsifiers) and
its effect.  "Possibly fired" is then `row & falsifier == 0`,
causation is `row & cond == cond`, positive postdiction adds `cond`,
and negative postdiction adds the complement of the one condition not
yet known to hold, or of every condition when all are known.

An occurrence set is validated once per compiled domain.  Of the
checks on a set, only executability reads knowledge; an unknown or
repeated action, two sensors and interfering effects depend on the
names alone.  `CompiledDomain.occurrences` keeps, for each set that
passed them, the union of its actions' executability masks (`need`),
its rules and its sensed bit, so stepping a set seen before costs one
mask test, `row & need == need`.  A new set, or one whose `need` the
row misses, runs every check, so each rejection raises the same
exception with the same message; a set that raised is not kept.  So
the interference check runs once per set that passes it, whether the
set holds one action or many.

Closure is incremental.  All rules are monotone, so a layer has one
least fixpoint above its starting rows, and any order of rule
application that stops only when no rule adds anything reaches it.
Layer h+1 starts as layer h, which is already closed over the pairs
below h, plus the sensing result at h and an empty row h+1.

A step that does not split (no sensor, or a look at a value already
known) adds nothing to row h, and then one pass of the pair rules is
the closure: row h+1 is what persists from row h (every literal whose
complement no applied effect may have produced) plus the effect of
every rule whose conditions row h holds, and the new layer shares the
old rows.  With row h fixed that pass is the pair's fixpoint, because
the rules that read row h+1 write only row h, and none of them can add
to row h:

* backward persistence carries back only literals that no applied
  effect may have produced; a persisted one is in row h already, and a
  caused effect possibly fired;
* positive postdiction needs an effect in row h+1 and its complement
  in row h, so the effect did not persist (row h is consistent) but was
  caused; the interference rules allow one producer per literal per
  step, so its own rule caused it, whose conditions row h holds;
* negative postdiction needs an effect's complement in row h+1, which
  persisted only if the effect's rule did not possibly fire, or was
  caused by an opposite rule, whose conditions the interference rules
  require to exclude this rule's; either way row h holds the
  complement of one of the rule's conditions, and that condition,
  already known false, is the only one the rule can blame.

Row h+1 has no clash either: a literal persists only if its complement
did not possibly fire, while a caused effect did, and two opposite
caused effects would need row h to hold mutually exclusive conditions.
The old rows are shared and have none, since only a consistent timeline
is stepped.  So a step that does not split makes a consistent successor
without testing it; the checked build asserts that its new row has no
clash.

A split adds a sensing result to row h, so the rules may postdict into
the past: a worklist over pairs starts at the changed points h and
h+1, and a pair that changes a row requeues the pairs sharing that row
(and the oneof rule for point 0).  Seeding with every point instead
closes a layer from scratch, which the assertion-checked build uses to
confirm both paths: for a step that does not split, that no row <= h
changes and row h+1 is the one-pass row.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from hindsight.model import (
    Action,
    EffectProposition,
    Literal,
    PlanningDomain,
    validate_domain,
)
from hindsight.symmetry import find_families

CHECKS_ENV_VAR = "HINDSIGHT_CHECK"


class EngineError(Exception):
    """Base class for rejected steps and internal failures."""


class ConcurrencyError(EngineError):
    """Simultaneous occurrences violate an interference rule."""


class ExecutabilityError(EngineError):
    """An action occurred whose executability condition is not known."""


class BranchBudgetError(EngineError):
    """Sensing would create a branch index beyond the allowed maximum."""


class StepBudgetError(EngineError):
    """The state has already reached its step horizon."""


# -- per-domain tables ---------------------------------------------------------


def _check_interference(
    eps: tuple[EffectProposition, ...], step: int, branch: int
) -> None:
    """Reject effect pairs that could clash within one step."""
    for i, ep in enumerate(eps):
        for ep1 in eps[i + 1 :]:
            if ep.effect == ep1.effect:
                raise ConcurrencyError(
                    f"'{ep.id}' and '{ep1.id}' both produce {ep.effect} "
                    f"at step {step} on branch {branch}"
                )
            if ep.effect.fluent == ep1.effect.fluent:
                # opposite signs; tolerated only when their conditions
                # are mutually exclusive on some fluent
                down = ep if not ep.effect.positive else ep1
                up = ep1 if down is ep else ep
                exclusive = any(
                    Literal(c.fluent, True) in down.conditions
                    and Literal(c.fluent, False) in up.conditions
                    for c in down.conditions
                )
                if not exclusive:
                    raise ConcurrencyError(
                        f"'{ep.id}' and '{ep1.id}' clash on "
                        f"'{ep.effect.fluent}' at step {step} on branch {branch}"
                    )


def _possibly_fired(rules: tuple, row: int) -> int:
    """Mask of effect literals some applied proposition of a step may
    have produced, judging its conditions by knowledge `row`."""
    mask = 0
    for _cond, falsifier, eff, _effc, _lone in rules:
        if not row & falsifier:
            mask |= eff
    return mask


def _clashes(compiled: CompiledDomain, rows: Iterable[int]) -> bool:
    """Does some row hold a literal and its complement?"""
    clash = 0
    for row in rows:
        clash |= row & (row >> 1)
    return bool(clash & compiled.even)


class CompiledAction:
    """One action's masks: what must be known to run it (`need`), its
    compiled effect rules, the literals it produces (`effects`), and the
    bit of the fluent it senses (-1 for a physical action)."""

    __slots__ = ("action", "name", "need", "rules", "effects", "sensed")

    def __init__(self, action: Action, need: int, rules: tuple, sensed: int):
        self.action = action
        self.name = action.name
        self.need = need
        self.rules = rules
        self.effects = 0
        for _cond, _falsifier, eff, _effc, _lone in rules:
            self.effects |= eff
        self.sensed = sensed


class CompiledDomain:
    """A validated domain's bit layout, action masks and closure.

    Bit 2k is fluent k true, bit 2k+1 fluent k false.
    """

    def __init__(self, domain: PlanningDomain):
        self.domain = domain
        self.fluents = domain.fluents
        self.findex = {f: i for i, f in enumerate(domain.fluents)}
        # per literal bit: the interned literal, the prefix of its knowledge
        # atom, and that of the atom saying no applied effect may have
        # produced it ("kNotInit(f," for f, "kNotTerm(f," for -f)
        self.lits = tuple(
            Literal(f, positive) for f in domain.fluents for positive in (True, False)
        )
        self.knows_prefixes = tuple(f"knows({lit}," for lit in self.lits)
        self.unfired_prefixes = tuple(
            f"{kind}({f}," for f in domain.fluents for kind in ("kNotInit", "kNotTerm")
        )
        self.even = sum(1 << b for b in range(0, 2 * len(domain.fluents), 2))
        self.init = self.mask(domain.init)
        self.actions = {
            a.name: CompiledAction(
                a,
                self.mask(a.executability),
                tuple(self._compile(ep) for ep in a.effect_props),
                2 * self.findex[a.knowledge_props[0].fluent] if a.is_sensing else -1,
            )
            for a in domain.actions
        }
        # the actions in name order, the order a search tries them in
        self.menu = tuple(self.actions[name] for name in sorted(self.actions))
        self.oneofs = tuple(self._compile_oneof(oo.literals) for oo in domain.oneofs)
        # names -> (need, rules, sensed) of each occurrence set that passed
        # the checks that do not read knowledge (see `occurrences`)
        self.valid: dict[tuple[str, ...], tuple[int, tuple, int]] = {}
        # find_mirrors' table, None until it is first called
        self.mirrors: dict[str, tuple[int, int, tuple[int, ...]]] | None = None

    def find_mirrors(self) -> dict[str, tuple[int, int, tuple[int, ...]]]:
        """The actions of the domain's interchangeable blocks
        (symmetry.find_families), each as (place, block, bits): `place`
        numbers its family and its place in its block, `block` numbers
        its block, and `bits` are the true bits of the block's fluents,
        in the order every block of the family lists them.  Kept in
        `mirrors`, so the blocks are looked for at most once per compiled
        domain."""
        if self.mirrors is None:
            self.mirrors = {}
            place = block = 0
            for family in find_families(self.domain):
                for b in family.blocks:
                    bits = tuple(2 * self.findex[f] for f in b.fluents)
                    for p, name in enumerate(b.actions, place):
                        self.mirrors[name] = (p, block, bits)
                    block += 1
                place += len(family.blocks[0].actions)
        return self.mirrors

    def bit(self, lit: Literal) -> int:
        return self.findex[lit.fluent] * 2 + (0 if lit.positive else 1)

    def mask(self, lits: Iterable[Literal]) -> int:
        mask = 0
        for lit in lits:
            mask |= 1 << self.bit(lit)
        return mask

    def complement(self, mask: int) -> int:
        """Swap each literal bit with its complement's bit."""
        even = self.even
        return ((mask & even) << 1) | ((mask >> 1) & even)

    def _compile(self, ep: EffectProposition) -> tuple[int, int, int, int, int]:
        """(cond, falsifier, effect, effect complement, lone) masks of one
        effect proposition.  `lone` holds the condition bits listed once:
        negative postdiction never blames a condition that is repeated."""
        cond = lone = 0
        for c in ep.conditions:
            bit = 1 << self.bit(c)
            lone = (lone | bit) & ~(cond & bit)
            cond |= bit
        eff = 1 << self.bit(ep.effect)
        return cond, self.complement(cond), eff, self.complement(eff), lone

    def _compile_oneof(self, literals: Sequence[Literal]) -> tuple:
        """(mask of the literals' complements, ((bit, complement bit), ...))."""
        pairs = tuple((1 << self.bit(lit), 1 << (self.bit(lit) ^ 1)) for lit in literals)
        return sum(nb for _pb, nb in pairs), pairs

    # -- occurrences -------------------------------------------------------------

    def occurrences(
        self, names: tuple[str, ...], row: int, step: int, branch: int
    ) -> tuple[tuple, int]:
        """(compiled rules, sensed bit or -1) of occurrence set `names`
        applied at knowledge `row`, the newest row of a timeline at
        horizon `step`.

        Raises on an unknown or repeated action, two sensors, an action
        whose executability condition `row` does not hold, and effects
        that interfere; `step` and `branch` only locate the violation in
        the message.  Only executability reads knowledge, so a set that
        passed the other checks once is kept in `valid` with the union of
        its actions' conditions (`need`), and a later call needs only
        `row & need == need`.  Any other call, a set seen for the first
        time or one whose `need` the row misses, runs every check, and so
        raises what it always raised; a set that raised is not kept.
        """
        known = self.valid.get(names)
        if known is not None and row & known[0] == known[0]:
            return known[1], known[2]
        need = 0
        rules: tuple = ()
        sensed = -1
        if names:
            if len(names) > 1 and len(set(names)) != len(names):
                raise ConcurrencyError(f"repeated action in one step on branch {branch}")
            try:
                acts = [self.actions[n] for n in names]
            except KeyError as exc:
                raise EngineError(f"unknown action {exc.args[0]!r}") from None
            for a in acts:
                if a.sensed >= 0:
                    if sensed >= 0:
                        raise ConcurrencyError(
                            f"two sensing actions at step {step} on branch {branch}"
                        )
                    sensed = a.sensed
            for a in acts:
                if row & a.need != a.need:
                    lit = next(
                        lit for lit in a.action.executability
                        if not row >> self.bit(lit) & 1
                    )
                    raise ExecutabilityError(
                        f"'{a.name}' at step {step} on branch {branch} "
                        f"requires {lit} to be known"
                    )
                need |= a.need
            _check_interference(
                tuple(ep for a in acts for ep in a.action.effect_props), step, branch
            )
            rules = tuple(r for a in acts for r in a.rules)
        self.valid[names] = (need, rules, sensed)
        return rules, sensed

    # -- closure ---------------------------------------------------------------

    def close_layer(self, rules: tuple, masks: list[int], changed: Iterable[int]) -> None:
        """Least fixpoint of the inference rules on one layer, in place.

        `rules[t]` holds the compiled rules of step t; `masks[t]` is the
        layer's row for time t.  Every rule touching a time point outside
        `changed` must already hold on the layer; passing every point
        closes it from scratch.  Time zero and the two sides of a split
        close here; a step that does not split needs only `forward_row`.
        """
        last = len(rules)  # pairs (t, t+1) for t < last
        pending = 0  # bit t: pair (t, t+1) is queued
        oneof = False
        for p in changed:
            oneof = oneof or p == 0
            if p < last:
                pending |= 1 << p
            if 0 < p <= last:
                pending |= 1 << (p - 1)
        while True:
            if oneof:
                oneof = False
                row = self._close_oneofs(masks[0])
                if row != masks[0]:
                    masks[0] = row
                    if last:
                        pending |= 1
            if not pending:
                return
            t = pending.bit_length() - 1
            pending ^= 1 << t
            lo, hi = self._close_pair(rules[t], masks[t], masks[t + 1])
            if lo != masks[t]:
                masks[t] = lo
                if t:
                    pending |= 1 << (t - 1)
                else:
                    oneof = True
            if hi != masks[t + 1]:
                masks[t + 1] = hi
                if t + 1 < last:
                    pending |= 1 << (t + 1)

    def forward_row(self, rules: tuple, row: int) -> int:
        """Row h+1 of a step that does not split, from closed row h: every
        literal of `row` no applied effect may have overturned, and the
        effect of every rule whose conditions `row` holds.  One pass of
        `_close_pair` with row h fixed, which is its fixpoint.

        One loop finds both the complements of the effects that possibly
        fired (`overturned`) and the caused effects: a rule whose
        conditions all hold possibly fired, because `row` holds no literal
        and its complement (a timeline with a clash is never stepped)."""
        overturned = caused = 0
        for cond, falsifier, eff, effc, _lone in rules:
            if not row & falsifier:
                overturned |= effc
                if row & cond == cond:
                    caused |= eff
        return row & ~overturned | caused

    def _close_pair(self, rules: tuple, lo: int, hi: int) -> tuple[int, int]:
        """Close rows t (`lo`) and t+1 (`hi`) under the rules of step t:
        persistence both ways, causation and the two postdictions."""
        if not rules:  # an idle step: each row persists into the other
            both = lo | hi
            return both, both
        complement = self.complement
        while True:
            fired = _possibly_fired(rules, lo)
            new_hi = hi | (lo & ~complement(fired))
            new_lo = lo | (new_hi & ~fired)
            for cond, falsifier, eff, effc, lone in rules:
                if new_lo & cond == cond:
                    new_hi |= eff
                if new_hi & eff and new_lo & effc:
                    new_lo |= cond
                if new_hi & effc:
                    missing = cond & ~new_lo
                    if not missing:
                        new_lo |= falsifier
                    elif not missing & (missing - 1) and missing & lone:
                        new_lo |= complement(missing)
            if new_lo == lo and new_hi == hi:
                return lo, hi
            lo, hi = new_lo, new_hi

    def _close_oneofs(self, row: int) -> int:
        """Close time point 0 under the exactly-one initial constraints."""
        while True:
            before = row
            for negs, pairs in self.oneofs:
                for pb, nb in pairs:
                    if row & pb:
                        row |= negs & ~nb  # ruled in: every sibling is false
                    elif (row | nb) & negs == negs:
                        row |= pb  # every sibling ruled out
            if row == before:
                return row


# -- one branch ------------------------------------------------------------------


class Timeline:
    """One branch's knowledge after `horizon` steps; never changes.

    `layer` is the newest closed layer (row t: what is known about time
    t), `rules[t]` the compiled effects applied at step t, and `splits`
    the number of sensing splits on the way here.  `prev` is the
    timeline this one was stepped from (None at time zero; both sides
    of a split share it), and `names` the occurrences of that step.
    `observation` is the (fluent, value) that step observed.  The engine
    derived a sensing result from it when the value is true or the step
    split (`splits` above `prev.splits`), and none from a look at a
    value already known false.  `inconsistent` says that some row holds
    a literal and its complement; such a timeline cannot be stepped.

    A step that does not split appends its one-pass row h+1 to the old
    rows, which it shares; a split closes each side's layer with the
    worklist (see the module docstring).  With `checks`, a step that
    does not split asserts that its new row has no clash and that
    closing the old rows and an empty row h+1 from scratch changes no
    row <= h and gives its row h+1; a split re-closes each new layer
    from scratch and asserts that the worklist missed nothing and that
    no knowledge shrank.
    """

    __slots__ = (
        "compiled",
        "layer",
        "rules",
        "horizon",
        "splits",
        "inconsistent",
        "prev",
        "names",
        "observation",
        "checks",
    )

    def __init__(
        self,
        compiled: CompiledDomain,
        layer: tuple[int, ...],
        rules: tuple,
        splits: int,
        checks: bool,
        inconsistent: bool,
        prev: Timeline | None = None,
        names: tuple[str, ...] = (),
        observation: tuple[str, bool] | None = None,
    ):
        self.compiled = compiled
        self.layer = layer
        self.rules = rules
        self.horizon = len(layer) - 1
        self.splits = splits
        self.checks = checks
        self.prev = prev
        self.names = names
        self.observation = observation
        self.inconsistent = inconsistent

    @classmethod
    def start(cls, compiled: CompiledDomain, checks: bool) -> Timeline:
        """Time zero: the init literals, closed under the exactly-one
        constraints."""
        masks = [compiled.init]
        compiled.close_layer((), masks, (0,))
        return cls(compiled, tuple(masks), (), 0, checks, _clashes(compiled, masks))

    def step(self, names: Sequence[str], branch: int = 0) -> tuple[Timeline, ...]:
        """Apply the actions `names` (none: idle) for one step.

        Returns one successor, or a true and a false successor when an
        action senses a fluent whose value is not known.  Raises on
        unknown actions, executability and interference violations;
        `branch` only names the branch in their messages.
        """
        if self.inconsistent:
            raise EngineError("cannot step an inconsistent state")
        compiled = self.compiled
        h = self.horizon
        row = self.layer[h]
        names = tuple(names)
        rules, sensed = compiled.occurrences(names, row, h, branch)
        history = self.rules + (rules,)
        observation = None
        if sensed >= 0:
            # a look at a value already known changes nothing
            fluent = compiled.fluents[sensed >> 1]
            if row >> sensed & 1:
                observation = (fluent, True)
            elif row >> (sensed ^ 1) & 1:
                observation = (fluent, False)
            else:
                splits = self.splits + 1
                return (
                    self._split(names, history, sensed, splits, (fluent, True)),
                    self._split(names, history, sensed ^ 1, splits, (fluent, False)),
                )
        # no split: row h+1 is the only new row, and the old rows are shared
        new = compiled.forward_row(rules, row)
        if self.checks:
            # internal invariants; violations are engine bugs, hence asserts
            assert not _clashes(compiled, (new,)), "a step that does not split made a clash"
            again = [*self.layer, 0]
            compiled.close_layer(history, again, range(len(again)))
            assert tuple(again) == self.layer + (new,), "a step that does not split was not closed"
        return (
            Timeline(
                compiled, self.layer + (new,), history, self.splits, self.checks,
                False, self, names, observation,
            ),
        )

    def _split(
        self,
        names: tuple[str, ...],
        rules: tuple,
        bit: int,
        splits: int,
        observation: tuple[str, bool],
    ) -> Timeline:
        """One side of a split: layer h with this side's sensing result
        `bit` added to row h and an empty row h+1, closed from both."""
        h = self.horizon
        masks = [*self.layer, 0]
        masks[h] |= 1 << bit
        self.compiled.close_layer(rules, masks, (h, h + 1))
        if self.checks:
            # internal invariants; violations are engine bugs, hence asserts
            for old, new in zip(self.layer, masks):
                assert old & ~new == 0, "knowledge shrank across a step"
            # idempotence: closing the new layer again from scratch, with
            # every point seeded, must add nothing to the incremental result
            again = list(masks)
            self.compiled.close_layer(rules, again, range(len(again)))
            assert again == masks, "a new layer was not closed"
        return Timeline(
            self.compiled, tuple(masks), rules, splits, self.checks,
            _clashes(self.compiled, masks), self, names, observation,
        )

    def chain(self) -> list[Timeline]:
        """The timelines from time zero to this one, linked by `prev`;
        entry t has horizon t."""
        links = []
        link: Timeline | None = self
        while link is not None:
            links.append(link)
            link = link.prev
        links.reverse()
        return links


# -- the multi-branch view -------------------------------------------------------


@dataclass(slots=True, eq=False)
class Branch:
    """One branch of a state: the branch it split from (`parent`, None
    for the root), the step of that split (`created_at`, -1 for the
    root), and its newest `timeline`, whose chain is the branch's whole
    history and its only record of knowledge.  Up to `created_at` the
    chain runs through the parent's timelines; the split step and every
    later one are the branch's own.  Internal, but read by the
    cross-checker."""

    parent: int | None
    created_at: int
    timeline: Timeline

    def layer(self, t1: int) -> tuple[int, ...]:
        """Row t: bitmask of literals known about time t after t1 steps,
        all zero before the branch existed.  Stage t1 is the layer of
        the chain's link t1, reached back from the newest timeline (a
        stage beyond the horizon runs off the chain's start)."""
        if t1 < self.created_at:
            return (0,) * (t1 + 1)
        link = self.timeline
        while link.horizon != t1:
            link = link.prev
        return link.layer


class EpistemicState:
    """Immutable-by-convention knowledge state; step() returns a new one."""

    def __init__(
        self,
        domain: PlanningDomain,
        max_steps: int,
        max_branches: int,
        checks: bool | None = None,
    ):
        report = validate_domain(domain)
        if not report.ok:
            raise EngineError("invalid domain: " + "; ".join(report.violations))
        if max_steps < 0 or max_branches < 0:
            raise EngineError("budgets must be non-negative")
        compiled = CompiledDomain(domain)
        self.domain = domain
        self.max_steps = max_steps
        self.max_branches = max_branches
        if checks is None:
            checks = os.environ.get(CHECKS_ENV_VAR, "") not in ("", "0")
        self.checks = checks
        self.compiled = compiled

        self.horizon = 0
        root = Branch(parent=None, created_at=-1, timeline=Timeline.start(compiled, checks))
        self.branches: dict[int, Branch] = {0: root}
        self.inconsistent = root.timeline.inconsistent
        if self.checks:
            self._run_checks(previous=None)

    # -- queries ---------------------------------------------------------------

    def knows(self, lit: Literal, t: int, branch: int, t1: int | None = None) -> bool:
        """Is `lit` known to hold at time t, judged after t1 steps?"""
        if t1 is None:
            t1 = self.horizon
        if not 0 <= t <= t1 <= self.horizon:
            return False
        return bool(self.branches[branch].layer(t1)[t] >> self.compiled.bit(lit) & 1)

    def known_literals(self, branch: int, t: int, t1: int | None = None) -> tuple:
        """Every literal known about time t, judged after t1 steps, in
        bit order (fluent declaration order, true before false); none
        for the times `knows` rejects (not 0 <= t <= t1 <= horizon)."""
        if t1 is None:
            t1 = self.horizon
        if not 0 <= t <= t1 <= self.horizon:
            return ()
        mask = self.branches[branch].layer(t1)[t]
        lits = self.compiled.lits
        out = []
        while mask:
            low = mask & -mask
            out.append(lits[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def sensing_outcome(self, branch: int, fluent: str) -> bool | None:
        """Current knowledge of a fluent at the horizon: True/False/None."""
        h = self.horizon
        if self.knows(Literal(fluent, True), h, branch, h):
            return True
        if self.knows(Literal(fluent, False), h, branch, h):
            return False
        return None

    def is_executable(self, branch: int, action_name: str) -> bool:
        need = self.compiled.actions[action_name].need
        h = self.horizon
        return self.branches[branch].layer(h)[h] & need == need

    # -- stepping ---------------------------------------------------------------

    def step(self, occurrences: Mapping[int, Sequence[str]] | None = None) -> EpistemicState:
        """Advance one time step; `occurrences` maps branch -> action names.

        Branches absent from the mapping idle.  Raises on budget,
        executability, and interference violations; an inconsistent
        *knowledge* outcome is not an exception but flags the returned
        state, which cannot be stepped further.
        """
        if self.inconsistent:
            raise EngineError("cannot step an inconsistent state")
        h = self.horizon
        if h >= self.max_steps:
            raise StepBudgetError(f"step horizon {self.max_steps} reached")
        occ = {br: tuple(names) for br, names in (occurrences or {}).items()}
        for br in occ:
            if br not in self.branches:
                raise EngineError(f"unknown branch {br}")

        # every branch steps its own timeline, in branch order, so the
        # first invalid occurrence is reported before any split is numbered
        stepped = [
            (br, self.branches[br].timeline.step(occ.get(br, ()), br))
            for br in sorted(self.branches)
        ]

        branches: dict[int, Branch] = {}
        children: list[tuple[int, Branch]] = []
        # children take the smallest unused index above their parent;
        # the indices are always 0..k, so that is the next one, k + 1
        child_id = len(self.branches)
        for br, successors in stepped:
            old = self.branches[br]
            branches[br] = Branch(old.parent, old.created_at, successors[0])
            if len(successors) == 1:
                continue
            if child_id > self.max_branches:
                raise BranchBudgetError(
                    f"sensing on branch {br} needs branch {child_id}, "
                    f"but only {self.max_branches} are allowed"
                )
            children.append((child_id, Branch(br, h, successors[1])))
            child_id += 1
        branches.update(children)

        nxt = object.__new__(EpistemicState)
        nxt.domain = self.domain
        nxt.max_steps = self.max_steps
        nxt.max_branches = self.max_branches
        nxt.checks = self.checks
        nxt.compiled = self.compiled
        nxt.horizon = h + 1
        nxt.branches = branches
        nxt.inconsistent = any(b.timeline.inconsistent for b in branches.values())
        if nxt.checks:
            nxt._run_checks(previous=self)
        return nxt

    def _scan_inconsistent(self) -> bool:
        return any(_clashes(self.compiled, b.layer(self.horizon)) for b in self.branches.values())

    # -- atom dump ---------------------------------------------------------------

    def all_atoms(self) -> list[str]:
        """Every derived atom, rendered and sorted; the trace format."""
        out: list[str] = []
        compiled = self.compiled
        knows = compiled.knows_prefixes
        unfired = compiled.unfired_prefixes
        every_bit = (1 << len(unfired)) - 1
        for bid in sorted(self.branches):
            b = self.branches[bid]
            chain = b.timeline.chain()
            rules = b.timeline.rules
            # a branch knows nothing before its split stage, whose rows
            # are its parent's; it is in use from the stage after that
            for t1 in range(max(b.created_at, 0), len(chain)):
                layer = chain[t1].layer
                for t, mask in enumerate(layer):
                    m = mask
                    where = f"{t},{t1},{bid})"
                    while m:
                        low = m & -m
                        out.append(knows[low.bit_length() - 1] + where)
                        m ^= low
                if t1 > b.created_at:
                    out.append(f"uBr({t1},{bid})")
                    for t in range(min(t1 + 1, len(rules))):
                        m = every_bit & ~_possibly_fired(rules[t], layer[t])
                        where = f"{t},{t1},{bid})"
                        while m:
                            low = m & -m
                            out.append(unfired[low.bit_length() - 1] + where)
                            m ^= low
            # link t+1 is the timeline step t made.  occ and sOcc belong to
            # the branch's own steps, after its split; apply also covers the
            # shared past, which the branch re-evaluates, and sRes starts at
            # the split step, whose outcome is the branch's own
            for t, link in enumerate(chain[1:]):
                sensing = False
                for n in link.names:
                    if t > b.created_at:
                        out.append(f"occ({n},{t},{bid})")
                        sensing = sensing or compiled.actions[n].sensed >= 0
                    for ep in compiled.actions[n].action.effect_props:
                        out.append(f"apply({ep.id},{t},{bid})")
                if sensing:
                    out.append(f"sOcc({t},{bid})")
                seen = link.observation
                if t >= b.created_at and seen and (seen[1] or link.splits > link.prev.splits):
                    out.append(f"sRes({Literal(*seen)},{t},{bid})")
            if b.parent is not None:
                out.append(f"nextBr({b.created_at},{b.parent},{bid})")
        return sorted(out)

    def knows_atoms(self) -> Iterator[tuple[Literal, int, int, int]]:
        """(literal, t, t1, branch) for every knowledge atom."""
        lits = self.compiled.lits
        for bid in sorted(self.branches):
            b = self.branches[bid]
            chain = b.timeline.chain()
            for t1 in range(max(b.created_at, 0), len(chain)):
                for t, mask in enumerate(chain[t1].layer):
                    m = mask
                    while m:
                        low = m & -m
                        yield lits[low.bit_length() - 1], t, t1, bid
                        m ^= low

    # -- assertion-checked build ------------------------------------------------

    def _run_checks(self, previous: EpistemicState | None) -> None:
        """Internal invariants; violations are engine bugs, hence asserts.

        Closure idempotence is asserted by every checked timeline step.
        """
        assert sorted(self.branches) == list(range(len(self.branches))), (
            "branch indices are not 0..k"
        )
        for bid, b in self.branches.items():
            chain = b.timeline.chain()
            assert len(chain) == self.horizon + 1, "chain length mismatch"
            assert b.timeline.horizon == self.horizon, "layer count mismatch"
            for t1, link in enumerate(chain):
                assert len(link.layer) == t1 + 1, "layer shape mismatch"
            for t1 in range(self.horizon):
                for t in range(t1 + 1):
                    assert chain[t1].layer[t] & ~chain[t1 + 1].layer[t] == 0, (
                        f"knowledge shrank on branch {bid} at ({t},{t1})"
                    )
            assert len(b.timeline.rules) == self.horizon, "rule-history length mismatch"
            if b.parent is not None:
                assert b.parent in self.branches, "dangling parent"
                assert b.parent < bid, "child index not above parent"
                parent = self.branches[b.parent]
                assert parent.created_at < b.created_at
                assert chain[b.created_at] is parent.timeline.chain()[b.created_at], (
                    f"branch {bid} does not inherit its parent's history"
                )
                at = b.created_at
                assert b.layer(at) == parent.layer(at), "split layer diverged from parent"
                # the split fluent is the observation of the branch's own split link
                fluent = chain[at + 1].observation[0]
                assert self.knows(Literal(fluent, True), at, b.parent, at + 1)
                assert self.knows(Literal(fluent, False), at, bid, at + 1)
        if previous is not None:
            for bid, old in previous.branches.items():
                new = self.branches[bid].timeline.chain()
                for t1, link in enumerate(old.timeline.chain()):
                    assert new[t1].layer == link.layer, (
                        f"closed layer {t1} of branch {bid} changed"
                    )
        assert self.inconsistent == self._scan_inconsistent()


def initial_state(
    domain: PlanningDomain,
    max_steps: int,
    max_branches: int,
    checks: bool | None = None,
) -> EpistemicState:
    """Knowledge state at time zero: the init literals, closed under the
    exactly-one constraints."""
    return EpistemicState(domain, max_steps, max_branches, checks)
