"""Polynomial-time knowledge tracking with branching on sensing.

The state records, per branch, a triangular family of knowledge layers:
layer t1 holds everything established about each time point t <= t1
after t1 steps have been evaluated.  Layers only ever grow — later
sensing can sharpen what is known about the past (postdiction), never
retract it.  Literals are interned as bit positions so a layer is one
int per time point and the closure rules become mask arithmetic.

Each step advances every branch simultaneously: record occurrences,
check executability against current knowledge, split a branch when it
senses a fluent it does not know, then close the new layer under the
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

A branch split copies the parent's newest layer and its applied-effect
history, so the child re-evaluates the shared past under its own
sensing outcome.  Branches never communicate after the split.

Every effect proposition is compiled once per domain into masks over
the literal bits: its conditions, their complements (the falsifiers)
and its effect.  "Possibly fired" is then `row & falsifier == 0`,
causation is `row & cond == cond`, positive postdiction adds `cond`,
and negative postdiction adds the complement of the one condition not
yet known to hold, or of every condition when all are known.

Closure is incremental.  All rules are monotone, so a layer has one
least fixpoint above its starting rows, and any order of rule
application that stops only when no rule adds anything reaches it.
Layer h+1 starts as a copy of layer h, which is already closed over
the pairs below h, plus the sensing result at h and an empty row h+1.
A rule reads and writes only its own pair (or point 0), so the only
rules that can fire at first are those touching a changed point; a
worklist over pairs starts there, and a pair that changes a row
requeues the pairs sharing that row (and the oneof rule for point 0).
Seeding with every point instead closes a layer from scratch, which
the assertion-checked build uses to confirm the incremental result.
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


@dataclass(frozen=True)
class BranchEvent:
    """A sensing split: `child` continues with the sensed fluent false."""

    step: int
    parent: int
    child: int
    fluent: str


class Branch:
    """Per-branch bookkeeping.  Internal, but read by the cross-checker."""

    __slots__ = (
        "parent",
        "created_at",
        "layers",
        "applied",
        "rules",
        "occurrences",
        "observations",
        "sensing_results",
    )

    def __init__(self, parent: int | None, created_at: int):
        self.parent = parent
        self.created_at = created_at
        # layers[t1][t]: bitmask of literals known about time t after t1 steps
        self.layers: list[list[int]] = []
        # applied[t]: effect propositions of the actions that occurred at t
        self.applied: list[tuple[EffectProposition, ...]] = []
        # rules[t]: the compiled masks of applied[t], in the same order
        self.rules: list[tuple[tuple[int, int, int, int, int], ...]] = []
        self.occurrences: dict[int, tuple[str, ...]] = {}
        # observations[t]: (fluent, value) this timeline saw at step t
        self.observations: dict[int, tuple[str, bool]] = {}
        # sensing_results[t]: like observations, but only when the engine
        # derived knowledge from the sensing (a known-false look derives none)
        self.sensing_results: dict[int, tuple[str, bool]] = {}

    @property
    def used_from(self) -> int:
        return self.created_at + 1

    def copy(self) -> Branch:
        b = Branch(self.parent, self.created_at)
        b.layers = [list(row) for row in self.layers]
        b.applied = list(self.applied)
        b.rules = list(self.rules)
        b.occurrences = dict(self.occurrences)
        b.observations = dict(self.observations)
        b.sensing_results = dict(self.sensing_results)
        return b


_last_bit_tables: tuple = (None, ())


def _bit_tables(domain: PlanningDomain) -> tuple[tuple, tuple, tuple]:
    """Per literal bit: the interned literal, the prefix of its knowledge
    atom, and the prefix of the atom saying no applied effect may have
    produced it ("kNotInit(f," for f, "kNotTerm(f," for -f).

    Only the most recent domain's tables are kept, compared by identity:
    a search builds many initial states of one domain in a row.
    """
    global _last_bit_tables
    if _last_bit_tables[0] is not domain:
        lits = tuple(
            Literal(f, positive) for f in domain.fluents for positive in (True, False)
        )
        _last_bit_tables = domain, (
            lits,
            tuple(f"knows({lit}," for lit in lits),
            tuple(f"{kind}({f}," for f in domain.fluents for kind in ("kNotInit", "kNotTerm")),
        )
    return _last_bit_tables[1]


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
        self.domain = domain
        self.max_steps = max_steps
        self.max_branches = max_branches
        if checks is None:
            checks = os.environ.get(CHECKS_ENV_VAR, "") not in ("", "0")
        self.checks = checks

        self._findex = {f: i for i, f in enumerate(domain.fluents)}
        self._lits, self._knows_prefixes, self._unfired_prefixes = _bit_tables(domain)
        nbits = 2 * len(domain.fluents)
        self._even = sum(1 << b for b in range(0, nbits, 2))
        self._actions = {a.name: a for a in domain.actions}
        self._exec_masks = {a.name: self._mask(a.executability) for a in domain.actions}
        self._action_rules = {
            a.name: tuple(self._compile(ep) for ep in a.effect_props)
            for a in domain.actions
        }
        self._oneofs = tuple(self._compile_oneof(oo.literals) for oo in domain.oneofs)

        self.horizon = 0
        self.inconsistent = False
        self.events: tuple[BranchEvent, ...] = ()
        root = Branch(parent=None, created_at=-1)
        root.layers = [[self._mask(domain.init)]]
        self.branches: dict[int, Branch] = {0: root}
        self._close_layer(root, 0, (0,))
        self.inconsistent = self._scan_inconsistent()
        if self.checks:
            self._run_checks(previous=None)

    # -- literal interning ---------------------------------------------------

    def _bit(self, lit: Literal) -> int:
        return self._findex[lit.fluent] * 2 + (0 if lit.positive else 1)

    def _mask(self, lits: Iterable[Literal]) -> int:
        mask = 0
        for lit in lits:
            mask |= 1 << self._bit(lit)
        return mask

    def _complement_mask(self, mask: int) -> int:
        """Swap each literal bit with its complement's bit."""
        return ((mask & self._even) << 1) | ((mask >> 1) & self._even)

    def _compile(self, ep: EffectProposition) -> tuple[int, int, int, int, int]:
        """(cond, falsifier, effect, effect complement, lone) masks of one
        effect proposition.  `lone` holds the condition bits listed once:
        negative postdiction never blames a condition that is repeated."""
        cond = lone = 0
        for c in ep.conditions:
            bit = 1 << self._bit(c)
            lone = (lone | bit) & ~(cond & bit)
            cond |= bit
        eff = 1 << self._bit(ep.effect)
        return cond, self._complement_mask(cond), eff, self._complement_mask(eff), lone

    def _compile_oneof(self, literals: Sequence[Literal]) -> tuple:
        """(mask of the literals' complements, ((bit, complement bit), ...))."""
        pairs = tuple((1 << self._bit(lit), 1 << (self._bit(lit) ^ 1)) for lit in literals)
        return sum(nb for _pb, nb in pairs), pairs

    # -- queries ---------------------------------------------------------------

    def knows(self, lit: Literal, t: int, branch: int, t1: int | None = None) -> bool:
        """Is `lit` known to hold at time t, judged after t1 steps?"""
        if t1 is None:
            t1 = self.horizon
        if not 0 <= t <= t1 <= self.horizon:
            return False
        return bool(self.branches[branch].layers[t1][t] >> self._bit(lit) & 1)

    def known_literals(self, branch: int, t: int, t1: int | None = None) -> frozenset:
        """Every literal known about time t, judged after t1 steps."""
        if t1 is None:
            t1 = self.horizon
        mask = self.branches[branch].layers[t1][t]
        lits = self._lits
        out = []
        while mask:
            low = mask & -mask
            out.append(lits[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    def sensing_outcome(self, branch: int, fluent: str) -> bool | None:
        """Current knowledge of a fluent at the horizon: True/False/None."""
        h = self.horizon
        if self.knows(Literal(fluent, True), h, branch, h):
            return True
        if self.knows(Literal(fluent, False), h, branch, h):
            return False
        return None

    def action(self, name: str) -> Action:
        """The domain's action called `name`; KeyError when there is none."""
        return self._actions[name]

    def is_executable(self, branch: int, action_name: str) -> bool:
        need = self._exec_masks[action_name]
        h = self.horizon
        return self.branches[branch].layers[h][h] & need == need

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

        nxt = self._copy()
        occ = {br: tuple(names) for br, names in (occurrences or {}).items()}
        for br in occ:
            if br not in nxt.branches:
                raise EngineError(f"unknown branch {br}")

        # 1. validate and record the occurrences of every acting branch
        pending_sensing: list[tuple[int, str]] = []
        for br in sorted(occ):
            names = occ[br]
            if not names:
                continue
            if len(set(names)) != len(names):
                raise ConcurrencyError(f"repeated action in one step on branch {br}")
            try:
                actions = [self._actions[n] for n in names]
            except KeyError as exc:
                raise EngineError(f"unknown action {exc.args[0]!r}") from None
            sensors = [a for a in actions if a.is_sensing]
            if len(sensors) > 1:
                raise ConcurrencyError(
                    f"two sensing actions at step {h} on branch {br}"
                )
            for a in actions:
                if not self.is_executable(br, a.name):
                    lit = next(
                        lit for lit in a.executability if not self.knows(lit, h, br, h)
                    )
                    raise ExecutabilityError(
                        f"'{a.name}' at step {h} on branch {br} "
                        f"requires {lit} to be known"
                    )
            eps = tuple(ep for a in actions for ep in a.effect_props)
            self._check_interference(eps, h, br)
            b = nxt.branches[br]
            b.occurrences[h] = names
            b.applied.append(eps)
            b.rules.append(
                tuple(r for a in actions for r in self._action_rules[a.name])
            )
            if sensors:
                pending_sensing.append((br, sensors[0].knowledge_props[0].fluent))

        for br, b in nxt.branches.items():
            if len(b.applied) == h:  # idling branch
                b.applied.append(())
                b.rules.append(())

        # 2. resolve sensing: known value is recorded; unknown splits the branch
        for br, fluent in pending_sensing:
            parent = nxt.branches[br]
            known = self.sensing_outcome(br, fluent)
            if known is True:
                parent.observations[h] = (fluent, True)
                parent.sensing_results[h] = (fluent, True)
            elif known is False:
                # the look changes nothing: its outcome was already known
                parent.observations[h] = (fluent, False)
            else:
                child_id = br + 1
                while child_id in nxt.branches:
                    child_id += 1
                if child_id > self.max_branches:
                    raise BranchBudgetError(
                        f"sensing on branch {br} needs branch {child_id}, "
                        f"but only {self.max_branches} are allowed"
                    )
                child = Branch(parent=br, created_at=h)
                child.layers = [[0] * (t1 + 1) for t1 in range(h)]
                child.layers.append(list(parent.layers[h]))
                child.applied = list(parent.applied)
                child.rules = list(parent.rules)
                nxt.branches[child_id] = child
                nxt.events = nxt.events + (BranchEvent(h, br, child_id, fluent),)
                parent.observations[h] = (fluent, True)
                parent.sensing_results[h] = (fluent, True)
                child.observations[h] = (fluent, False)
                child.sensing_results[h] = (fluent, False)

        # 3. open layer h+1 as a copy of closed layer h, add sensing
        # knowledge, and close it from the points that differ: h+1 always,
        # h when a sensing result landed there
        nxt.horizon = h + 1
        for b in nxt.branches.values():
            b.layers.append(list(b.layers[h]) + [0])
            res = b.sensing_results.get(h)
            if res is not None:
                fluent, value = res
                b.layers[h + 1][h] |= 1 << self._bit(Literal(fluent, value))
                nxt._close_layer(b, h + 1, (h, h + 1))
            else:
                nxt._close_layer(b, h + 1, (h + 1,))

        nxt.inconsistent = nxt._scan_inconsistent()
        if nxt.checks:
            nxt._run_checks(previous=self)
        return nxt

    def _copy(self) -> EpistemicState:
        clone = object.__new__(EpistemicState)
        clone.domain = self.domain
        clone.max_steps = self.max_steps
        clone.max_branches = self.max_branches
        clone.checks = self.checks
        clone._findex = self._findex
        clone._lits = self._lits
        clone._knows_prefixes = self._knows_prefixes
        clone._unfired_prefixes = self._unfired_prefixes
        clone._even = self._even
        clone._actions = self._actions
        clone._exec_masks = self._exec_masks
        clone._action_rules = self._action_rules
        clone._oneofs = self._oneofs
        clone.horizon = self.horizon
        clone.inconsistent = self.inconsistent
        clone.events = self.events
        clone.branches = {br: b.copy() for br, b in self.branches.items()}
        return clone

    def _check_interference(
        self, eps: tuple[EffectProposition, ...], step: int, branch: int
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

    # -- closure ---------------------------------------------------------------

    @staticmethod
    def _possibly_fired(rules: tuple, row: int) -> int:
        """Mask of effect literals some applied proposition of a step may
        have produced, judging its conditions by knowledge `row`."""
        mask = 0
        for _cond, falsifier, eff, _effc, _lone in rules:
            if not row & falsifier:
                mask |= eff
        return mask

    def _close_layer(self, b: Branch, s: int, changed: Iterable[int]) -> None:
        """Least fixpoint of the inference rules on layer s of one branch.

        Every rule touching a time point outside `changed` must already
        hold on the layer; passing every point closes it from scratch.
        """
        masks = b.layers[s]
        last = min(len(b.rules), s)  # pairs (t, t+1) for t < last
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
            lo, hi = self._close_pair(b.rules[t], masks[t], masks[t + 1])
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

    def _close_pair(self, rules: tuple, lo: int, hi: int) -> tuple[int, int]:
        """Close rows t (`lo`) and t+1 (`hi`) under the rules of step t:
        persistence both ways, causation and the two postdictions."""
        if not rules:  # an idle step: each row persists into the other
            both = lo | hi
            return both, both
        complement = self._complement_mask
        while True:
            fired = self._possibly_fired(rules, lo)
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
            for negs, pairs in self._oneofs:
                for pb, nb in pairs:
                    if row & pb:
                        row |= negs & ~nb  # ruled in: every sibling is false
                    elif (row | nb) & negs == negs:
                        row |= pb  # every sibling ruled out
            if row == before:
                return row

    def _scan_inconsistent(self) -> bool:
        for b in self.branches.values():
            for row in b.layers[self.horizon]:
                if row & (row >> 1) & self._even:
                    return True
        return False

    # -- atom dump ---------------------------------------------------------------

    def all_atoms(self) -> list[str]:
        """Every derived atom, rendered and sorted; the trace format."""
        out: list[str] = []
        knows = self._knows_prefixes
        unfired = self._unfired_prefixes
        every_bit = (1 << len(unfired)) - 1
        for bid in sorted(self.branches):
            b = self.branches[bid]
            for t1, row in enumerate(b.layers):
                for t, mask in enumerate(row):
                    m = mask
                    where = f"{t},{t1},{bid})"
                    while m:
                        low = m & -m
                        out.append(knows[low.bit_length() - 1] + where)
                        m ^= low
            for t, names in sorted(b.occurrences.items()):
                sensing = False
                for n in names:
                    out.append(f"occ({n},{t},{bid})")
                    sensing = sensing or self._actions[n].is_sensing
                if sensing:
                    out.append(f"sOcc({t},{bid})")
            for t, eps in enumerate(b.applied):
                for ep in eps:
                    out.append(f"apply({ep.id},{t},{bid})")
            for t, (fluent, value) in sorted(b.sensing_results.items()):
                lit = Literal(fluent, value)
                out.append(f"sRes({lit},{t},{bid})")
            for t in range(b.used_from, self.horizon + 1):
                out.append(f"uBr({t},{bid})")
            for t1 in range(max(b.used_from, 0), self.horizon + 1):
                for t in range(min(t1 + 1, len(b.applied))):
                    m = every_bit & ~self._possibly_fired(b.rules[t], b.layers[t1][t])
                    where = f"{t},{t1},{bid})"
                    while m:
                        low = m & -m
                        out.append(unfired[low.bit_length() - 1] + where)
                        m ^= low
        for ev in self.events:
            out.append(f"nextBr({ev.step},{ev.parent},{ev.child})")
        return sorted(out)

    def knows_atoms(self) -> Iterator[tuple[Literal, int, int, int]]:
        """(literal, t, t1, branch) for every knowledge atom."""
        for bid in sorted(self.branches):
            for t1, row in enumerate(self.branches[bid].layers):
                for t, mask in enumerate(row):
                    m = mask
                    while m:
                        low = m & -m
                        yield self._lits[low.bit_length() - 1], t, t1, bid
                        m ^= low

    # -- assertion-checked build ------------------------------------------------

    def _run_checks(self, previous: EpistemicState | None) -> None:
        """Internal invariants; violations are engine bugs, hence asserts."""
        for bid, b in self.branches.items():
            assert len(b.layers) == self.horizon + 1, "layer count mismatch"
            for t1, row in enumerate(b.layers):
                assert len(row) == t1 + 1, "layer shape mismatch"
            for t1 in range(self.horizon):
                for t in range(t1 + 1):
                    assert b.layers[t1][t] & ~b.layers[t1 + 1][t] == 0, (
                        f"knowledge shrank on branch {bid} at ({t},{t1})"
                    )
            assert len(b.applied) == self.horizon, "applied-step count mismatch"
            if b.parent is not None:
                assert b.parent in self.branches, "dangling parent"
                assert b.parent < bid, "child index not above parent"
                assert self.branches[b.parent].created_at < b.created_at
            # idempotence: closing the final layer again from scratch, with
            # every point seeded, must add nothing to the incremental result
            snapshot = [list(row) for row in b.layers]
            self._close_layer(b, self.horizon, range(self.horizon + 1))
            assert [list(row) for row in b.layers] == snapshot, (
                f"final layer of branch {bid} was not closed"
            )
        for ev in self.events:
            parent = self.branches[ev.parent]
            child = self.branches[ev.child]
            assert child.layers[ev.step] == parent.layers[ev.step], (
                "split layer diverged from parent"
            )
            assert self.knows(Literal(ev.fluent, True), ev.step, ev.parent, ev.step + 1)
            assert self.knows(Literal(ev.fluent, False), ev.step, ev.child, ev.step + 1)
        if previous is not None:
            for bid, old in previous.branches.items():
                new = self.branches[bid]
                for t1 in range(previous.horizon + 1):
                    assert new.layers[t1] == old.layers[t1], (
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
