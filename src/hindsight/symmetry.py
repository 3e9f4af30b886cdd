"""Interchangeable blocks of a domain, found from its structure alone.

A domain automorphism is a renaming of fluents and actions that maps the
domain onto itself: every action onto an action with the renamed
executability, sensed fluent and effects (each effect's literal and
conditions renamed), and the init, the `oneof` groups, the goals and
the static fluents onto themselves.  The search depends on names only
for its order, so an automorphism maps what it finds below a timeline
onto what it finds below the renamed timeline, at the same costs
(search.py's seventh cut).

find_families looks for one kind of automorphism group: a family of
blocks, each block some fluents and actions, such that every
permutation of the blocks, renaming the i-th name of one block to the
i-th name of another, is an automorphism.  In `sickness(n)` block k is
`disease_k`, `color_k`, `sense_color_k` and `medicate_k` for k below n.

1. Colour refinement (McKay & Piperno, J. Symbolic Computation 60,
   2014) on the coloured incidence graph.  Its nodes are the fluents,
   actions, effect propositions and `oneof` groups.  A fluent starts
   coloured by its init value, the goals that hold it and whether it is
   static; an edge carries its role (executability, sensing, effect
   literal, condition, membership) and its literal's sign.  Refinement
   splits a colour class while its nodes see different multisets of
   (edge, colour) pairs.  An automorphism keeps every colour, so once
   every action has a colour of its own, no candidate can have a mirror
   image and detection stops.
2. Blocks.  Among the nodes whose colour class has some size k >= 2,
   join the ends of every edge between two classes of that size; a
   connected component holding exactly one node of each of its classes
   is a block, and components with the same classes form a family.
3. Verification.  A family is kept only if two renamings each map the
   domain onto itself, compared as multisets: the swap of its first two
   blocks and the cycle of all of them.  These generate every
   permutation of the blocks, so detection may miss a symmetry but
   never invents one.

Stdlib only; reads the domain and nothing else, so it neither validates
nor compiles it.  The domain must be valid (model.validate_domain).
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from hindsight.model import PlanningDomain

__all__ = ["Block", "Family", "find_families"]


# named tuples rather than dataclasses: defining them costs a tenth as
# much, and every command line run imports this module
class Block(NamedTuple):
    """One block's fluents and actions, in the order every block of its
    family lists them: the i-th name of one block is the image of the
    i-th name of another."""

    fluents: tuple[str, ...]
    actions: tuple[str, ...]


class Family(NamedTuple):
    """Blocks every permutation of which is a domain automorphism."""

    blocks: tuple[Block, ...]


# edge roles; the edge of a literal adds 1 when the literal is negative
_EXEC, _CAUSE, _CONDITION, _MEMBER, _EFFECT, _SENSE = 0, 2, 4, 6, 8, 9
_ROLES = 10  # refinement codes an edge as its far end's colour × _ROLES + role


def find_families(domain: PlanningDomain) -> tuple[Family, ...]:
    """The verified families of interchangeable blocks of a valid
    domain, in the order of their first block's first node."""
    counts = [(len(a.executability), a.is_sensing, len(a.effect_props)) for a in domain.actions]
    if len(set(counts)) == len(counts):
        return ()  # every action has a colour of its own: nothing is mirrored
    coded = _code(domain)
    shapes, init, oneofs, goals, static = coded
    nf, na = len(domain.fluents), len(shapes)

    # nodes: fluents, actions, conditional effects, oneof groups; an
    # effect without conditions is an edge from its action to its fluent
    marks: list[list] = [[] for _ in range(nf)]
    for kind, lits in goals:
        for lit in set(lits):
            marks[lit >> 1].append((kind, lit & 1))
    known = {lit >> 1: lit & 1 for lit in init}
    # a node's first colour: its kind (0 fluent, 1 action, 2 effect, 3
    # oneof group) and what it holds without looking at its edges
    start: list = [(0, known.get(f), f in static, *sorted(marks[f])) for f in range(nf)]
    start += ((1, *c) for c in counts)
    edges: list[list[tuple[int, int]]] = [[] for _ in range(nf + na)]
    for v, (ex, sensed, effects) in enumerate(shapes, nf):
        for lit in ex:
            edges[v].append((lit >> 1, _EXEC + (lit & 1)))
            edges[lit >> 1].append((v, _EXEC + (lit & 1)))
        for f in sensed:
            edges[v].append((f, _SENSE))
            edges[f].append((v, _SENSE))
        for effect, conditions in effects:
            e = v
            if conditions:
                e = len(edges)
                start.append((2, len(conditions)))
                edges.append([(v, _EFFECT)])
                edges[v].append((e, _EFFECT))
            for lit, role in ((effect, _CAUSE), *((c, _CONDITION) for c in conditions)):
                edges[e].append((lit >> 1, role + (lit & 1)))
                edges[lit >> 1].append((e, role + (lit & 1)))
    for members in oneofs:
        e = len(edges)
        start.append((3, len(members)))
        edges.append([(lit >> 1, _MEMBER + (lit & 1)) for lit in members])
        for lit in members:
            edges[lit >> 1].append((e, _MEMBER + (lit & 1)))
    n = len(edges)

    ids: dict = {}
    colour = [ids.setdefault(key, len(ids)) for key in start]
    classes = len(ids)
    while len(set(colour[nf : nf + na])) < na:
        size = Counter(colour)
        scaled = [c * _ROLES for c in colour]
        ids = {}
        refined = [
            ids.setdefault(
                c
                if size[c] == 1  # a class of one stays one
                else (c, *sorted([scaled[u] + r for u, r in edges[v]])),
                len(ids),
            )
            for v, c in enumerate(colour)
        ]
        if len(ids) == classes:
            break
        colour, classes = refined, len(ids)
    else:
        return ()  # every action has a colour of its own: nothing is mirrored

    size = Counter(colour)
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for v in range(n):
        k = size[colour[v]]
        if k >= 2:
            for u, _role in edges[v]:
                if size[colour[u]] == k:
                    root[find(u)] = find(v)
    components: dict[int, list[int]] = {}
    for v in range(n):
        if size[colour[v]] >= 2:
            components.setdefault(find(v), []).append(v)
    candidates: dict[tuple[int, ...], list[list[int]]] = {}
    for members in components.values():
        members.sort(key=colour.__getitem__)
        kinds = tuple(colour[v] for v in members)
        if len(set(kinds)) == len(kinds):
            candidates.setdefault(kinds, []).append(members)

    names = (*domain.fluents, *(a.name for a in domain.actions))
    forms = None
    found = []
    for blocks in candidates.values():
        named = [[v for v in members if v < nf + na] for members in blocks]
        if not named[0] or len(named) < 2:
            continue
        if forms is None:
            forms = [_form(shape, range(2 * nf), range(nf)) for shape in shapes]
        # the swap and the cycle of two blocks are one renaming
        orders = [[named[1], named[0]]] + ([named[1:] + named[:1]] if len(named) > 2 else [])
        if all(_fixes(coded, forms, *_renaming(nf, na, named, order)) for order in orders):
            found.append(
                Family(
                    tuple(
                        Block(
                            tuple(names[v] for v in block if v < nf),
                            tuple(names[v] for v in block if v >= nf),
                        )
                        for block in named
                    )
                )
            )
    return tuple(found)


def _code(domain: PlanningDomain) -> tuple:
    """(actions, init, oneof groups, goals, static fluents) of a domain,
    a literal coded as 2 × its fluent's index, plus 1 when negative, and
    a fluent as its index.  An action is (executability, sensed fluents,
    (effect, conditions) pairs); a goal is (kind, literals)."""
    index = {f: i for i, f in enumerate(domain.fluents)}

    def code(lits) -> tuple[int, ...]:
        return tuple([2 * index[x.fluent] + (not x.positive) for x in lits])

    shapes = [
        (
            code(a.executability),
            tuple([index[kp.fluent] for kp in a.knowledge_props]),
            tuple([(code((ep.effect,))[0], code(ep.conditions)) for ep in a.effect_props]),
        )
        for a in domain.actions
    ]
    return (
        shapes,
        code(domain.init),
        [code(oo.literals) for oo in domain.oneofs],
        [(g.kind, code(g.literals)) for g in domain.goals],
        {index[f] for f in domain.static_fluents},
    )


def _form(shape: tuple, lit, fluent) -> tuple:
    """An action's shape (_code) renamed by a literal map and a fluent
    map, as multisets (executability as a set)."""
    ex, sensed, effects = shape
    return (
        {lit[x] for x in ex},
        sorted([fluent[f] for f in sensed]),
        sorted([(lit[e], sorted([lit[c] for c in cs])) for e, cs in effects]),
    )


def _fixes(coded: tuple, forms: list, fluent: list[int], action: list[int]) -> bool:
    """Whether renaming a coded domain (_code) by a fluent map and an
    action map, each a list from index to index, maps it onto itself,
    compared as multisets: executability, init, goals and static
    fluents as sets, conditions and the rest as multisets.  `forms` are
    the actions' shapes as _form gives them unrenamed."""
    shapes, init, oneofs, goals, static = coded
    lit = [2 * f + sign for f in fluent for sign in (0, 1)]
    return (
        all(_form(shapes[a], lit, fluent) == forms[b] for a, b in enumerate(action))
        and {lit[x] for x in init} == set(init)
        and {fluent[f] for f in static} == static
        and sorted(sorted([lit[x] for x in members]) for members in oneofs)
        == sorted(sorted(members) for members in oneofs)
        and sorted((kind, sorted({lit[x] for x in lits})) for kind, lits in goals)
        == sorted((kind, sorted(set(lits))) for kind, lits in goals)
    )


def _renaming(
    nf: int, na: int, sources: list[list[int]], targets: list[list[int]]
) -> tuple[list[int], list[int]]:
    """(fluent map, action map), each a list from index to index, that
    send each node of the source blocks to the node at the same place in
    the target block, zipped in order, and keep every other index."""
    fluent = list(range(nf))
    action = list(range(na))
    for source, target in zip(sources, targets):
        for u, v in zip(source, target):
            if u < nf:
                fluent[u] = v
            else:
                action[u - nf] = v - nf
    return fluent, action
