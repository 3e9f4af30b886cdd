"""Detection of interchangeable blocks (symmetry.py).

The search's use of the blocks is tested in test_search.py, against a
brute force and under renamings.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pytest

from hindsight import engine, model
from hindsight.generators import generate_bomb, generate_rings, generate_sickness
from hindsight.model import EffectProposition, pos
from hindsight.parser import parse_domain
from hindsight.symmetry import Block, Family, find_families

DOOR = pathlib.Path(__file__).parent / "data" / "smarthome.hpx"


@pytest.mark.parametrize("n", [3, 5, 8])
def test_sickness_has_one_family_of_its_identifiable_diseases(n):
    # disease n has no color: the one left over when every color reads off
    assert find_families(generate_sickness(n)) == (
        Family(
            tuple(
                Block((f"disease_{k}", f"color_{k}"), (f"sense_color_{k}", f"medicate_{k}"))
                for k in range(1, n)
            )
        ),
    )


def test_one_block_is_no_family():
    assert find_families(generate_sickness(2)) == ()


@pytest.mark.parametrize("n", [2, 4, 9])
def test_bomb_has_one_family_of_its_packages(n):
    assert find_families(generate_bomb(n)) == (
        Family(tuple(Block((f"armed_{k}",), (f"dunk_{k}",)) for k in range(1, n + 1))),
    )


def test_the_door_domain_and_the_two_room_ring_have_none():
    assert find_families(parse_domain(DOOR.read_text(encoding="utf-8"))) == ()
    assert find_families(generate_rings(2)) == ()


def test_an_even_ring_gives_its_reflection_as_two_blocks():
    """The reflection through room 1 swaps the ring's two halves.  In an
    odd ring the two middle rooms' moves would join the halves, so
    detection finds nothing there."""
    (family,) = find_families(generate_rings(4))
    first, second = family.blocks
    assert first.fluents[:3] == ("pos_2", "closed_2", "locked_2")
    assert second.fluents[:3] == ("pos_4", "closed_4", "locked_4")
    assert ("move_2_3", "move_4_3") == (first.actions[2], second.actions[2])
    assert find_families(generate_rings(3)) == find_families(generate_rings(5)) == ()


def test_an_extra_effect_takes_its_block_out_of_the_family():
    d = generate_sickness(5)
    medicate_2 = d.action("medicate_2")
    extra = EffectProposition("medicate_2_2", pos("color_2"))
    changed = dataclasses.replace(
        d,
        actions=tuple(
            dataclasses.replace(a, effect_props=a.effect_props + (extra,))
            if a is medicate_2 else a
            for a in d.actions
        ),
    )
    families = find_families(changed)
    assert all(
        "medicate_2" not in b.actions and "disease_2" not in b.fluents
        for f in families
        for b in f.blocks
    )
    # the other three identifiable diseases are still interchangeable
    assert [len(f.blocks) for f in families] == [3]


def test_a_one_sided_goal_breaks_the_symmetry():
    d = generate_bomb(3)
    uneven = dataclasses.replace(
        d, goals=(model.GoalProposition("strong", (model.neg("armed_1"),)),)
    )
    families = find_families(uneven)
    assert [[b.fluents for b in f.blocks] for f in families] == [[("armed_2",), ("armed_3",)]]


def test_detection_neither_validates_nor_compiles(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("detection validated or compiled its domain")

    monkeypatch.setattr(model, "validate_domain", refuse)
    monkeypatch.setattr(engine, "validate_domain", refuse)
    monkeypatch.setattr(engine.CompiledDomain, "__init__", refuse)
    assert len(find_families(generate_sickness(6))[0].blocks) == 5
    assert find_families(generate_rings(3)) == ()
