"""Tests for the benchmark domain generators."""

from __future__ import annotations

import pytest

from hindsight.engine import initial_state
from hindsight.generators import (
    benchmark_bounds,
    generate_bomb,
    generate_rings,
    generate_sickness,
)
from hindsight.model import neg, pos, validate_domain
from hindsight.parser import parse_domain, render_domain
from hindsight.search import count_occurrences, find_optimal_plan, find_plan, verify_plan


@pytest.mark.parametrize(
    "gen,n",
    [(generate_bomb, n) for n in (1, 2, 3, 5)]
    + [(generate_rings, n) for n in (2, 3, 4)]
    + [(generate_sickness, n) for n in (2, 3, 5)],
)
def test_generated_domains_are_structurally_valid(gen, n):
    assert validate_domain(gen(n)).ok


@pytest.mark.parametrize(
    "gen,n",
    [(generate_bomb, 0), (generate_bomb, -1), (generate_rings, 1), (generate_sickness, 1)],
)
def test_undersized_instances_are_rejected(gen, n):
    with pytest.raises(ValueError):
        gen(n)


@pytest.mark.parametrize("gen", [generate_bomb, generate_rings, generate_sickness])
def test_generated_domains_round_trip_through_the_surface_syntax(gen):
    dom = gen(2)
    assert parse_domain(render_domain(dom)) == dom


def test_unknown_benchmark_family_is_rejected():
    with pytest.raises(ValueError):
        benchmark_bounds("towers", 3)


def test_recommended_bounds():
    assert benchmark_bounds("bomb", 4) == (4, 0)
    assert benchmark_bounds("rings", 2) == (5, 0)
    assert benchmark_bounds("sickness", 4) == (5, 3)


# -- disarming ----------------------------------------------------------------


def test_single_package_needs_one_dunk_and_no_sensing():
    dom = generate_bomb(1)
    assert dom.oneofs == ()
    assert [lit.fluent for lit in dom.init] == ["armed_1"]
    plan = find_plan(dom, *benchmark_bounds("bomb", 1))
    assert count_occurrences(plan) == 1
    assert plan.actions == ("dunk_1",)


def test_two_packages_need_both_dunks():
    dom = generate_bomb(2)
    plan = find_optimal_plan(dom, 3, 0)
    assert count_occurrences(plan) == 2
    report = verify_plan(dom, plan, 3, 0)
    assert report.plan_found


def test_dunk_all_solves_four_packages_within_four_steps():
    dom = generate_bomb(4)
    plan = find_plan(dom, *benchmark_bounds("bomb", 4))
    report = verify_plan(dom, plan, *benchmark_bounds("bomb", 4))
    assert report.plan_found
    assert count_occurrences(plan) == 4


def test_disarming_one_package_does_not_reveal_the_bomb_location():
    # backward inertia is blocked by the dunk itself, so initial
    # exclusivity never collapses to "the bomb is in the other package"
    dom = generate_bomb(2)
    state = initial_state(dom, 2, 0)
    state = state.step({0: ("dunk_1",)})
    assert state.knows(neg("armed_1"), 1, 0)
    assert not state.knows(neg("armed_1"), 0, 0)
    assert not state.knows(pos("armed_2"), 0, 0)
    assert not state.knows(pos("armed_2"), 1, 0)


# -- ring of rooms -------------------------------------------------------------


def test_ring_adjacency_is_static_and_ring_shaped():
    dom = generate_rings(3)
    assert dom.static_fluents == {
        "adj_1_2", "adj_2_1", "adj_2_3", "adj_3_2", "adj_3_1", "adj_1_3",
    }
    # statics are initially true and no action affects them
    init_true = {lit.fluent for lit in dom.init if lit.positive}
    assert dom.static_fluents <= init_true
    affected = {
        ep.effect.fluent for a in dom.actions for ep in a.effect_props
    }
    assert not (dom.static_fluents & affected)


def test_two_rooms_close_and_lock_everything_in_five_steps():
    dom = generate_rings(2)
    bounds = benchmark_bounds("rings", 2)
    plan = find_plan(dom, *bounds)
    report = verify_plan(dom, plan, *bounds)
    assert report.plan_found
    assert count_occurrences(plan) == 5


# -- diagnosis -----------------------------------------------------------------


def test_positive_test_result_identifies_the_disease_by_postdiction():
    dom = generate_sickness(2)
    state = initial_state(dom, 3, 1)
    state = state.step({0: ("dip",)})
    state = state.step({0: ("sense_color_1",)})
    # color on: the dip must have fired, so disease 1 was present all along
    assert state.knows(pos("color_1"), 1, 0)
    assert state.knows(pos("disease_1"), 0, 0)
    assert state.knows(neg("disease_2"), 0, 0)
    # color off: the dip cannot have fired, disease 1 is ruled out and
    # the exclusive-or leaves only disease 2
    assert state.knows(neg("color_1"), 1, 1)
    assert state.knows(neg("disease_1"), 0, 1)
    assert state.knows(pos("disease_2"), 0, 1)


def test_two_diseases_need_test_reading_and_one_medication_per_branch():
    dom = generate_sickness(2)
    bounds = benchmark_bounds("sickness", 2)
    plan = find_optimal_plan(dom, *bounds)
    report = verify_plan(dom, plan, *bounds)
    assert report.plan_found
    assert count_occurrences(plan) == 4  # dip, read, medicate in each branch


def test_four_diseases_fan_out_into_one_leaf_branch_each():
    dom = generate_sickness(4)
    bounds = benchmark_bounds("sickness", 4)
    plan = find_plan(dom, *bounds)
    report = verify_plan(dom, plan, *bounds)
    assert report.plan_found
    assert sum(b.parent is not None for b in report.state.branches.values()) + 1 == 4
    assert len(report.state.branches) == 4


def test_medication_requires_knowing_the_disease():
    dom = generate_sickness(2)
    state = initial_state(dom, 3, 1)
    assert not state.is_executable(0, "medicate_1")
    assert not state.is_executable(0, "medicate_2")
    assert state.is_executable(0, "dip")
