"""Checks on the benchmark itself: its copied generator, its references,
its tracing and its guards.  Each runs in a few seconds."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from perfbench import corpus, run, spans
from perfbench.workloads import WORKLOADS

TESTS_DIR = Path(__file__).resolve().parents[1] / "tests"


def _criterion_module():
    if str(TESTS_DIR) not in sys.path:
        sys.path.insert(0, str(TESTS_DIR))
    import test_acceptance

    return test_acceptance


def test_copied_generator_reproduces_criterion_2_domains():
    acceptance = _criterion_module()
    for seed in range(corpus.DEFAULT_SEED, corpus.DEFAULT_SEED + 50):
        assert corpus.random_domain(random.Random(seed)) == acceptance._random_domain(
            random.Random(seed)
        ), seed
    assert corpus.corpus(corpus.DEFAULT_SEED, 3) == [
        acceptance._random_domain(random.Random(corpus.DEFAULT_SEED + i)) for i in range(3)
    ]


def test_copied_brute_force_matches_criterion_7():
    acceptance = _criterion_module()
    for domain in corpus.corpus(corpus.DEFAULT_SEED, 12):
        assert corpus.exhaustive_minimum(domain, 4, 2, None) == (
            acceptance._exhaustive_minimum(domain, 4, 2, None)
        )


def test_committed_references_hold_under_a_seeded_renaming():
    refs = corpus.load_references()
    renamed = corpus.corpus(12345, 25)
    assert renamed != corpus.corpus(corpus.DEFAULT_SEED, 25)
    assert corpus.optimal_references(renamed) == refs["optimal_fuzz"][:25]
    assert corpus.walk_references(renamed) == refs["soundness_walk"][:25]


def _small_ops(workload, tmp_path):
    from perfbench.workloads import write_files

    ops = workload.prepare(corpus.DEFAULT_SEED, tmp_path)
    write_files(ops)
    workload.attach_references(ops)
    return workload.warm_up(ops)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_runs_give_identical_verdicts(name, tmp_path):
    workload = WORKLOADS[name]
    ops = _small_ops(workload, tmp_path)
    plain = [workload.run(op) for op in ops]
    for op, answer in zip(ops, plain):
        assert workload.check(op, answer) is None, op.label
    counts = []
    for _ in range(2):
        rec = spans.Recorder()
        with spans.traced(rec):
            traced = [rec.run_op(op.index, lambda op=op: workload.run(op)) for op in ops]
        assert [workload.verdict(a) for a in traced] == [workload.verdict(a) for a in plain]
        metrics = spans.layer_metrics(rec, spans.Recorder())
        counts.append({k: metrics[k] for k in spans.REPEATED_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["engine.steps"] > 0


def test_patched_names_are_restored_even_after_an_error():
    import hindsight.engine

    wraps = spans.WRAPS + (("hindsight.engine", "no_such_function", "engine.gone"),)
    before = {(m, a): spans._resolve(m, a) for m, a, _ in spans.WRAPS}
    originals = {k: vars(h)[key] for k, (h, key) in before.items()}
    rec = spans.Recorder()
    with pytest.raises(KeyError):
        with spans.traced(rec, wraps) as patched:
            assert len(patched) == len(spans.WRAPS)
            assert hindsight.engine.EpistemicState.step is not originals[
                ("hindsight.engine", "EpistemicState.step")
            ]
            raise KeyError("boom")
    for (module, attr), (holder, key) in before.items():
        assert vars(holder)[key] is originals[(module, attr)], f"{module}.{attr}"
    assert "engine.gone" not in rec.names


def test_self_time_subtracts_direct_children():
    rec = spans.Recorder()
    for name, start, end, parent in (
        ("bench.op", 0.0, 10.0, -1),
        ("cli.main", 1.0, 9.0, 0),
        ("search.find_plan", 2.0, 8.0, 1),
        ("engine.step", 3.0, 4.0, 2),
        ("engine.step", 5.0, 7.0, 2),
    ):
        i = rec._open(rec._id(name))
        rec.start[i], rec.end[i], rec.parent[i] = start, end, parent
        rec.stack.clear()
    layers = spans.layer_self_times(rec)
    assert layers["bench"] == 2.0
    assert layers["cli"] == 2.0
    assert layers["search"] == 3.0
    assert layers["engine"] == 3.0
    assert sum(layers.values()) == 10.0
    metrics = spans.layer_metrics(rec, spans.Recorder())
    assert metrics["search.nodes"] == 2
    assert metrics["engine.step_s"] == 3.0


@pytest.mark.parametrize("value", ["1", "yes"])
def test_refuses_to_run_with_engine_checks_on(value, monkeypatch, capsys):
    monkeypatch.setenv("HINDSIGHT_CHECK", value)
    assert run.main(["--workload", "ladder", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""



def test_ladder_rungs_carry_their_repeats(tmp_path):
    from perfbench.workloads import LADDER_RUNGS

    ops = WORKLOADS["ladder"].prepare(corpus.DEFAULT_SEED, tmp_path)
    assert sorted(op.repeats for op in ops) == sorted(r for _, _, r in LADDER_RUNGS)
    assert all(op.reference is None for op in ops)


def test_schedule_spreads_each_ops_repeats_over_the_pass():
    from perfbench.workloads import Op

    ops = [Op(i, f"op{i}", "g", Path(f"{i}.hpx"), repeats=r) for i, r in enumerate((1, 4, 1, 8))]
    order = [op.index for op in run.schedule(ops)]
    assert sorted(order) == [0] + [1] * 4 + [2] + [3] * 8
    # the single ops are apart, and a repeated op's runs span the pass
    assert abs(order.index(0) - order.index(2)) > 1
    for index in (1, 3):
        at = [k for k, i in enumerate(order) if i == index]
        assert at[0] < len(order) / 4 and at[-1] >= 3 * len(order) / 4


def test_operation_time_is_the_median_of_its_runs():
    from perfbench.workloads import Op

    op = Op(0, "op0", "g", Path("0.hpx"))
    results = [run.Result(op, t, None, None, "ok") for t in (5.0, 1.0, 2.0)]
    assert run.op_times(results) == {0: 2.0}


def test_reference_speed_scales_times_and_rates_but_not_memory():
    raw = {"wall_s": (2.0, "s"), "p50_ms": (4.0, "ms"), "ops_per_s": (10.0, "1/s"),
           "peak_rss_mb": (20.0, "MB")}
    assert run.at_speed(raw, 0.5) == {
        "wall_s": (1.0, "s"), "p50_ms": (2.0, "ms"), "ops_per_s": (20.0, "1/s"),
        "peak_rss_mb": (20.0, "MB"),
    }
