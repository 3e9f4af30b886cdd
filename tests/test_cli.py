"""Tests for the command-line front end."""

from __future__ import annotations

import io
import json
import pathlib
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

from hindsight.cli import main

DATA = pathlib.Path(__file__).parent / "data"
DOOR = str(DATA / "smarthome.hpx")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solve --------------------------------------------------------------------


def test_solve_door_prints_the_conditional_plan_tree(capsys):
    code, out, err = run(capsys, "solve", DOOR, "--max-steps", "4",
                         "--max-branches", "1")
    assert code == 0
    assert "0: open_door" in out
    assert "1: sense_open" in out
    assert "if open:" in out
    assert "2: drive" in out
    assert "plan found: 3 occurrences" in out
    assert err == ""


def test_solve_replays_the_found_plan_once(capsys, monkeypatch):
    from hindsight import search
    from hindsight.parser import parse_domain

    calls = []
    real = search.verify_plan
    monkeypatch.setattr(search, "verify_plan", lambda *a: calls.append(a) or real(*a))
    code, _, _ = run(capsys, "solve", DOOR, "--max-steps", "4", "--max-branches", "1",
                     "--format", "json-lines", "--oracle-check")
    assert code == 0
    assert len(calls) == 1

    # the report the search hands the CLI is what a fresh replay gives
    domain = parse_domain(pathlib.Path(DOOR).read_text(encoding="utf-8"))
    plan, report = search._search(domain, 4, 1, optimal=False, concurrent=False)
    fresh = real(domain, plan, 4, 1)
    assert report.occurrences == fresh.occurrences
    assert report.state.all_atoms() == fresh.state.all_atoms()


def test_solve_door_atom_format_is_the_pinned_atom_set(capsys):
    code, out, err = run(capsys, "solve", DOOR, "--max-steps", "4",
                         "--max-branches", "1", "--format", "atoms")
    assert code == 0
    assert out.splitlines() == [
        "nextBr(1,0,1)",
        "occ(drive,2,0)",
        "occ(open_door,0,0)",
        "occ(sense_open,1,0)",
        "sRes(-open,1,1)",
        "sRes(open,1,0)",
    ]
    assert "plan found" in err  # summary moves to the diagnostic stream


def test_solve_door_json_lines_ends_with_a_run_report(capsys):
    code, out, _ = run(capsys, "solve", DOOR, "--max-steps", "4",
                       "--max-branches", "1", "--format", "json-lines",
                       "--oracle-check")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    *plan_rows, report = records
    assert [r["action"] for r in plan_rows] == [
        "open_door", "sense_open", "drive"
    ]
    assert plan_rows[1]["sensed"] == "open"
    assert report["plan_found"] is True
    assert report["occurrences"] == 3
    assert report["domain"] == DOOR
    assert report["mode"] == "sequential"
    assert report["max_steps"] == 4 and report["max_branches"] == 1
    assert report["oracle"].startswith("ok (")
    counts = report["atom_counts"]
    assert counts == sorted(counts)  # monotone nondecreasing, surfaced
    assert report["wall_seconds"] >= 0


def test_solve_reports_oracle_result_in_the_summary(capsys):
    code, out, _ = run(capsys, "solve", DOOR, "--max-steps", "4",
                       "--max-branches", "1", "--oracle-check")
    assert code == 0
    assert "oracle check: ok (" in out


def test_solve_too_small_budget_exits_one(capsys):
    code, out, err = run(capsys, "solve", DOOR, "--max-steps", "1")
    assert code == 1
    assert "no plan within steps=1" in err
    assert out == ""


def test_solve_no_plan_json_lines_still_emits_the_report(capsys):
    code, out, _ = run(capsys, "solve", DOOR, "--max-steps", "1",
                       "--format", "json-lines")
    assert code == 1
    report = json.loads(out.splitlines()[-1])
    assert report["plan_found"] is False
    assert report["occurrences"] is None


def test_solve_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "solve", "no_such_file.hpx")
    assert code == 2
    assert "error:" in err


def test_solve_parse_error_is_span_tagged(capsys, tmp_path):
    bad = tmp_path / "broken.hpx"
    bad.write_text("(:fluents x")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "1:1" in err


def test_solve_rejects_a_zero_step_budget(capsys):
    code, _, err = run(capsys, "solve", DOOR, "--max-steps", "0")
    assert code == 2
    assert "step budget" in err


def test_solve_optimal_reports_the_minimum(capsys):
    code, out, _ = run(capsys, "bench", "bomb", "--n", "2", "--max-steps", "3",
                       "--optimal")
    assert code == 0
    assert "plan found: 2 occurrences" in out


def test_solve_emit_asp_writes_the_program(capsys, tmp_path):
    target = tmp_path / "door.lp"
    code, _, _ = run(capsys, "solve", DOOR, "--max-steps", "4",
                     "--max-branches", "1", "--emit-asp", str(target))
    assert code == 0
    assert target.read_text() == (DATA / "smarthome_program.lp").read_text()


def test_solve_trace_writes_knowledge_atoms(capsys, tmp_path):
    target = tmp_path / "door.trace"
    code, _, _ = run(capsys, "solve", DOOR, "--max-steps", "4",
                     "--max-branches", "1", "--trace", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert "knows(in_liv,3,3,0)" in lines
    assert "occ(open_door,0,0)" in lines
    assert lines == sorted(lines)


# -- bench --------------------------------------------------------------------


def test_bench_defaults_to_the_recommended_bounds(capsys):
    code, out, _ = run(capsys, "bench", "sickness", "--n", "2",
                       "--format", "json-lines")
    assert code == 0
    report = json.loads(out.splitlines()[-1])
    assert report["domain"] == "sickness(2)"
    assert (report["max_steps"], report["max_branches"]) == (3, 1)
    assert report["plan_found"] is True


def test_bench_rejects_an_undersized_instance(capsys):
    code, _, err = run(capsys, "bench", "rings", "--n", "1")
    assert code == 2
    assert "at least 2" in err


def test_bench_concurrent_mode_packs_independent_actions(capsys):
    code, out, _ = run(capsys, "bench", "bomb", "--n", "2", "--max-steps", "2",
                       "--concurrent")
    assert code == 0
    assert "dunk_1 + dunk_2" in out


def test_bench_optimize_emits_static_relations_as_holds(capsys, tmp_path):
    target = tmp_path / "rings.lp"
    code, _, _ = run(capsys, "bench", "rings", "--n", "2", "--optimize",
                     "--emit-asp", str(target))
    assert code == 0
    text = target.read_text()
    assert "holds(adj_1_2)." in text
    assert ":- occ(move_1_2,T,BR), not holds(adj_1_2)." in text
    assert "fluent(adj_1_2)." not in text


def test_bench_oracle_check_passes_on_every_family(capsys):
    for family, n in (("bomb", "2"), ("rings", "2"), ("sickness", "2")):
        code, out, _ = run(capsys, "bench", family, "--n", n, "--oracle-check",
                           "--format", "json-lines")
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["oracle"].startswith("ok (")


# -- validate -----------------------------------------------------------------


def test_validate_accepts_the_door_domain(capsys):
    code, out, _ = run(capsys, "validate", DOOR)
    assert code == 0
    assert out.startswith("ok: 3 fluents, 3 actions")


def test_validate_reports_structural_violations(capsys, tmp_path):
    bad = tmp_path / "mixed.hpx"
    bad.write_text("(:fluents a b) (:action x :effect a :observe b) (:goal weak a)")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "mixed sensing/physical action 'x'" in err


def test_validate_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "broken.hpx"
    bad.write_text(")")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


# -- argument handling --------------------------------------------------------


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["conquer"])
    assert exc.value.code == 2


def test_missing_bench_size_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "bomb"])
    assert exc.value.code == 2


# -- garbage input and extreme budgets ----------------------------------------

GARBAGE = {
    "binary.hpx": b"\xff\xfe(:fluents a)",
    "empty.hpx": b"",
    # more oneof groups than Python's recursion limit
    "oneofs.hpx": b"(:init g)\n"
    + b"".join(b"(oneof a%d b%d)\n" % (i, i) for i in range(1200))
    + b"(:action noop :effect g)\n(:goal strong g)\n",
    # the init rules out both members of a oneof group, with the goal
    # unmet and met at time zero
    "contradiction.hpx": b"(:init -c -d) (oneof c d) (:action noop :effect g) (:goal strong g)",
    "contradiction_met.hpx": b"(:init -c -d g) (oneof c d) (:action noop :effect g) "
    b"(:goal strong g)",
    # 2**40 oneof choices, each refuted only by the last three groups
    "triangle.hpx": b"(:init g)\n"
    + b"".join(b"(oneof a%d b%d)\n" % (i, i) for i in range(40))
    + b"(oneof c d)\n(oneof c e)\n(oneof d e)\n"
    + b"(:action noop :effect g)\n(:goal strong g)\n",
    # a static fluent in an effect condition, which --optimize cannot emit
    "static_condition.hpx": "(:action a :effect (when (and s) g)) (:init s ¬g (:static s)) "
    "(:goal strong g)".encode(),
}


@pytest.mark.parametrize(
    "argv, expected",
    [
        (("solve", "binary.hpx"), 2),
        (("validate", "binary.hpx"), 2),
        (("solve", "empty.hpx"), 0),
        (("validate", "empty.hpx"), 0),
        (("solve", "."), 2),
        (("validate", "."), 2),
        (("bench", "sickness", "--n", "3", "--max-steps", "0"), 2),
        (("bench", "sickness", "--n", "3", "--max-branches", "0", "--max-steps", "1000000"), 2),
        (("bench", "sickness", "--n", "3", "--max-branches", "-1"), 2),
        (("bench", "bomb", "--n", "0"), 2),
        (("bench", "rings", "--n", "0"), 2),
        (("bench", "sickness", "--n", "0"), 2),
        # the deepest step budget allowed searches to the end without a plan
        (("bench", "sickness", "--n", "3", "--max-branches", "0", "--max-steps", "256"), 1),
        # the oracle skips a domain past its world cap instead of crashing
        (("solve", "oneofs.hpx", "--oracle-check", "--max-steps", "1", "--max-branches", "0"), 0),
        # contradictory initial knowledge: no plan, not an internal error
        (("solve", "contradiction.hpx"), 1),
        (("solve", "contradiction.hpx", "--optimal"), 1),
        (("solve", "contradiction_met.hpx"), 1),
        (("solve", "contradiction_met.hpx", "--optimal"), 1),
        # the oracle gives up on a oneof walk that finds no world for long
        (("solve", "triangle.hpx", "--oracle-check", "--max-steps", "1", "--max-branches", "0"), 0),
        # the emitter refuses the domain: the user's input, not a bug
        (("solve", "static_condition.hpx", "--optimize", "--emit-asp", "out.lp"), 2),
    ],
)
def test_garbage_input_and_extreme_budgets_exit_cleanly(
    capsys, tmp_path, monkeypatch, argv, expected
):
    for name, data in GARBAGE.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == expected
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")
    if "--oracle-check" in argv:
        assert "oracle check: skipped: " in out


# -- generated mutations of the shipped domains -------------------------------

_TOKEN = re.compile(r"[()]|[^\s()]+|\s+")


def _mutation_bases() -> list[list[str]]:
    from hindsight.generators import generate_bomb, generate_rings, generate_sickness
    from hindsight.parser import render_domain

    texts = [pathlib.Path(DOOR).read_text(encoding="utf-8")]
    texts += [render_domain(g(2)) for g in (generate_bomb, generate_sickness, generate_rings)]
    return [_TOKEN.findall(text) for text in texts]


def test_generated_domain_mutations_exit_cleanly(tmp_path):
    """Token-level mutations of the door, bomb(2), sickness(2) and rings(2)
    texts, each solved plain, concurrent and optimal: every run exits
    0-2 without a traceback.  Exit 3 is tolerated only for a found plan
    that fails replay or the oracle, and each such case is warned about
    as a finding."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    bases = _mutation_bases()
    vocabulary = sorted({tok for base in bases for tok in base} | {"¬", "-", "0", "oneof"})

    @st.composite
    def mutated(draw):
        tokens = list(draw(st.sampled_from(bases)))
        for _ in range(draw(st.integers(1, 3))):
            if not tokens:
                break
            i = draw(st.integers(0, len(tokens) - 1))
            edit = draw(st.sampled_from(("drop", "copy", "swap", "replace")))
            if edit == "drop":
                del tokens[i]
            elif edit == "copy":
                tokens.insert(i, tokens[i])
            elif edit == "swap":
                j = draw(st.integers(0, len(tokens) - 1))
                tokens[i], tokens[j] = tokens[j], tokens[i]
            else:
                tokens[i] = draw(st.sampled_from(vocabulary))
        return "".join(tokens)

    path, program, trace = (tmp_path / name for name in ("d.hpx", "d.lp", "trace.txt"))
    argv = ("solve", str(path), "--max-steps", "3", "--max-branches", "2", "--oracle-check",
            "--emit-asp", str(program), "--trace", str(trace))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hypothesis.given(mutated())
    def solve_cleanly(text):
        path.write_text(text, encoding="utf-8")
        for mode in ((), ("--concurrent",), ("--optimal",)):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, *mode])
            assert "Traceback" not in out.getvalue() + err.getvalue()
            if code == 3 and ("found plan fails replay" in err.getvalue()
                              or "oracle check found violations" in err.getvalue()):
                warnings.warn(f"solve {' '.join(mode)} exits 3 on {text!r}: {err.getvalue()}")
                continue
            assert code in (0, 1, 2), (mode, text, err.getvalue())

    solve_cleanly()
