"""Tests for the command-line front end."""

from __future__ import annotations

import hashlib
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


COIN = """
(:action toss1 :effect r1 (when (and d e) heads))
(:action toss2 :executable (and r1) :effect r2 (when (and d ¬e) heads))
(:action toss3 :executable (and r2) :effect r3 (when (and ¬d e) heads))
(:action toss4 :executable (and r3) :effect ready (when (and ¬d ¬e) heads))
(:action look :executable (and ready) :observe heads)
(:action claim :executable (and ¬heads ready) :effect w)
(:init ¬heads ¬w ¬r1 ¬r2 ¬r3 ¬ready)
(:goal weak w)
"""


def test_solve_names_the_vacuous_branches_in_the_oracle_summary(capsys, tmp_path):
    """After the four tosses heads holds in every world, so no world
    reaches the plan's -heads side, branch 1, where it claims.  The
    summary names that branch.  This is the gap ROADMAP item 7 describes:
    judging the plan in the worlds may change this text on purpose."""
    coin = tmp_path / "coin.hpx"
    coin.write_text(COIN, encoding="utf-8")
    code, out, _ = run(capsys, "solve", str(coin), "--oracle-check",
                       "--max-steps", "7", "--max-branches", "1")
    assert code == 0
    assert "oracle check: ok (45 atoms checked, branches [1] vacuous)" in out


def test_solve_exits_three_when_the_oracle_finds_violations(capsys, monkeypatch):
    from hindsight import cli
    from hindsight.oracle import SoundnessReport

    monkeypatch.setattr(
        cli, "soundness_check", lambda state: SoundnessReport(1, ("knows(open,0,1,0) is wrong",))
    )
    code, out, err = run(capsys, "solve", DOOR, "--oracle-check")
    assert code == 3
    assert "oracle check: 1 VIOLATIONS: knows(open,0,1,0) is wrong" in out
    assert "error: oracle check found violations" in err


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


def test_validate_reports_the_interchangeable_blocks(capsys, tmp_path):
    from hindsight.generators import generate_sickness
    from hindsight.parser import render_domain

    code, out, _ = run(capsys, "validate", DOOR)
    assert code == 0
    assert out.splitlines()[1:] == ["symmetry: none found"]
    sickness = tmp_path / "sickness4.hpx"
    sickness.write_text(render_domain(generate_sickness(4)))
    code, out, _ = run(capsys, "validate", str(sickness))
    assert code == 0
    assert out.splitlines()[1:] == [
        "symmetry: 3 interchangeable blocks such as "
        "disease_1 color_1 sense_color_1 medicate_1"
    ]


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
    # more stacked signs than Python's recursion limit
    "signs.hpx": ("(:init " + "¬ " * 3000 + "f)").encode(),
    # no plan, and no sensor to split on
    "sensor_free.hpx": "(:action a :effect x) (:init ¬x ¬g) (:goal strong g)".encode(),
}

# far more restarts than any row needs; a search past it would not end
MAX_RESTARTS = 10_000


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
        # the parser reads a sign chain without recursing
        (("solve", "signs.hpx"), 2),
        (("validate", "signs.hpx"), 2),
        # no sensor, so no plan splits and the branch budget adds no occurrences
        (("solve", "sensor_free.hpx", "--optimal", "--max-steps", "8",
          "--max-branches", "1000000000"), 1),
        # an instance deeper than the step limit is refused before it is
        # generated, whatever --max-steps says
        (("bench", "bomb", "--n", "257"), 2),
        (("bench", "bomb", "--n", "300"), 2),
        (("bench", "bomb", "--n", "100000000"), 2),
        (("bench", "rings", "--n", "86"), 2),
        (("bench", "sickness", "--n", "256"), 2),
        (("bench", "sickness", "--n", "20000", "--max-steps", "2"), 2),
    ],
)
def test_garbage_input_and_extreme_budgets_exit_cleanly(
    capsys, tmp_path, monkeypatch, argv, expected
):
    for name, data in GARBAGE.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    from test_search import _count_restarts

    _count_restarts(monkeypatch, MAX_RESTARTS)
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


# -- pinned ladder outputs ----------------------------------------------------

# The benchmark ladder's rungs solved through the CLI as the benchmark
# runs them, plus a trace: sha256 of the json-lines output (run report
# without wall_seconds), of the trace file and of the emitted program,
# taken while every step still closed its layer with the worklist.  A
# change that must leave plans, traces and programs unchanged keeps
# these; append new rungs so that existing ids keep their names.
LADDER_DIGESTS = {
    "smarthome": (
        "102dc0f7f1a9e8156b22468849e8c3e01285e64f9fd397ed537b8c2ff0a7d29d",
        "82b3a8cc04fa069c5f55e20a9ebc31e1e72de73a0ba1eb0ea9c56252c9bacac6",
        "60c7290b4370e1f329baef78695d37811be122945bd5470a69758189ff65ef2f",
    ),
    "bomb(4)": (
        "a566b863ea750bd3ff257dc2bbd0ad5230f1bb445ca9ad103f41a38702098361",
        "ab462b0f8b56eb20f142a5782e287eac3f3b1662667449e2ef7ef9eb307ecb30",
        "f294431975a0a960ba58ab6e5892ca3cde8b6bd44217522125b2912fc15e2ac8",
    ),
    "bomb(5)": (
        "7afad8f23e20d4580446e6a048299c0e9e83a7c88eabe7e71c41c6110d26f2a0",
        "3b9da0b7c5623cdb7d6199f4e0ab5461b4554f72fa2dc26f10dab309cf0d956d",
        "4b7295199efb5df53b9f4b2df205eb1b04f2303764a544174e9051dd56bce83c",
    ),
    "bomb(6)": (
        "2942fde88f296b87e6f22ed3b08a08bc60d71cb939a0e50717b0f85a2308bf26",
        "464f4152c0231c396abaae57d1816146ca896e65047a59fbe1c57ec8ef1c40a5",
        "6bc0dfd1b6f971b3450e75b2536851f819f2ada0b0f42365b1335e219e0469e1",
    ),
    "rings(2)": (
        "951fb8e43a5cf2c18857d305270ba181a48c98ec59fe41db1dc5f9e81f162354",
        "308b971919e3ad9dc2848458a5fc91888b4ba200cc1dcf51cfc2093dc5eabf16",
        "69c58c19a12e9911bde7dba22a27c5478ae8b53bd98166deccbd886662958523",
    ),
    "rings(3)": (
        "49ab3ce96dfbe5721927138c26f1b788c1c69589622c73f5c0ce9c43a7dc0dbb",
        "c38778c13a9d0457917e62340aaf0050e2e275ddb37d5d43235d84ed6cf2584b",
        "68b955af644f00b13edc376a2910ecd7d31753a34e0e1dab27eb122b6a3ef0a7",
    ),
    "sickness(3)": (
        "c242cc861c26d96ff00d6eca7603f49560222fade9af43c252fc3dbca4ff5c6c",
        "d8a172576216f6e5ffb94c698c24b8335f54d4b6bd7667faadb72032f4576131",
        "8ead6787eec5dca5671c15fb5fd8e255ddddd821064eef692423357260aeb271",
    ),
    "sickness(4)": (
        "38993079bc756767fb0dccabce38e65719c33297eb2863de34a0c8212e83911b",
        "b41286665cf005ae641059154f06ae0cbaa6e5a68728278a718dd9e92aac0c58",
        "6484b0451c3eebec28c4a5e0a2aa445243fc43c82a5a7b082abae238282dfbdc",
    ),
    "sickness(5)": (
        "94db8774cb4a75a020d69c800c0ded96965ed8dac4d5c39504605ed1151b3c99",
        "4da82a8808bb5b06983e86ae537ea37eff79bb37a2f71bac5f31671d4ff5279f",
        "634b368dfa041473931964618beb2cec19ba6e6c61e6c4005152aedcdd26fcfb",
    ),
}


def _ladder_text(rung: str) -> tuple[str, tuple[int, int]]:
    from hindsight import generators
    from hindsight.parser import render_domain

    if rung == "smarthome":
        return pathlib.Path(DOOR).read_text(encoding="utf-8"), (3, 1)
    family, n = rung.rstrip(")").split("(")
    domain = getattr(generators, f"generate_{family}")(int(n))
    return render_domain(domain), generators.benchmark_bounds(family, int(n))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rung", list(LADDER_DIGESTS))
def test_ladder_rungs_keep_their_pinned_outputs(capsys, tmp_path, monkeypatch, rung):
    text, (steps, branches) = _ladder_text(rung)
    monkeypatch.chdir(tmp_path)
    pathlib.Path("d.hpx").write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "solve", "d.hpx", "--max-steps", str(steps),
                       "--max-branches", str(branches), "--oracle-check",
                       "--emit-asp", "d.lp", "--trace", "d.trace",
                       "--format", "json-lines")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    del records[-1]["wall_seconds"]
    digests = (
        _sha256(json.dumps(records, sort_keys=True)),
        _sha256(pathlib.Path("d.trace").read_text(encoding="utf-8")),
        _sha256(pathlib.Path("d.lp").read_text(encoding="utf-8")),
    )
    assert digests == LADDER_DIGESTS[rung]


# A random domain (seed 900353 of test_search's wide generator) whose
# first plan changes if the search skips an action all of whose effects
# are known: on the -f5 side of its split, a1's one effect is.
SKIPPABLE_EFFECT = """
(:fluents f1 f2 f3 f4 f5 f6) (:init f6 f1 f3)
(:action a1 :effect (when f5 -f5)) (:action a2 :effect (when -f5 -f1))
(:action a3 :effect (when f6 f1) (when -f1 -f4)) (:action s1 :observe f5)
(:goal strong (and -f1 -f4))
"""


@pytest.mark.parametrize("rung", [*LADDER_DIGESTS, "wide(900353)"])
def test_optimize_changes_no_solve_output(capsys, tmp_path, monkeypatch, rung):
    """`--optimize` shapes only the emitted program: solve prints the
    same plan records and report with it as without it."""
    if rung == "wide(900353)":
        text, (steps, branches) = SKIPPABLE_EFFECT, (5, 2)
    else:
        text, (steps, branches) = _ladder_text(rung)
    monkeypatch.chdir(tmp_path)
    pathlib.Path("d.hpx").write_text(text, encoding="utf-8")
    outputs = []
    for optimize in ((), ("--optimize",)):
        code, out, _ = run(capsys, "solve", "d.hpx", "--max-steps", str(steps),
                           "--max-branches", str(branches), "--format", "json-lines",
                           *optimize)
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        del records[-1]["wall_seconds"]
        outputs.append(records)
    assert outputs[0] == outputs[1]
