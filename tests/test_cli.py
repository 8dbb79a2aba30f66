import argparse
import functools
import hashlib
import inspect
import json
import re
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import parkdet.cli as cli
from parkdet.cli import _json_indented, build_parser, main, render_reports
from parkdet.multigraph import complete_multigraph, format_graph, graph_to_json
from parkdet.suites import MINIMUMS, SUITES

K4_TEXT = "3\n0 1 1\n0 2 1\n0 3 1\n1 2 1\n1 3 1\n2 3 1\n"


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(K4_TEXT)
    return str(path)


def test_dim_skeleton(k4_file, capsys):
    assert main(["dim", "--graph-file", k4_file, "--skeleton", "1"]) == 0
    assert capsys.readouterr().out.strip() == "20"


def test_dim_parking_default(k4_file, capsys):
    assert main(["dim", "--graph-file", k4_file]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_dim_lambda_and_step(capsys):
    assert main(["dim", "--lambda-seq", "2,1"]) == 0
    assert capsys.readouterr().out.strip() == "3"
    assert main(["dim", "--step", "3,1,3"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_det_qtilde(k4_file, capsys):
    assert main(["det", "--graph-file", k4_file, "--matrix", "qtilde"]) == 0
    assert capsys.readouterr().out.strip() == "20"
    assert main(["det", "--graph-file", k4_file, "--matrix", "ltilde"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_det_matrix_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    for text, det, dim in [
        ('[["3","1","1"],["1","3","1"],["1","1","3"]]', "20", "20"),
        ('[["2","1"],["1","2"]]', "3", "3"),
        # J_H with one corner, then with two: the counter's closed-form leaves
        ("[[2,1,0],[1,2,0],[0,0,3]]", "9", "9"),
        ("[[2,1,1],[1,2,0],[1,0,2]]", "4", "5"),
    ]:
        path.write_text(text)
        assert main(["det", "--matrix-file", str(path)]) == 0
        assert capsys.readouterr().out.strip() == det, text
        assert main(["dim", "--matrix-file", str(path)]) == 0
        assert capsys.readouterr().out.strip() == dim, text


def test_ideal_dump(k4_file, capsys):
    assert main(["ideal", "--graph-file", k4_file, "--skeleton", "1"]) == 0
    out = capsys.readouterr().out
    assert "3 0 0" in out and "2 2 0" in out
    assert main(["ideal", "--lambda-seq", "2,1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nvars"] == 2


def test_gen_round_trips(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen", "--kind", "complete", "--n", "3", "--out", str(out)]) == 0
    assert out.read_text() == K4_TEXT == format_graph(complete_multigraph(3, 1, 1))
    assert main(["gen", "--kind", "random", "--n", "3", "--max-mult", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--kind", "random", "--n", "3", "--max-mult", "2", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "--kind", "complete", "--n", "2", "--a", "2", "--b", "3",
                 "--format", "json"]) == 0
    assert capsys.readouterr().out.strip() == graph_to_json(complete_multigraph(2, 2, 3))


@pytest.mark.parametrize("seed", ["-1", str(2**64), "1_0"])
@pytest.mark.parametrize("argv", [["gen", "--kind", "random", "--n", "3"], ["verify", "rc", "--trials", "1"]])
def test_seed_outside_64_bits_or_not_decimal_exits_1(argv, seed, capsys):
    # SplitMix64 masks its seed to 64 bits, so -1 would alias 2**64 - 1
    assert main([*argv, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: --seed: expected an integer in [0, 2**64), got {seed!r}\n"


def test_largest_seed_is_accepted(capsys):
    assert main(["gen", "--kind", "random", "--n", "3", "--seed", str(2**64 - 1)]) == 0
    assert capsys.readouterr().out


INT_FLAGS = [
    ["gen", "--kind", "complete", "--n"],
    ["gen", "--kind", "complete", "--n", "3", "--a"],
    ["gen", "--kind", "complete", "--n", "3", "--b"],
    ["gen", "--kind", "complete-minus", "--n", "3", "--r"],
    ["gen", "--kind", "random", "--n", "3", "--max-mult"],
    ["verify", "rc", "--n"],
    ["verify", "rc", "--a-max"],
    ["verify", "rc", "--b-max"],
    ["verify", "ineq", "--mult-max"],
    ["verify", "mt", "--entry-max"],
    ["verify", "mt", "--trials"],
    ["dim", "--lambda-seq", "2,1", "--skeleton"],
]


@pytest.mark.parametrize("value", ["1_0", "\u0663", " 3"])
@pytest.mark.parametrize("argv", INT_FLAGS, ids=[f"{a[0]}{a[-1]}" for a in INT_FLAGS])
def test_integer_flags_are_decimal(argv, value, capsys):
    # int() takes underscores, non-ASCII digits and surrounding spaces
    assert main([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: argument {argv[-1]}")  # verify's --n is --n/--n-max
    assert captured.err.endswith(f": expected an integer, got {value!r}\n")


def test_formulas(capsys):
    assert main(["formulas", "--skel1", "3,1,1", "--qdet", "3,1", "--steck", "3,2,2"]) == 0
    out = capsys.readouterr().out
    assert "skeleton1_dim_complete = 20" in out
    assert "root_deleted_signless_det = 12" in out
    assert "steck_count = 20" in out
    assert main(["formulas", "--identity", "4,0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["step_weight_identity_holds"] == "true"
    assert main(["formulas", "--parking", "3,1,1", "--identity", "3,3", "--format", "json"]) == 0
    assert capsys.readouterr().out == '{"parking_dim_complete": "16", "step_weight_identity_holds": "true"}\n'


ALL_FORMULAS = ["--parking", "3,1,1", "--skel1", "3,1,1", "--qdet", "3,1", "--step-dim", "3,1,3",
                "--steck", "3,2,2", "--flat", "2,3", "--identity", "3,3"]
ALL_FORMULAS_VALUES = [
    ("parking_dim_complete", "16"),
    ("skeleton1_dim_complete", "20"),
    ("root_deleted_signless_det", "12"),
    ("step_weight_dim", "12"),
    ("steck_count", "20"),
    ("flat_parking_count", "15"),
    ("step_weight_identity_holds", "true"),
]


def test_formulas_all_flags(capsys):
    assert main(["formulas", *ALL_FORMULAS]) == 0
    assert capsys.readouterr().out == "".join(f"{k} = {v}\n" for k, v in ALL_FORMULAS_VALUES)
    assert main(["formulas", *ALL_FORMULAS, "--format", "json"]) == 0
    assert capsys.readouterr().out == (
        '{"parking_dim_complete": "16", "skeleton1_dim_complete": "20", '
        '"root_deleted_signless_det": "12", "step_weight_dim": "12", "steck_count": "20", '
        '"flat_parking_count": "15", "step_weight_identity_holds": "true"}\n')


def test_verify_rc(capsys):
    assert main(["verify", "rc", "--n", "4", "--trials", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["suite"] == "rc"
    assert report["summary"]["failed"] == 0


def test_verify_formats(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert main(["verify", "recurrence", "--n", "3", "--a-max", "3",
                 "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("suite,id,")
    assert main(["verify", "rc", "--n", "3", "--trials", "5", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "suite,id,relation,pass,dim,det,formula,instance"
    out2 = tmp_path / "report.txt"
    assert main(["verify", "ineq", "--trials", "5", "--format", "text", "--out", str(out2)]) == 0
    assert "summary:" in out2.read_text()
    # the 40 random trials and the P4 witness each print their slack dim - det
    assert main(["verify", "ineq", "--n", "4", "--trials", "40", "--format", "text"]) == 0
    assert sum("slack=" in line for line in capsys.readouterr().out.splitlines()) == 41


def test_verify_report_replayable(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "rc", "--n", "3", "--trials", "5", "--seed", "11",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    trial = report["trials"][-1]
    graph = tmp_path / "instance.json"
    graph.write_text(json.dumps({"n": trial["instance"]["n"], "adj": trial["instance"]["adj"]}))
    k = trial["instance"]["n"] - 1 if trial["instance"]["n"] == 1 else 1
    assert main(["dim", "--graph-file", str(graph), "--skeleton", str(k)]) == 0
    assert capsys.readouterr().out.strip() == trial["dim"]
    assert main(["det", "--graph-file", str(graph), "--matrix", "qtilde"]) == 0
    assert capsys.readouterr().out.strip() == trial["det"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_root_deletion_dim_equals_det_through_the_entry_point(tmp_path, capsys, fmt):
    path = str(tmp_path / "rd")
    assert main(["gen", "--kind", "root-deletion", "--n", "5", "--a", "2", "--b", "3", "--seed", "7",
                 "--format", fmt, "--out", path]) == 0
    assert main(["det", "--graph-file", path]) == 0
    assert capsys.readouterr().out == "172773\n"
    assert main(["dim", "--graph-file", path, "--skeleton", "1"]) == 0
    assert capsys.readouterr().out == "172773\n"


@pytest.mark.parametrize("gen, matrix, formula, value", [
    ("complete --n 40 --a 3 --b 2", "qtilde", "--skel1 40,3,2", None),
    ("complete --n 40 --a 3 --b 2", "ltilde", "--parking 40,3,2", None),
    ("complete-minus --n 6 --r 6", "qtilde", "--qdet 6,6", "10240"),
], ids=["order-40-qtilde", "order-40-ltilde", "complete-minus-6-6"])
def test_det_of_generated_graph_is_its_closed_form(tmp_path, capsys, gen, matrix, formula, value):
    path = str(tmp_path / "g.txt")
    assert main(["gen", "--kind", *gen.split(), "--out", path]) == 0
    assert main(["det", "--graph-file", path, "--matrix", matrix]) == 0
    det = capsys.readouterr().out
    assert main(["formulas", *formula.split()]) == 0
    assert capsys.readouterr().out.split(" = ")[1] == det
    assert value is None or det == value + "\n"


def test_exit_code_2_on_failure(monkeypatch, capsys):
    from parkdet import suites as suites_mod
    from parkdet.suites import Report, Trial

    def failing_suite(seed=0):
        return Report("matrix-tree", {}, seed, [Trial(0, {}, 1, 2, None, "eq", False)], 0)

    monkeypatch.setitem(suites_mod.SUITES, "matrix-tree", failing_suite)
    assert main(["verify", "matrix-tree"]) == 2
    capsys.readouterr()


def test_usage_errors_exit_1(capsys):
    assert main(["dim"]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["verify", "nonsense"]) == 1
    capsys.readouterr()
    assert main(["formulas"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["dim", "--lambda-seq", "2,1", "--parking"], "unrecognized arguments: --parking"),
    (["ideal", "--lambda-seq", "2,1", "--parking"], "unrecognized arguments: --parking"),
    (["dim", "--lambda-seq", "2,1", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["ideal", "--step", "3,1,3", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["det", "--matrix-file", "m.json", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["formulas", "--steck", "2,1", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["formulas", "--steck", "2,1", "--graph-file", "g.txt"], "unrecognized arguments: --graph-file g.txt"),
    (["gen", "--kind", "complete", "--n", "3", "--graph-file", "g.txt"],
     "unrecognized arguments: --graph-file g.txt"),
    (["verify", "rc", "--graph-file", "g.txt"], "unrecognized arguments: --graph-file g.txt"),
    (["dim", "--lambda-seq", "2,1", "--skeleton", "5"], "--skeleton needs --graph-file"),
    (["ideal", "--step", "3,1,3", "--skeleton", "1"], "--skeleton needs --graph-file"),
    (["det", "--graph-file", "g.txt", "--matrix-file", "m.json"],
     "give exactly one of --graph-file, --matrix-file"),
    (["det", "--matrix-file", "m.json", "--matrix", "l"], "--matrix needs --graph-file"),
])
def test_flags_a_subcommand_does_not_read_exit_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_malformed_graph_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1 1\n0 1\n")
    assert main(["dim", "--graph-file", str(path)]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name, text, message", [
    (["dim", "--graph-file"], "g.json", '{"n":1,"adj":[[0,1.7],[1.7,0]]}',
     "invalid graph JSON: adj[0][1]: expected an integer, got 1.7"),
    (["det", "--graph-file"], "g.json", '{"n":1,"adj":[[0,1.7],[1.7,0]]}',
     "invalid graph JSON: adj[0][1]: expected an integer, got 1.7"),
    (["det", "--matrix-file"], "m.json", '[[true, 0], [0, 1]]',
     "matrix entry (0, 0): expected an integer, got True"),
    (["dim", "--matrix-file"], "m.json", '[["2", "1"], ["1", "2.0"]]',
     "matrix entry (1, 1): expected an integer, got '2.0'"),
    (["det", "--graph-file"], "g.json", '{"n": 1, "adj": ["01", "10"]}',
     'invalid graph JSON: "adj" must be an array of rows'),
    (["det", "--graph-file"], "g.json", '{"n": 1, "adj": {"01": 0, "10": 0}}',
     'invalid graph JSON: "adj" must be an array of rows'),
])
def test_non_integer_json_input_exits_1(tmp_path, capsys, argv, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("argv, name", [
    (["dim", "--graph-file"], "bad.txt"),
    (["det", "--matrix-file"], "bad.json"),
])
def test_non_utf8_input_file_exits_1_naming_it(tmp_path, capsys, argv, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe3\n")
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("argv, name, text", [
    (["det", "--matrix-file"], "deep.json", DEEP),
    (["dim", "--matrix-file"], "deep.json", DEEP),
    (["det", "--graph-file"], "g.json", '{"n": 1, "adj": ' + DEEP + "}"),
], ids=["det-matrix", "dim-matrix", "det-graph"])
def test_deeply_nested_json_exits_1_naming_it(tmp_path, capsys, argv, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([*argv, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("command", ["dim", "ideal"])
def test_matrix_outside_the_class_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "m.json"
    path.write_text("[[1, 2], [3, 4]]")
    assert main([command, "--matrix-file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: matrix must be symmetric, nonnegative, with row-dominant diagonal\n"
    assert main(["det", "--matrix-file", str(path)]) == 0
    assert capsys.readouterr().out == "-2\n"


def test_non_ascii_integers_exit_1(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1 1_0\n0 2 \u0661\n1 2 1\n")
    assert main(["dim", "--graph-file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: line 2: field 3: expected an integer, got '1_0'\n"
    assert main(["dim", "--lambda-seq", "1_0,2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --lambda-seq: expected comma-separated integers, got '1_0,2'\n"


def test_psd_generator_exhaustion_exits_1(monkeypatch, capsys):
    from functools import partial

    from parkdet import suites as suites_mod

    monkeypatch.setattr(suites_mod, "_random_dominant_psd",
                        partial(suites_mod._random_dominant_psd, max_attempts=0))
    assert main(["verify", "mt", "--trials", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no admissible PSD instance found in 0 attempts (n=")


def test_verify_zero_trials_is_an_error(capsys):
    assert main(["verify", "rc", "--n", "1", "--trials", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suite rc ran 0 trials\n"


def test_missing_file_is_io_error(capsys):
    assert main(["dim", "--graph-file", "/nonexistent/file.txt"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["formulas", "--parking", "3,1,1", "--steck="],
     "usage error: --steck: expected comma-separated integers, got ''\n"),
    (["dim", "--graph-file=", "--step", "2,1,2"],
     "usage error: give exactly one of --graph-file, --lambda-seq, --step, --matrix-file\n"),
    (["gen", "--kind", "complete", "--n", "2", "--out="], "io error: "),
], ids=["formulas", "dim", "gen"])
def test_empty_flag_value_exits_1(argv, message, capsys):
    """An empty flag value is a given value, not an absent one."""
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)


# sha256 of `verify all --seed 0` JSON with every elapsed_ms set to 0; the
# benchmark records the same digest in bench/answers/verify-all.json.
VERIFY_ALL_SEED0_SHA256 = "4bd9c0bf0dc1a70acac725026048c7a3c3d4c8b79592a964e5e654cf8812d043"


def test_verify_all_report_is_golden(tmp_path):
    out = tmp_path / "all.json"
    assert main(["verify", "all", "--seed", "0", "--out", str(out)]) == 0
    masked = re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', out.read_bytes())
    assert hashlib.sha256(masked).hexdigest() == VERIFY_ALL_SEED0_SHA256


# The same report as CSV, and as text with every summary's ", N ms" set to
# ", 0 ms".
VERIFY_ALL_SEED0_CSV_SHA256 = "6bec05fc8968be85579d6c120e5e13d00873c465c80575ac04a1f2a1cbf4a586"
VERIFY_ALL_SEED0_TEXT_SHA256 = "5bc1eac47716d84c6d361fc42a7fe48f65dd4100a8f0565eb993610477d002a7"


def test_verify_all_csv_is_golden(tmp_path):
    out = tmp_path / "all.csv"
    assert main(["verify", "all", "--seed", "0", "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_ALL_SEED0_CSV_SHA256


def test_verify_all_text_is_golden(tmp_path):
    out = tmp_path / "all.txt"
    assert main(["verify", "all", "--seed", "0", "--format", "text", "--out", str(out)]) == 0
    masked = re.sub(rb", \d+ ms\n", b", 0 ms\n", out.read_bytes())
    assert hashlib.sha256(masked).hexdigest() == VERIFY_ALL_SEED0_TEXT_SHA256


def _verify_flags() -> set[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    shared = {"help", "seed", "out", "graph_file", "format"}
    return {a.dest for a in sub.choices["verify"]._actions if a.option_strings} - shared


def test_suite_signatures_match_verify_flags():
    # the CLI hands each suite the flags named by its MINIMUMS keys
    flags = _verify_flags()
    taken = set()
    for name, fn in SUITES.items():
        params = set(inspect.signature(fn).parameters)
        assert MINIMUMS[name].keys() == params, name
        params -= {"seed"}
        assert params <= flags, name
        taken |= params
    assert taken == flags


def test_rewrapped_suite_still_takes_its_flags(monkeypatch, capsys):
    # the benchmark's tracer wraps each suite once more with functools.wraps
    rc = SUITES["rc"]
    monkeypatch.setitem(SUITES, "rc", functools.wraps(rc)(lambda *args, **kwargs: rc(*args, **kwargs)))
    assert main(["verify", "rc", "--n", "2", "--trials", "3", "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 5 and report["params"]["n_max"] == 2


# Importing the CLI loads none of these: they cost start-up time, and only
# a command that needs one imports it.
IMPORT_HYGIENE = """
import sys
before = set(sys.modules)
import parkdet.cli
loaded = sorted({"dataclasses", "inspect", "fractions", "csv"} & (set(sys.modules) - before))
assert not loaded, f"importing parkdet.cli loaded {loaded}"
from parkdet.formulas import steck_count
assert steck_count((3, 2, 2)) == 20
assert "fractions" not in sys.modules
assert parkdet.cli.main(["verify", "rc", "--n", "2", "--trials", "1", "--format", "csv"]) == 0
"""


def test_cli_import_loads_no_unused_stdlib(fresh_python):
    done = fresh_python(IMPORT_HYGIENE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("suite,id,relation,pass,dim,det,formula,instance")


# J_H of a tridiagonal matrix, diagonal 3 and off-diagonal 1, of order 200:
# the counter takes a frame per variable, so a recursion limit of 100 stops
# it. At the default limit memory runs out first on this chain: the count
# of order N held 44, 145 and 340 MB at N = 200, 300 and 400, growing as
# N^3, so the order-1100 chain would need about 7 GB (extrapolated).
DEEP_COUNT = """
import json, sys
import parkdet.cli
with open("chain.json", "w") as fh:
    json.dump([[3 if i == j else int(abs(i - j) == 1) for j in range(200)] for i in range(200)], fh)
sys.setrecursionlimit(100)
sys.exit(parkdet.cli.main(["dim", "--matrix-file", "chain.json"]))
"""


def test_recursion_in_the_counter_exits_1_naming_the_input(fresh_python):
    done = fresh_python(DEEP_COUNT)
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: chain.json: maximum recursion depth exceeded")


@pytest.mark.parametrize("argv, message", [
    (["decomp", "--trials", "-1"], "suite decomp needs --trials >= 1, got -1"),
    (["decomp", "--trials", "0"], "suite decomp needs --trials >= 1, got 0"),
    (["mt", "--trials", "0"], "suite mt needs --trials >= 1, got 0"),
    (["recurrence", "--n", "0"], "suite recurrence needs --n-max >= 1, got 0"),
    (["recurrence", "--a-max", "1"], "suite recurrence needs --a-max >= 2, got 1"),
    (["rc", "--n", "0"], "suite rc needs --n-max >= 1, got 0"),
    (["rc", "--a-max", "0"], "suite rc needs --a-max >= 1, got 0"),
    (["rc", "--b-max", "0"], "suite rc needs --b-max >= 1, got 0"),
    (["ineq", "--mult-max", "0"], "suite ineq needs --mult-max >= 1, got 0"),
    (["mt", "--n", "0"], "suite mt needs --n-max >= 1, got 0"),
    (["mt", "--entry-max", "-1"], "suite mt needs --entry-max >= 1, got -1"),
    (["mt", "--entry-max", "0"], "suite mt needs --entry-max >= 1, got 0"),
    (["matrix-tree", "--trials", "5"], "suite matrix-tree takes no --trials"),
    (["decomp", "--n", "3"], "suite decomp takes no --n-max"),
    (["all", "--a-max", "1"], "suite recurrence needs --a-max >= 2, got 1"),
    (["recurrence", "--seed", "3"], "suite recurrence takes no --seed"),
])
def test_verify_rejects_bad_suite_parameters(argv, message, capsys):
    assert main(["verify", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_verify_parameters_at_their_minimums(capsys):
    assert main(["verify", "mt", "--entry-max", "1", "--trials", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 20
    assert main(["verify", "rc", "--n", "1", "--a-max", "1", "--b-max", "1", "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 3
    assert main(["verify", "rc", "--n", "2", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 3  # the grid n=2
    assert main(["verify", "ineq", "--trials", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 1  # the P4 witness
    assert main(["verify", "ineq", "--trials", "0", "--format", "text"]) == 0
    assert re.fullmatch(r"summary: 1 trials, 0 failed, [0-9]+ ms", capsys.readouterr().out.splitlines()[-1])
    assert main(["verify", "recurrence", "--n", "1", "--a-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total"] == 2
    # verify all gives each flag to the suites that take it
    assert main(["verify", "all", "--mult-max", "1", "--trials", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert 'suite ineq  seed=0  params={"n_max": 5, "mult_max": 1, "trials": 1}' in out
    assert 'suite recurrence  seed=0  params={"n_max": 5, "a_max": 5}' in out


json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\te\u00e9\u20ac\ud800\U0001f600') | st.characters())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
    | json_text,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(json_text, inner),
    max_leaves=40,
)


@given(json_values)
@example([[0, -1, 2**70], [], {}, [True, 1], ("a", None)])
@example({"": {"k": [{}]}, "\u00e9\"\\": [[[]]]})
def test_json_renderer_matches_json_dumps(value):
    assert _json_indented(value, "") == json.dumps(value, indent=2)


@pytest.mark.parametrize("value, name", [(1.5, "float"), ({1, 2}, "set"), ([0, 1.5], "float"),
                                         ({"a": {2}}, "set"), ({1: 2}, "int")],
                         ids=["float", "set", "float-in-list", "set-in-dict", "int-key"])
def test_json_renderer_rejects_other_types(value, name):
    with pytest.raises(TypeError, match=rf"\b{name}\b"):
        _json_indented(value, "")


@pytest.mark.parametrize("names", [sorted(SUITES), ["rc"]], ids=["all", "one"])
def test_render_reports_needs_only_json_dumps(names, monkeypatch):
    # the benchmark's tracer swaps cli.json for an object holding only dumps
    reports = [SUITES[name]() for name in names]
    expected = {fmt: render_reports(reports, fmt) for fmt in ("json", "csv", "text")}
    data = [r.to_dict() for r in reports]
    assert expected["json"] == json.dumps(data[0] if len(data) == 1 else data, indent=2) + "\n"
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=json.dumps))
    for fmt, text in expected.items():
        assert render_reports(reports, fmt) == text
