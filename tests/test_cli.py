import contextlib
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from make_goldens import CASES

from mobiuskit import cli, errors, fileio, matrixrig, rigs
from mobiuskit.cli import main
from mobiuskit.matrixrig import RigMatrix
from mobiuskit.rigs import RAT, REAL

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
GOLDEN = os.path.join(DATA, "golden")


def data(name):
    return os.path.join(DATA, name)


def run(argv, env=None):
    old = {}
    if env:
        for key, value in env.items():
            old[key] = os.environ.get(key)
            os.environ[key] = value
    try:
        stream = io.StringIO()
        with contextlib.redirect_stdout(stream):
            code = main(argv)
        return code, stream.getvalue()
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def parse(stdout):
    return json.loads(stdout)


def test_validate_success():
    code, out = run(["validate", "--category", data("six.json")])
    assert code == 0
    report = parse(out)
    assert report["results"]["valid"] is True
    assert report["results"]["arrows"] == 5


def test_validate_reports_law_violation():
    bad = {
        "objects": ["a"],
        "arrows": [
            {"name": "1a", "src": "a", "tgt": "a"},
            {"name": "f", "src": "a", "tgt": "a"},
        ],
        "identities": {"a": "1a"},
        "compose": [
            ["1a", "1a", "1a"],
            ["f", "1a", "f"],
            ["1a", "f", "f"],
            ["f", "f", "1a"],
        ],
    }
    path = data("tmp_bad_assoc.json")
    with open(path, "w") as handle:
        json.dump(bad, handle)
    try:
        code, out = run(["validate", "--category", path])
        assert code == 0  # x*x=1 on one loop is C2: a valid category
        bad["compose"][3][2] = "f"
        bad["arrows"].append({"name": "g", "src": "a", "tgt": "a"})
        bad["compose"] += [["g", "1a", "g"], ["1a", "g", "g"], ["g", "g", "1a"],
                           ["f", "g", "1a"], ["g", "f", "g"]]
        with open(path, "w") as handle:
            json.dump(bad, handle)
        code, out = run(["validate", "--category", path])
        assert code == 2
        assert parse(out)["results"]["valid"] is False
    finally:
        os.remove(path)


def test_schema_violation_exits_1(capfd):
    bad = {"objects": ["a"], "arrows": [], "identities": {}, "compose": [["x", "y", "z"], ["x", "y", "z"]]}
    path = data("tmp_bad_schema.json")
    with open(path, "w") as handle:
        json.dump(bad, handle)
    try:
        code, _ = run(["validate", "--category", path])
        err = capfd.readouterr().err
        assert code == 1
        assert "compose[1]" in err and "duplicate" in err
    finally:
        os.remove(path)


ONE_OBJECT = {
    "objects": ["a"],
    "arrows": [{"name": "1a", "src": "a", "tgt": "a"}],
    "identities": {"a": "1a"},
    "compose": [["1a", "1a", "1a"]],
}


@pytest.mark.parametrize(
    "change, where",
    [
        ({"arrows": [{"name": ["x"], "src": "a", "tgt": "a"}]}, "arrows[0]: 'name' must be a string"),
        ({"arrows": [{"name": "1a", "src": "a", "tgt": ["a"]}]}, "arrows[0]: 'tgt' must be a string"),
        ({"identities": {"a": ["1a"]}}, "identities['a']: must be a string"),
        ({"compose": [["1a", ["1a"], "1a"]]}, "compose[0]: arrow names must be strings"),
        ({"compose": 5}, "'compose' must be a list"),
        ({"arrows": 5}, "'arrows' must be a list"),
    ],
)
def test_non_string_names_and_non_list_tables_exit_1(tmp_path, capfd, change, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**ONE_OBJECT, **change}))
    code, out = run(["validate", "--category", str(path)])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert where in err and "Traceback" not in err


def test_nan_distance_exits_1(tmp_path, capfd):
    path = tmp_path / "nan.json"
    path.write_text('{"points": ["p", "q"], "distances": [[0, NaN], [1, 0]]}')
    code, out = run(["magnitude", "--metric", str(path)])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert "distances[0][1]: NaN is not a distance" in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400])
def test_non_finite_real_matrix_entry_exits_1(tmp_path, capfd, literal):
    # the entry used to reach the float elimination, which reported a pivot column
    path = tmp_path / "m.json"
    path.write_text(f"[[1.0, 1.0], [{literal}, 1.0]]")
    code, out = run(["matrix", "--op", "zeros", "--rig", "real", "--in", str(path)])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert "entry [1][0]: real literal" in err and "is not finite" in err


COLLAPSE = {"1a": "c_a_a", "1b": "c_b_b", "s": "c_a_b", "i": "c_b_a", "e": "c_a_a"}


@pytest.mark.parametrize(
    "command, document, where",
    [
        (["graded", "--graph", "{path}", "--degree", "2"],
         {"vertices": ["v"], "edges": [{"name": ["e"], "src": "v", "tgt": "v"}]},
         "edges[0]: 'name' must be a string"),
        (["graded", "--graph", "{path}", "--degree", "2"],
         {"vertices": ["v"], "edges": [{"name": "e", "src": ["v"], "tgt": "v"}]},
         "edges[0]: 'src' must be a string"),
        (["graded", "--graph", "{path}", "--degree", "2"],
         {"vertices": [["v"]], "edges": []},
         "'vertices' must be a list of strings"),
        (["graded", "--graph", "{path}", "--degree", "2"],
         {"vertices": ["v"], "edges": 5},
         "'edges' must be a list"),
        (["functor-check", "--src", data("six.json"), "--tgt", data("six_codiscrete.json"), "--map", "{path}"],
         {"arrows": {**COLLAPSE, "1a": ["c_a_a"]}},
         "arrows['1a']: image must be a string"),
        (["functor-check", "--src", data("six.json"), "--tgt", data("six_codiscrete.json"), "--map", "{path}"],
         {"arrows": COLLAPSE, "objects": {"a": ["a"], "b": "b"}},
         "objects['a']: must be a string"),
        (["functor-check", "--src", data("six.json"), "--tgt", data("six_codiscrete.json"), "--map", "{path}"],
         {"arrows": COLLAPSE, "objects": [["a", "a"]]},
         "'objects' must map object names to object names"),
        (["magnitude", "--metric", "{path}"],
         {"points": ["p"], "distances": 5},
         "'distances' must be a list of 1 rows, one per point"),
        (["magnitude", "--metric", "{path}"],
         {"points": ["p", "q"], "distances": [[0, 1], 1]},
         "distances[1]: must be a list of 2 distances"),
        (["magnitude", "--metric", "{path}"],
         {"points": ["p", "q"], "distances": [[0, 1], [1, 0, 2]]},
         "distances[1]: must be a list of 2 distances"),
        (["magnitude", "--metric", "{path}"],
         {"points": 5, "distances": [[0]]},
         "'points' must be a list"),
        (["magnitude", "--metric", "{path}"],
         {"points": ["p", "q"], "coords": [[0], 5]},
         "coords[1]: must be a list of numbers as long as coords[0]"),
        (["magnitude", "--metric", "{path}"],
         {"points": ["p"], "coords": [["x"]]},
         "coords[0][0]: expected a finite number"),
    ],
)
def test_malformed_graph_functor_and_metric_files_exit_1(tmp_path, capfd, command, document, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out = run([arg.format(path=path) for arg in command])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command",
    [
        ["mobius", "--algebra", "fine", "--category", "{path}"],
        ["classify", "--category", "{path}"],
        ["compare", "--category-a", "{path}", "--category-b", "{path}"],
    ],
)
def test_composite_starting_elsewhere_exits_1(tmp_path, capfd, command):
    # every composable pair is present, but 1b o 1b lands on 1a, an arrow
    # out of another object, so the fine system is not block-diagonal
    path = tmp_path / "cross.json"
    path.write_text(json.dumps({
        "objects": ["a", "b"],
        "arrows": [{"name": "1a", "src": "a", "tgt": "a"}, {"name": "1b", "src": "b", "tgt": "b"}],
        "identities": {"a": "1a", "b": "1b"},
        "compose": [["1a", "1a", "1a"], ["1b", "1b", "1a"]],
    }))
    code, out = run([arg.format(path=path) for arg in command])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert "compose('1b', '1b') = '1a': the composite starts at 'a'" in err
    assert "Traceback" not in err


def test_missing_compose_pair_exits_1(capfd):
    bad = {
        "objects": ["a"],
        "arrows": [{"name": "1a", "src": "a", "tgt": "a"}],
        "identities": {"a": "1a"},
        "compose": [],
    }
    path = data("tmp_missing_pair.json")
    with open(path, "w") as handle:
        json.dump(bad, handle)
    try:
        code, _ = run(["validate", "--category", path])
        err = capfd.readouterr().err
        assert code == 1
        assert "missing entry" in err
    finally:
        os.remove(path)


def test_unknown_flag_exits_1(capfd):
    code, _ = run(["euler", "--category", data("six.json"), "--nonsense"])
    assert code == 1


@pytest.mark.parametrize("error, expected", [
    ("MalformedInput", 1), ("UnsupportedRig", 1), ("BudgetExceeded", 1),
    ("NotInvertible", 2), ("DivisionByZero", 2), ("UnknownObject", 2), ("MobiusKitError", 2),
])
def test_library_errors_reaching_main_map_to_exit_codes(capfd, monkeypatch, error, expected):
    def failing(path):
        raise getattr(errors, error)("went wrong")

    monkeypatch.setattr(cli, "load_category", failing)
    assert run(["validate", "--category", data("six.json")]) == (expected, "")
    assert capfd.readouterr().err == "error: went wrong\n"


def test_missing_file_exits_1(capfd):
    code, _ = run(["euler", "--category", data("no_such.json")])
    assert code == 1
    assert "no such file" in capfd.readouterr().err


def test_mobius_coarse_six_values():
    code, out = run(["mobius", "--algebra", "coarse", "--category", data("six.json"), "--rig", "rat"])
    assert code == 0
    report = parse(out)
    assert report["results"]["mobius"]["matrix"] == [["1", "-1"], ["-1", "2"]]
    assert report["rig"] == "rat"


def test_mobius_fine_group_not_invertible():
    code, out = run(["mobius", "--algebra", "fine", "--category", data("group_c2.json")])
    assert code == 2
    assert parse(out)["results"]["status"] == "not_invertible"


def test_mobius_family_range():
    code, out = run(["mobius", "--family", "dinj", "--from", "0", "--to", "3"])
    assert code == 0
    rows = parse(out)["results"]["mobius"]
    assert rows[0] == ["1", "-1", "1", "-1"]
    assert rows[1][2] == "-2"


def test_mobius_family_requires_range(capfd):
    code, _ = run(["mobius", "--family", "dinj"])
    assert code == 1
    code, _ = run(["mobius", "--family", "dinj", "--from", "-1", "--to", "2"])
    assert code == 1
    code, _ = run(["mobius", "--family", "divisibility", "--from", "0", "--to", "6"])
    assert code == 1


def test_mobius_family_refuses_oversized_range_before_any_work(capfd, monkeypatch):
    def builtin(family):
        raise AssertionError("no family is built for a refused request")

    monkeypatch.setattr(cli, "builtin", builtin)
    code, out = run(["mobius", "--family", "dinj", "--from", "0", "--to", "100000000"])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert f"limited to {cli.MAX_FAMILY_INDICES} indices" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_FAMILY_INDICES", 5)
    assert run(["mobius", "--family", "dinj", "--from", "3", "--to", "7"])[0] == 0
    assert run(["mobius", "--family", "dinj", "--from", "3", "--to", "8"])[0] == 1


def test_mobius_family_takes_only_the_patch_algebra(capfd, monkeypatch):
    def builtin(family):
        raise AssertionError("no family is built for a refused request")

    family = ["mobius", "--family", "dinj", "--from", "0", "--to", "3"]
    monkeypatch.setattr(cli, "builtin", builtin)
    for algebra in ("fine", "coarse"):
        code, out = run([*family, "--algebra", algebra])
        assert code == 1 and out == ""
        assert f"--algebra {algebra} needs --category" in capfd.readouterr().err
    monkeypatch.undo()
    plain = run(family)
    assert plain[0] == 0 and parse(plain[1])["results"]["algebra"] == "patch"
    assert run([*family, "--algebra", "patch"]) == plain
    # --category reads a missing --algebra as coarse
    six = ["--category", data("six.json")]
    assert run(["mobius", *six]) == run(["mobius", "--algebra", "coarse", *six])


def test_euler_c2_is_one_half():
    code, out = run(["euler", "--category", data("group_c2.json")])
    assert code == 0
    assert parse(out)["results"]["euler_characteristic"] == "1/2"


def test_nerve_euler_square_and_six():
    code, out = run(["nerve-euler", "--category", data("square.json")])
    assert code == 0
    assert parse(out)["results"]["euler_characteristic"] == "1"
    code, out = run(["nerve-euler", "--category", data("six.json")])
    assert code == 2
    assert parse(out)["results"]["status"] == "not_nerve_finite"


@pytest.mark.parametrize(
    "name, law",
    [("composite_endpoints.json", "composite-endpoints"), ("nonassociative.json", "associativity")],
)
def test_nerve_euler_names_the_broken_law(name, law):
    # the Mobius predicate and the coarse total assume the laws
    code, out = run(["nerve-euler", "--category", data(name)])
    results = parse(out)["results"]
    assert code == 2
    assert results["category_valid"] is False and results["law"] == law
    assert results["witness"] == parse(run(["validate", "--category", data(name)])[1])["results"]["witness"]


def test_magnitude_and_study():
    code, out = run(["magnitude", "--metric", data("two_points_d1.json")])
    assert code == 0
    assert parse(out)["results"]["magnitude"] == "1.46211715726"
    code, out = run(["magnitude", "--metric", data("two_points_d1.json"), "--study", "11,101"])
    assert code == 0
    study = parse(out)["results"]["study"]
    assert [n for n, _ in study] == [11, 101]


def test_graded_report(tmp_path, capfd):
    code, out = run(["graded", "--graph", data("one_vertex_two_loops.json"), "--degree", "6"])
    assert code == 0
    results = parse(out)["results"]
    assert results["mobius_total"] == "1 - 2*t"
    assert results["zeta"]["matrix"][0][0].startswith("1 + 2*t + 4*t^2")
    # one vertex listed twice is refused, not counted once per copy
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({"vertices": ["a", "a"], "edges": [{"name": "e", "src": "a", "tgt": "a"}]}))
    code, out = run(["graded", "--graph", str(path), "--degree", "2"])
    assert (code, out, capfd.readouterr().err) == (1, "", f"error: {path}: duplicate vertex identifiers\n")


def test_series_degree_is_capped_before_any_work(capfd, monkeypatch):
    # refused before the graph file is read or a coefficient allocated
    limit = rigs.MAX_SERIES_DEGREE
    huge = 10 ** 9
    code, out = run(["graded", "--graph", "missing.json", "--degree", str(huge)])
    err = capfd.readouterr().err
    assert (code, out, err) == (1, "", f"error: truncation degree is limited to {limit}, got {huge}\n")
    monkeypatch.setattr(rigs, "MAX_SERIES_DEGREE", 5)
    rigs.polynomial_rig.cache_clear()  # rigs built under the real cap
    loops = data("one_vertex_two_loops.json")
    assert run(["graded", "--graph", loops, "--degree", "5"])[0] == 0
    assert run(["graded", "--graph", loops, "--degree", "6"])[0] == 1
    assert capfd.readouterr().err.count("error: truncation degree is limited to 5, got 6\n") == 1


def test_graded_work_is_capped_before_any_series_arithmetic(tmp_path, capfd, monkeypatch):
    def graded_zeta(graded):
        raise AssertionError("no path counting for a refused request")

    assert 512 <= cli.MAX_GRADED_WORK  # one vertex at the largest degree
    # three vertices at degree 3: 3^3 * 3 = 81
    path = tmp_path / "three.json"
    path.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [{"name": "e", "src": "a", "tgt": "b"}]}))
    monkeypatch.setattr(cli, "MAX_GRADED_WORK", 80)
    monkeypatch.setattr(cli, "graded_zeta", graded_zeta)
    code, out = run(["graded", "--graph", str(path), "--degree", "3"])
    err = capfd.readouterr().err
    assert (code, out, err) == (1, "", "error: graded is limited to vertices^3 * degree <= 80, got 3 vertices at degree 3\n")
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_GRADED_WORK", 81)
    assert run(["graded", "--graph", str(path), "--degree", "3"])[0] == 0


def test_classify_six_negative_exit():
    code, out = run(["classify", "--category", data("six.json")])
    assert code == 2
    results = parse(out)["results"]
    assert results["mobius_category"] is False
    assert results["fine_inversion_q"] == "ok"
    assert results["nontrivial_idempotents"] == ["e"]
    code, _ = run(["classify", "--category", data("chain3.json")])
    assert code == 0


def test_classify_reports_a_broken_law_and_nothing_else():
    # the Mobius-category predicate assumes the laws: g o f = f with
    # f: a -> b, g: b -> a once classified as a Mobius category
    for name in ("composite_endpoints.json", "nonassociative.json"):
        code, out = run(["classify", "--category", data(name)])
        assert code == 2
        validated = parse(run(["validate", "--category", data(name)])[1])["results"]
        assert parse(out)["results"] == {"category_valid": False, "law": validated["law"], "witness": validated["witness"]}
    assert validated["law"] == "associativity"


def test_functor_check_report():
    code, out = run([
        "functor-check",
        "--src", data("six.json"),
        "--tgt", data("six_codiscrete.json"),
        "--map", data("six_collapse_functor.json"),
    ])
    assert code == 0
    results = parse(out)["results"]
    assert results["functor_valid"] is True
    assert results["bijective_on_objects"] is True
    assert results["ulf"] is False
    assert results["fibre_sizes"]["c_a_a"] == 2


def test_matrix_transitive_negative_exit():
    code, out = run(["matrix", "--op", "transitive", "--in", data("matrix_nontransitive.json")])
    assert code == 2
    assert parse(out)["results"]["counterexample_path"] == [0, 1, 2]


def test_matrix_zeros():
    code, out = run(["matrix", "--op", "zeros", "--in", data("matrix_3x3.json")])
    assert code == 0
    assert parse(out)["results"]["zero_pattern_inherited"] is True


def test_matrix_zeros_is_refused_beyond_its_size_limit(capfd, monkeypatch):
    argv = ["matrix", "--op", "zeros", "--in", data("matrix_3x3.json")]
    monkeypatch.setattr(cli, "MAX_ZEROS_DIM", 2)
    assert run(argv) == (1, "")
    assert capfd.readouterr().err == "error: matrix --op zeros is limited to 2 rows, got 3\n"
    monkeypatch.setattr(cli, "MAX_ZEROS_DIM", 3)
    assert run(argv)[0] == 0


def test_compare_parallel_compositions():
    code, out = run([
        "compare",
        "--category-a", data("parallel_first.json"),
        "--category-b", data("parallel_second.json"),
    ])
    assert code == 0
    results = parse(out)["results"]
    assert results["menni_hom_sums_agree"] is True
    assert results["haigh_first"] is True


def test_compare_rejects_different_graphs(capfd):
    code, _ = run([
        "compare",
        "--category-a", data("six.json"),
        "--category-b", data("chain3.json"),
    ])
    assert code == 1
    assert "same underlying graph" in capfd.readouterr().err


def test_incompatible_rig_fails_before_computation(capfd):
    code, _ = run(["mobius", "--algebra", "coarse", "--category", data("six.json"), "--rig", "nat"])
    assert code == 1


SOLVES = "allowed: int, rat, real"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mobius", "--category", "missing.json", "--rig", "bool"], f"rig 'bool' is not usable with this command ({SOLVES})"),
        (["mobius", "--family", "dinj", "--from", "0", "--to", "3", "--rig", "nat"], f"rig 'nat' is not usable with this command ({SOLVES})"),
        (["euler", "--category", "missing.json", "--rig", "poly"], "unknown rig 'poly'"),
        (["compare", "--category-a", "missing.json", "--category-b", "missing.json", "--rig", "bool"], f"rig 'bool' is not usable with this command ({SOLVES})"),
        (["matrix", "--op", "zeros", "--in", "missing.json", "--rig", "nat"], f"rig 'nat' is not usable with this command ({SOLVES})"),
        (["zeta", "--category", "missing.json", "--rig", "foo"], "unknown rig 'foo'"),
        (["zeta", "--category", "missing.json", "--rig", "poly"], "unknown rig 'poly'"),
    ],
    ids=["mobius-bool", "family-nat", "euler-poly", "compare-bool", "zeros-nat", "zeta-unknown", "zeta-poly"],
)
def test_refused_rigs_exit_1_before_any_file_is_read(capfd, argv, message):
    # the input files do not exist: the rig is refused before they are opened
    code, out = run(argv)
    assert (code, out, capfd.readouterr().err) == (1, "", f"error: {message}\n")


# the commands whose answer does not depend on a rig, each with the rig it reports
FIXED_RIG_COMMANDS = {
    "validate": ["validate", "--category", data("six.json")],
    "classify": ["classify", "--category", data("six.json")],
    "functor-check": [
        "functor-check",
        "--src", data("six.json"),
        "--tgt", data("six_codiscrete.json"),
        "--map", data("six_collapse_functor.json"),
    ],
    "nerve-euler": ["nerve-euler", "--category", data("square.json")],
    "magnitude": ["magnitude", "--metric", data("two_points_d1.json")],
    "graded": ["graded", "--graph", data("one_vertex_two_loops.json"), "--degree", "6"],
}


@pytest.mark.parametrize("command", FIXED_RIG_COMMANDS)
def test_fixed_rig_commands_take_no_rig_flag(capfd, command):
    code, out = run([*FIXED_RIG_COMMANDS[command], "--rig", "rat"])
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --rig rat" in capfd.readouterr().err


@pytest.mark.parametrize("command", FIXED_RIG_COMMANDS)
def test_fixed_rig_commands_ignore_the_rig_variable(monkeypatch, command):
    argv = FIXED_RIG_COMMANDS[command]
    monkeypatch.delenv("MOBIUSKIT_RIG", raising=False)
    unset = run(argv)
    assert unset[0] in (0, 2) and parse(unset[1])["command"] == command
    for name in ("nat", "int", "rat", "real", "bool"):
        assert run(argv, env={"MOBIUSKIT_RIG": name}) == unset, name


def test_rig_env_variable_and_flag_precedence():
    code, out = run(["euler", "--category", data("six.json")], env={"MOBIUSKIT_RIG": "int"})
    assert code == 0
    assert parse(out)["rig"] == "int"
    code, out = run(
        ["euler", "--category", data("six.json"), "--rig", "rat"],
        env={"MOBIUSKIT_RIG": "int"},
    )
    assert code == 0
    assert parse(out)["rig"] == "rat"


def test_threads_flag_validated(capfd):
    # --threads did nothing and is gone: any value is an unknown option
    for value in ("0", "4"):
        code, _ = run(["euler", "--category", data("six.json"), "--threads", value])
        assert code == 1


def test_output_is_deterministic():
    argv = ["mobius", "--algebra", "coarse", "--category", data("six.json")]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second


def test_timing_flag_adds_field():
    code, out = run(["euler", "--category", data("six.json"), "--timing"])
    assert code == 0
    assert "timing_ms" in parse(out)


def test_golden_reports_reproduce_byte_for_byte():
    with open(os.path.join(GOLDEN, "manifest.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert len(manifest) >= 20
    # the manifest is what make_goldens.py writes: a case added to CASES but
    # never regenerated, or renamed or edited since, fails here
    assert len(dict(CASES)) == len(CASES)
    assert {name: case["argv"] for name, case in manifest.items()} == dict(CASES)
    for name, case in sorted(manifest.items()):
        argv = [part.replace("{D}", DATA) for part in case["argv"]]
        code, out = run(argv)
        with open(os.path.join(GOLDEN, f"{name}.out.json"), encoding="utf-8") as handle:
            expected = handle.read()
        assert out == expected, f"golden mismatch for {name}"
        assert code == case["exit_code"], f"exit code mismatch for {name}"


def test_budget_exceeded_exits_1(tmp_path, capfd):
    path = tmp_path / "ten.json"
    path.write_text(json.dumps([[int(i <= j) for j in range(10)] for i in range(10)]))
    code, out = run(["matrix", "--op", "detpm", "--in", str(path)])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert err == "error: permutation enumeration limited to n <= 9, got 10\n"


def test_transitive_search_beyond_its_state_budget_exits_1(tmp_path, capfd):
    # distinct primes on and above the diagonal make every path product
    # distinct, so the search is exponential in the rows; unbounded, 14 rows
    # ran for more than a minute
    primes = [p for p in range(2, 1000) if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    entries = iter(primes)
    path = tmp_path / "primes14.json"
    path.write_text(json.dumps([[next(entries) if i <= j else 0 for j in range(14)] for i in range(14)]))
    started = time.perf_counter()
    code, out = run(["matrix", "--op", "transitive", "--rig", "int", "--in", str(path)])
    assert time.perf_counter() - started < 15
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert err == f"error: transitivity search limited to {matrixrig.MAX_TRANSITIVE_STATES} (node, product) states\n"
    # a triangular 0/1 matrix has one product, so 40 rows answer at once
    path.write_text(json.dumps([[int(i <= j) for j in range(40)] for i in range(40)]))
    for rig in ("nat", "bool"):
        code, out = run(["matrix", "--op", "transitive", "--rig", rig, "--in", str(path)])
        assert code == 0 and parse(out)["results"]["transitive"] is True


def test_magnitude_refuses_too_many_points_before_reading_distances(tmp_path, capfd, monkeypatch):
    path = tmp_path / "big.json"
    n = fileio.MAX_METRIC_POINTS + 1
    path.write_text(json.dumps({"points": list(range(n)), "distances": "not read"}))
    code, out = run(["magnitude", "--metric", str(path)])
    err = capfd.readouterr().err
    assert code == 1 and out == ""
    assert f"limited to {fileio.MAX_METRIC_POINTS} points, got {n}" in err
    monkeypatch.setattr(fileio, "MAX_METRIC_POINTS", 3)
    for points, want in ((3, 0), (4, 1)):
        path.write_text(json.dumps({"points": list(range(points)), "coords": [[i] for i in range(points)]}))
        assert run(["magnitude", "--metric", str(path)])[0] == want


def test_magnitude_study_is_capped_and_parsed_before_any_work(capfd, monkeypatch):
    def study(counts):
        raise AssertionError("no segment is built for a refused request")

    monkeypatch.setattr(cli, "segment_refinement_study", study)
    missing = "no-such-metric.json"
    limit = cli.MAX_METRIC_POINTS
    for argv, message in (
        (["--study", f"11,{limit + 1}"], f"--study is limited to {limit} points, got {limit + 1}"),
        (["--study", "11,x"], "--study must be comma-separated point counts, got '11,x'"),
        (["--study", "11,0"], "--study needs at least one point, got 0"),
        (["--study", "-3"], "--study needs at least one point, got -3"),
    ):
        code, out = run(["magnitude", "--metric", missing] + argv)
        err = capfd.readouterr().err
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3) | st.just("inf"),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=8,
)
EDGE_NUMBERS = st.sampled_from([10**400, -(10**400), 1e308, -1e308, -0.0, -1, math.nan, math.inf, -math.inf])
DISTANCES = st.floats(min_value=0, max_value=50)
# mostly numbers, so that a bad entry is often the first one reached
NUMBERS = DISTANCES | EDGE_NUMBERS | DISTANCES | EDGE_NUMBERS | st.integers() | st.just("inf") | JSON_VALUES


@st.composite
def metric_documents(draw):
    """Mostly well-shaped metric files, with arbitrary JSON in any slot."""

    def sometimes_junk(strategy):
        return draw(JSON_VALUES if draw(st.integers(0, 9)) == 0 else strategy)

    n = draw(st.integers(0, 4))
    dim = draw(st.integers(0, 3))
    xs = draw(st.lists(st.floats(min_value=-5, max_value=5), min_size=n, max_size=n))
    doc = {"points": sometimes_junk(st.lists(JSON_VALUES, min_size=n, max_size=n))}
    kind = draw(st.sampled_from(["line", "distances", "distances", "coords", "coords", "both", "neither"]))
    if kind == "line":  # a true metric, so that the report path runs too
        doc["distances"] = [[abs(a - b) for b in xs] for a in xs]
    if kind in ("distances", "both"):
        doc["distances"] = sometimes_junk(st.lists(st.lists(NUMBERS, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind in ("coords", "both"):
        doc["coords"] = sometimes_junk(st.lists(st.lists(NUMBERS, min_size=dim, max_size=dim), min_size=n, max_size=n))
    if draw(st.booleans()):
        doc["symmetric"] = sometimes_junk(st.booleans())
    return sometimes_junk(st.just(doc))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metric_documents())
def test_any_metric_file_gives_a_report_or_a_positional_error(tmp_path, document):
    path = tmp_path / "metric.json"
    path.write_text(json.dumps(document))
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code, out = run(["magnitude", "--metric", str(path)])
    event(f"exit {code}")
    if code == 1:
        assert out == "" and errors.getvalue().startswith(f"error: {path}: ")
    else:
        status = {0: "ok", 2: "not_invertible"}[code]
        assert parse(out)["results"]["status"] == status


# the category, graph, functor and matrix loaders fuzzed like the metric
# loader above: example files with entries dropped, duplicated, moved or
# replaced by arbitrary JSON, through the commands that read them


def run_file(tmp_path, document, command):
    """Run command with {path} bound to a file holding document: a report
    (exit 0, or 2 for a negative answer) or an error line (exit 1, or 2
    when no answer exists), never a traceback."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    errors = io.StringIO()
    with contextlib.redirect_stderr(errors):
        code, out = run([arg.format(path=path) for arg in command])
    event(f"{command[0]} exit {code}")
    assert code in (0, 1, 2)
    if code == 1 or out == "":
        assert code != 0 and out == "" and errors.getvalue().startswith("error: ")
    else:
        parse(out)


def example(name):
    with open(data(name)) as handle:
        return json.load(handle)


def pick(draw, items):
    return items[draw(st.integers(0, len(items) - 1))]


def junk_slot(draw, doc):
    """Any value of the document, at any depth, becomes arbitrary JSON."""
    node = doc
    while isinstance(node, (list, dict)) and node:
        key = pick(draw, list(node) if isinstance(node, dict) else range(len(node)))
        if not isinstance(node[key], (list, dict)) or draw(st.booleans()):
            node[key] = draw(JSON_VALUES)
            return
        node = node[key]


def drop_key(draw, doc):
    if isinstance(doc, dict) and doc:
        del doc[pick(draw, sorted(doc))]


def names_of(entries):
    return [e.get("name") if isinstance(e, dict) else e for e in entries] or ["x"]


def name_edit(draw, doc):
    """An object, an arrow's name or endpoint, an identity or a name in a
    compose entry becomes arbitrary JSON."""
    objects, arrows, identities, compose = (doc.get(k) for k in ("objects", "arrows", "identities", "compose"))
    groups = [
        [(objects, i) for i in range(len(objects))] if isinstance(objects, list) else [],
        [(a, k) for a in arrows if isinstance(a, dict) for k in ("name", "src", "tgt")] if isinstance(arrows, list) else [],
        [(identities, k) for k in identities] if isinstance(identities, dict) else [],
        [(e, i) for e in compose if isinstance(e, list) for i in range(len(e))] if isinstance(compose, list) else [],
    ]
    groups = [slots for slots in groups if slots]
    if groups:
        node, key = pick(draw, pick(draw, groups))
        node[key] = draw(JSON_VALUES)


def compose_edit(kind):
    """Drop, duplicate or add a compose entry, or change a composite."""
    def edit(draw, doc):
        compose, arrows = doc.get("compose"), doc.get("arrows")
        if not (isinstance(compose, list) and compose and isinstance(arrows, list)):
            return
        names = names_of(arrows)
        i = draw(st.integers(0, len(compose) - 1))
        if kind == "drop":
            del compose[i]
        elif kind == "duplicate":
            compose.append(compose[i])
        elif kind == "add":  # for any pair, composable or not
            compose.append([pick(draw, names), pick(draw, names), pick(draw, names)])
        elif isinstance(compose[i], list) and len(compose[i]) == 3:
            compose[i] = [*compose[i][:2], pick(draw, names)]
    return edit


def edited(draw, doc, edits):
    """doc with up to three drawn edits applied."""
    for _ in range(draw(st.integers(0, 3))):
        draw(st.sampled_from(edits))(draw, doc)
    return doc


CATEGORY_FILES = ["six.json", "group_c2.json", "chain3.json", "divisors6.json", "square.json", "parallel_first.json"]
# changed composites load, so that the law checks and the solves run too
CATEGORY_EDITS = [compose_edit(kind) for kind in ("drop", "duplicate", "add")] + [compose_edit("composite")] * 3 + [name_edit, junk_slot, drop_key]


def edge_edit(draw, doc):
    """An edge renamed to a clash, or an endpoint moved to any vertex or none."""
    edges, vertices = doc.get("edges"), doc.get("vertices")
    if isinstance(edges, list) and edges and isinstance(edges[0], dict) and isinstance(vertices, list):
        key = draw(st.sampled_from(["name", "src", "tgt"]))
        edges[0][key] = pick(draw, names_of(edges) if key == "name" else vertices + ["nowhere"])


SIX_ARROWS = ["1a", "1b", "s", "i", "e"]


def image_edit(draw, doc):
    """An arrow image moved to any arrow of either target or none, or
    removed; or an object map added."""
    arrows = doc.get("arrows")
    if isinstance(arrows, dict) and arrows and draw(st.booleans()):
        name = pick(draw, sorted(arrows))
        if draw(st.booleans()):
            del arrows[name]
        else:
            arrows[name] = pick(draw, ["c_a_a", "c_a_b", "c_b_a", "c_b_b", *SIX_ARROWS, "nothing"])
    else:
        doc["objects"] = {"a": pick(draw, ["a", "b", "c"]), "b": pick(draw, ["a", "b"])}


# mostly entries every rig reads, so that the operations run too
MATRIX_ENTRIES = st.integers(0, 2) | st.integers(0, 2) | st.integers(-3, 3) | st.sampled_from(["1/2", "-2/3", "1/0", "x", 0.5, True])


@st.composite
def category_documents(draw):
    return edited(draw, example(draw(st.sampled_from(CATEGORY_FILES))), CATEGORY_EDITS)


@st.composite
def graph_documents(draw):
    return edited(draw, example("one_vertex_two_loops.json"), [edge_edit, edge_edit, junk_slot, drop_key])


@st.composite
def functor_documents(draw):
    """A functor out of six.json and its target: the collapse onto the
    codiscrete category or the identity, with up to three edits."""
    if draw(st.booleans()):
        target, doc = "six_codiscrete.json", example("six_collapse_functor.json")
    else:
        target, doc = "six.json", {"arrows": {name: name for name in SIX_ARROWS}}
    return edited(draw, doc, [image_edit, image_edit, junk_slot, drop_key]), target


@st.composite
def matrix_documents(draw):
    """Square and ragged tables of small integers, fractions and junk."""
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(MATRIX_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n))
    if rows and draw(st.integers(0, 4)) == 0:
        rows[-1] = rows[-1][:-1]
    return draw(JSON_VALUES) if draw(st.integers(0, 9)) == 0 else rows


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(category_documents())
def test_any_category_file_gives_a_report_or_an_error(tmp_path, document):
    for command in (
        ["validate", "--category", "{path}"],
        ["mobius", "--algebra", "fine", "--category", "{path}"],
        ["euler", "--category", "{path}"],
        ["mobius", "--algebra", "patch", "--category", "{path}"],
        ["mobius", "--algebra", "coarse", "--category", "{path}", "--rig", "int"],
        ["nerve-euler", "--category", "{path}"],
        ["classify", "--category", "{path}"],
    ):
        run_file(tmp_path, document, command)


@FUZZ
@given(graph_documents(), st.integers(1, 3))
def test_any_graph_file_gives_a_report_or_an_error(tmp_path, document, degree):
    run_file(tmp_path, document, ["graded", "--graph", "{path}", "--degree", str(degree)])


@FUZZ
@given(functor_documents())
def test_any_functor_file_gives_a_report_or_an_error(tmp_path, document_and_target):
    document, target = document_and_target
    run_file(tmp_path, document, ["functor-check", "--src", data("six.json"), "--tgt", data(target), "--map", "{path}"])


@FUZZ
@given(matrix_documents(), st.sampled_from(["detpm", "adjpm", "transitive", "zeros"]),
       st.sampled_from(["rat", "int", "nat", "bool", "real"]))
def test_any_matrix_file_gives_a_report_or_an_error(tmp_path, document, op, rig):
    run_file(tmp_path, document, ["matrix", "--op", op, "--in", "{path}", "--rig", rig])


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"points": []}', "not UTF-8 text (byte 0)"),
        (b"[" * 100000, "JSON nested too deeply"),
        (None, "cannot read: Is a directory"),
    ],
)
def test_unreadable_input_files_exit_1(tmp_path, capfd, content, message):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for command in (["magnitude", "--metric"], ["validate", "--category"]):
        code, out = run(command + [str(path)])
        err = capfd.readouterr().err
        assert code == 1 and out == ""
        assert err == f"error: {path}: {message}\n"


# one parser per process: parse_args carries nothing from one call to the next

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def fresh(argv):
    """The same command in a new interpreter: (exit code, stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "mobiuskit.cli", *argv], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    return done.returncode, done.stdout


def test_reused_parser_matches_fresh_processes(monkeypatch):
    six = ["--category", data("six.json")]
    fine = run(["mobius", "--algebra", "fine", *six])
    coarse = run(["mobius", *six])
    assert parse(coarse[1])["results"]["algebra"] == "coarse"
    assert fine == fresh(["mobius", "--algebra", "fine", *six])
    assert coarse == fresh(["mobius", *six])

    code, out = run(["euler", *six, "--timing"])
    assert code == 0 and "timing_ms" in parse(out)
    plain = run(["euler", *six])
    assert "timing_ms" not in parse(plain[1])
    assert plain == fresh(["euler", *six])

    good = run(["validate", *six])
    unknown = run(["validate", *six, "--unknown-option"])
    assert unknown == (1, "")
    assert run(["validate", *six]) == good == fresh(["validate", *six])
    assert unknown == fresh(["validate", *six, "--unknown-option"])

    monkeypatch.setenv("MOBIUSKIT_RIG", "int")
    under_int = run(["euler", *six])
    assert parse(under_int[1])["rig"] == "int"
    assert under_int == fresh(["euler", *six])
    monkeypatch.delenv("MOBIUSKIT_RIG")
    assert run(["euler", *six]) == plain == fresh(["euler", *six])


@pytest.mark.parametrize("collecting", [True, False])
def test_main_pauses_the_collector_and_restores_the_callers_state(tmp_path, monkeypatch, collecting):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"objects": [', encoding="utf-8")
    cases = [
        (["validate", "--category", data("six.json")], 0),
        (["validate", "--category", str(malformed)], 1),
        (["validate", "--category", data("six.json"), "--unknown-option"], 1),
        (["--help"], 0),
        (["euler", "--category", data("group_c2.json"), "--rig", "int"], 2),
    ]
    # the collector is off while the handler loads and while the report renders
    seen = []

    def noting(inner):
        def noted(*args):
            seen.append((inner.__name__, gc.isenabled()))
            return inner(*args)
        return noted

    monkeypatch.setattr(cli, "load_category", noting(cli.load_category))
    monkeypatch.setattr(cli, "_dumps", noting(cli._dumps))
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for argv, expected in cases:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == expected
            assert gc.isenabled() is collecting
        # a handler that raises past main restores it too

        def broken(path):
            raise RuntimeError("load failed")

        monkeypatch.setattr(cli, "load_category", noting(broken))
        with pytest.raises(RuntimeError):
            main(["validate", "--category", data("six.json")])
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if before else gc.disable)()
    # _dumps also calls itself for each nested container
    assert {name for name, _ in seen} == {"load_category", "_dumps", "broken"}
    assert not any(enabled for _, enabled in seen)


def test_build_parser_runs_once():
    assert cli.build_parser() is cli.build_parser()


def test_zero_entries_render_as_the_rig_zero():
    # only entries that are rig.zero itself share its text; an equal value
    # of another identity, such as -0.0 over the reals, renders on its own
    real = RigMatrix.from_rows(REAL, [[REAL.zero, -0.0], [0.25, 0.0]])
    assert cli.matrix_json(REAL, real) == [["0", "-0"], ["0.25", "0"]]
    rat = RigMatrix.from_rows(RAT, [[RAT.zero, Fraction(0)], [Fraction(-1, 2), RAT.zero]])
    assert cli.matrix_json(RAT, rat) == [["0", "0"], ["-1/2", "0"]]


json_scalars = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none()
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_report_renderer_matches_indented_json_dumps(value):
    # text covers non-ASCII characters and the escapes json writes;
    # empty and nested-empty containers come from max_size draws of 0
    assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


def test_report_renderer_edge_cases():
    # keys that are not strings are written as strings, after sorting
    for value in ({}, [], [[]], {"": {}}, [{}, [[], {}]], {"\u00e9\n\"": ["\t", "\u2028", "\ud800"]},
                  {"b": 1, "a": [1.5, -0.0, 1e300]}, (1, (2,)), {10: {"a": [1]}, 9: "x"}, {0.5: [True, None]}):
        assert cli._dumps(value) == json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)


# numpy is imported only where a metric space is built or solved


def test_exact_commands_do_not_import_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = [sys.executable, "-X", "importtime", "-m", "mobiuskit.cli", "euler", "--category", data("six.json")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert done.returncode == 0 and parse(done.stdout)["results"]["euler_characteristic"] == "1"
    assert "mobiuskit.enriched" in done.stderr
    assert "numpy" not in done.stderr
    script = f"""
import contextlib, io, sys
import mobiuskit
from mobiuskit import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["mobius", "--family", "divisibility", "--from", "1", "--to", "12"]) == 0
assert "numpy" not in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    assert cli.main(["magnitude", "--metric", {data("two_points_d1.json")!r}]) == 0
assert "numpy" in sys.modules
print(out.getvalue().count("1.46211715726"), mobiuskit.magnitude(mobiuskit.MetricSpace.from_coords("pq", [[0], [1]])))
"""
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    count, value = done.stdout.split()
    assert count == "1" and abs(float(value) - 2 / (1 + math.exp(-1))) < 1e-12


def test_cold_commands_load_neither_dataclasses_nor_the_functor_machinery():
    env = dict(os.environ, PYTHONPATH=SRC)
    commands = (
        (["euler", "--category", data("six.json")], "euler_characteristic"),
        (["mobius", "--family", "dinj", "--from", "0", "--to", "4"], "mobius"),
    )
    for argv, field in commands:
        done = subprocess.run([sys.executable, "-X", "importtime", "-m", "mobiuskit.cli", *argv], env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=120)
        assert done.returncode == 0 and field in parse(done.stdout)["results"], done.stderr
        # -X importtime lists every module the process imports, site's included
        imported = {line.split("|")[-1].strip() for line in done.stderr.splitlines()}
        assert "mobiuskit.category" in imported
        assert not imported & {"dataclasses", "inspect", "mobiuskit.functoriality"}, argv
    script = """
import sys
import mobiuskit
assert "mobiuskit.functoriality" not in sys.modules
names = {"is_ulf", "Span", "Adjunction", "pushforward", "validate_adjunction"}
assert names <= set(dir(mobiuskit)) and "magnitude" in dir(mobiuskit)
from mobiuskit import is_ulf, Span, Adjunction
from mobiuskit import functoriality
assert (is_ulf, Span, Adjunction) == (functoriality.is_ulf, functoriality.Span, functoriality.Adjunction)
try:
    mobiuskit.no_such_name
except AttributeError as e:
    assert str(e) == "module 'mobiuskit' has no attribute 'no_such_name'"
else:
    raise AssertionError("an unknown name resolved")
assert not hasattr(mobiuskit, "no_such_name")
star = {}
exec("from mobiuskit import *", star)
assert names | {"magnitude", "functoriality", "category"} <= set(star) and "__version__" not in star
print("ok")
"""
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
