"""Command-line interface: outputs, JSON envelopes, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import idrd
from idrd import build_graph, serialize_edge_list
from idrd.cli import _json_default, build_parser, main
from idrd.families import generate, parse_family_spec

from conftest import cycle_graph, empty_graph, path_graph


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def graph_file(tmp_path, g, name="graph.txt"):
    path = tmp_path / name
    path.write_text(serialize_edge_list(g), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_table_output(tmp_path, capsys):
    path = graph_file(tmp_path, path_graph(7))
    code, out, err = run(["solve", "--input", path], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "order = 7"
    assert "idn = 3" in lines
    assert "idrdn = 8" in lines
    assert "min_edge_cover = 4" in lines


def test_solve_reads_stdin(capsys, monkeypatch):
    code, out, _ = run(
        ["solve", "--input", "-", "--invariants", "idn,idrdn"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(7)),
    )
    assert code == 0
    assert out.splitlines() == ["idn = 3", "idrdn = 8"]


def test_solve_json_envelope(tmp_path, capsys):
    g = path_graph(7)
    path = graph_file(tmp_path, g)
    code, out, _ = run(
        ["solve", "--input", path, "--invariants", "idn,idrdn", "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["schema_version"] == "1"
    assert envelope["command"] == "solve"
    assert envelope["input_digest"] == sha(serialize_edge_list(g))
    assert envelope["payload"]["invariants"] == {"idn": 3, "idrdn": 8}
    assert envelope["payload"]["not_applicable"] == {}


def test_solve_json_is_byte_identical_across_runs(tmp_path, capsys):
    path = graph_file(tmp_path, cycle_graph(6))
    _, first, _ = run(["solve", "--input", path, "--json", "--witness"], capsys)
    _, second, _ = run(["solve", "--input", path, "--json", "--witness"], capsys)
    assert first == second
    assert "\n" == first[-1] and first.count("\n") == 1


def test_json_default_rejects_other_types():
    assert _json_default(frozenset((2, 1))) == [1, 2]
    with pytest.raises(TypeError, match="Graph is not JSON serializable"):
        _json_default(path_graph(3))


def test_solve_witness_output(tmp_path, capsys):
    path = graph_file(tmp_path, cycle_graph(4))
    code, out, _ = run(
        ["solve", "--input", path, "--invariants", "idrdn", "--witness"], capsys)
    assert code == 0
    assert out.splitlines() == ["idrdn = 4", "  0 2", "  1 0", "  2 2", "  3 0"]
    code, out, _ = run(
        ["solve", "--input", path, "--invariants", "idn,max_matching",
         "--witness", "--json"], capsys)
    payload = json.loads(out)["payload"]
    assert payload["witnesses"]["idn"] == [0, 2]
    assert payload["witnesses"]["max_matching"] == [[0, 1], [2, 3]]


@pytest.mark.parametrize("text", ["3 0\n", "1 0\n"])
def test_empty_matching_is_listed_as_edges(capsys, monkeypatch, text):
    code, out, _ = run(["solve", "--input", "-", "--witness"], capsys, monkeypatch, text)
    assert code == 0
    lines = out.splitlines()
    assert lines[lines.index("max_matching = 0") + 1] == "  edges: "


class _Rendered(Exception):
    pass


def test_json_output_renders_no_table_text(capsys, monkeypatch):
    # main runs a command's text() only without --json
    def rendered(self):
        raise _Rendered

    for labeling in (idrd.DRLabeling, idrd.RainbowLabeling):
        monkeypatch.setattr(labeling, "witness_text", rendered)
    text = serialize_edge_list(path_graph(5))
    code, out, err = run(["solve", "--input", "-", "--witness", "--json"], capsys,
                         monkeypatch, text)
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["witnesses"]["idrdn"] == [2, 0, 2, 0, 2]
    with pytest.raises(_Rendered):  # the patch bites in table form
        run(["solve", "--input", "-", "--witness"], capsys, monkeypatch, text)


def test_solve_marks_inapplicable_invariants(tmp_path, capsys):
    path = graph_file(tmp_path, empty_graph(2))
    code, out, _ = run(["solve", "--input", path], capsys)
    assert code == 0
    assert "min_edge_cover skipped (graph has an isolated vertex)" in out


def test_solve_input_errors(tmp_path, capsys, monkeypatch):
    code, _, err = run(["solve", "--input", str(tmp_path / "missing.txt")], capsys)
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        ["solve", "--input", "-"], capsys, monkeypatch, stdin_text="not a graph\n")
    assert code == 2 and "error:" in err
    path = graph_file(tmp_path, path_graph(3))
    code, _, err = run(
        ["solve", "--input", path, "--invariants", "idn,girth"], capsys)
    assert code == 2 and "unknown invariant" in err


def test_solve_rejects_an_empty_invariant_list(capsys, monkeypatch):
    got = run(["solve", "--input", "-", "--json", "--invariants", ""],
              capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(3)))
    assert got == (2, "", "error: unknown invariant ''\n")


def test_solve_enumerates_deep_independent_sets(capsys, monkeypatch):
    monkeypatch.setenv("IDRD_SIZE_LIMIT", "5000")
    got = run(["solve", "--input", "-", "--invariants", "idn"],
              capsys, monkeypatch, stdin_text="1500 0\n")
    assert got == (0, "idn = 1500\n", "")


def test_solve_size_limit(capsys, monkeypatch):
    big = serialize_edge_list(path_graph(30))
    code, _, err = run(
        ["solve", "--input", "-"], capsys, monkeypatch, stdin_text=big)
    assert code == 3 and "exceeds the exact-solver limit" in err
    code, out, _ = run(
        ["solve", "--input", "-", "--invariants", "max_degree,max_matching"],
        capsys, monkeypatch, stdin_text=big)
    assert code == 0
    assert "max_degree = 2" in out and "max_matching = 15" in out


_HUGE_ORDER_ERROR = (
    "error: graph order 1000000000 exceeds the exact-solver limit 24"
    " (set IDRD_SIZE_LIMIT to override)\n")


@pytest.mark.parametrize("argv, stdin_text, code, err", [
    (["solve", "--input", "-", "--json"], "1000000000 0\n", 3, _HUGE_ORDER_ERROR),
    (["bounds", "--input", "-", "--json"], "1000000000 0\n", 3, _HUGE_ORDER_ERROR),
    (["classify", "--input", "-", "--json"], "1000000000 0\n", 4,
     "error: input is not a tree\n"),
    (["solve", "--input", "-", "--json"], "1000000000 3\n", 2,
     "error: expected 3 edge lines, found 0\n"),
    (["bounds", "--input", "-", "--json"], "1000000000 3\n", 2,
     "error: expected 3 edge lines, found 0\n"),
    (["classify", "--input", "-", "--json"], "1000000000 3\n", 2,
     "error: expected 3 edge lines, found 0\n"),
    (["solve", "--input", "-", "--invariants", "nope"], "1000000000 0\n", 2,
     "error: unknown invariant 'nope'\n"),
])
def test_edge_list_checks_run_before_the_graph_is_built(
        argv, stdin_text, code, err, capsys, monkeypatch):
    # Building a 10^9-vertex graph first would need tens of gigabytes.
    start = time.perf_counter()
    got = run(argv, capsys, monkeypatch, stdin_text=stdin_text)
    assert time.perf_counter() - start < 1.0
    assert got == (code, "", err)


_EMPTY_DEGREE = "error: degree of an empty graph is undefined\n"
_NO_VERTEX = "error: solver needs at least one vertex\n"
_BOUNDS_EMPTY = (2, "error: bound checks need at least one vertex\n")
_NEGATIVE = (2, "error: IDRD_SIZE_LIMIT must be non-negative, got '-1'\n")


def _over(order, limit):
    return (3, f"error: graph order {order} exceeds the exact-solver limit {limit}"
               " (set IDRD_SIZE_LIMIT to override)\n")


# (command and options, stdin, (exit code, stderr) with IDRD_SIZE_LIMIT unset, -1, 0)
@pytest.mark.parametrize("command, stdin_text, outcomes", [
    (["solve"], "0 0\n", [(2, _EMPTY_DEGREE), _NEGATIVE, (2, _EMPTY_DEGREE)]),
    (["solve"], "1 0\n", [(0, ""), _NEGATIVE, _over(1, 0)]),
    (["solve", "--invariants", "order,max_degree"], "0 0\n",
     [(2, _EMPTY_DEGREE), _NEGATIVE, (2, _EMPTY_DEGREE)]),
    (["solve", "--invariants", "order,max_degree"], "1 0\n", [(0, ""), _NEGATIVE, (0, "")]),
    (["solve", "--invariants", "idn"], "0 0\n", [(2, _NO_VERTEX), _NEGATIVE, (2, _NO_VERTEX)]),
    (["solve", "--invariants", "idn"], "1 0\n", [(0, ""), _NEGATIVE, _over(1, 0)]),
    (["bounds"], "0 0\n", [_BOUNDS_EMPTY, _NEGATIVE, _BOUNDS_EMPTY]),
    (["bounds"], "1 0\n", [(0, ""), _NEGATIVE, _over(1, 0)]),
])
def test_tiny_inputs_keep_their_error_order_under_odd_limits(
        command, stdin_text, outcomes, capsys, monkeypatch):
    argv = [command[0], "--input", "-", "--json", *command[1:]]
    for env, (code, err) in zip((None, "-1", "0"), outcomes):
        if env is None:
            monkeypatch.delenv("IDRD_SIZE_LIMIT", raising=False)
        else:
            monkeypatch.setenv("IDRD_SIZE_LIMIT", env)
        got_code, out, got_err = run(argv, capsys, monkeypatch, stdin_text=stdin_text)
        assert (got_code, got_err) == (code, err), env
        assert (out != "") == (code == 0), env


@pytest.mark.parametrize("argv, stdin_text, reads", [
    (["solve", "--input", "-", "--witness"], serialize_edge_list(cycle_graph(5)), 3),
    (["bounds", "--input", "-"], serialize_edge_list(cycle_graph(5)), 3),
    (["fuzz", "general", "8", "20"], None, 22),
], ids=["solve", "bounds", "fuzz"])
def test_the_size_limit_is_read_once_per_check(argv, stdin_text, reads, capsys, monkeypatch):
    # main, the command's own check, and once per compute_invariants call
    real, calls = idrd.solvers.resolve_limit, []

    def counted():
        calls.append(None)
        return real()

    for module in ("cli", "bounds", "solvers"):
        monkeypatch.setattr(f"idrd.{module}.resolve_limit", counted)
    assert run(argv, capsys, monkeypatch, stdin_text=stdin_text)[0] == 0
    assert len(calls) == reads


def test_parser_survives_an_argparse_error(capsys, monkeypatch):
    text = serialize_edge_list(cycle_graph(5))
    argv = ["solve", "--input", "-", "--witness", "--json"]
    build_parser.cache_clear()
    fresh = run(argv, capsys, monkeypatch, stdin_text=text)
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--input", "-", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(argv, capsys, monkeypatch, stdin_text=text) == fresh
    assert fresh[0] == 0 and fresh[2] == ""


# ---------------------------------------------------------------------------
# family
# ---------------------------------------------------------------------------


def test_family_formula_mode(capsys):
    code, out, _ = run(["family", "path:10", "formula"], capsys)
    assert code == 0
    assert out.splitlines() == ["family path:10", "formula = 11"]


def test_family_both_mode_agrees(capsys):
    code, out, _ = run(["family", "kpartite:1,4", "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "family"
    assert envelope["input_digest"] == sha("kpartite:1,4")
    assert envelope["payload"] == {
        "kind": "complete_multipartite", "params": [1, 4],
        "formula": 3, "solver": 3, "agree": True,
    }
    code, out, _ = run(["family", "cycle:11"], capsys)
    assert code == 0
    assert "formula = 12" in out and "solver = 12" in out and "agree = true" in out


def test_family_solve_mode_works_without_a_formula(capsys):
    code, out, _ = run(["family", "coronastar:3", "solve", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["solver"] == 9
    assert "formula" not in payload


def test_family_domain_and_input_errors(capsys):
    code, _, err = run(["family", "coronastar:3", "formula"], capsys)
    assert code == 4 and "no closed form" in err
    code, _, err = run(["family", "coronastar:3"], capsys)
    assert code == 4 and "no closed form" in err
    code, _, err = run(["family", "complete:1", "formula"], capsys)
    assert code == 4
    code, _, err = run(["family", "wheel:5"], capsys)
    assert code == 2 and "unknown family kind" in err
    code, _, err = run(["family", "kpartite:2,1"], capsys)
    assert code == 2 and "sorted ascending" in err
    for spec in ("subdivstar:4", "doublestar:1", "subdivdoublestar:2"):
        code, out, err = run(["family", spec, "--json"], capsys)
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert line.startswith("error: ") and line.endswith(" takes 2 parameter(s)")
    with pytest.raises(SystemExit):
        main(["family", "path:5", "quickly"])


def test_family_size_limit(capsys):
    code, _, err = run(["family", "path:80", "solve"], capsys)
    assert code == 3 and "exceeds the exact-solver limit" in err
    code, out, _ = run(["family", "path:80", "formula"], capsys)
    assert code == 0 and "formula = 81" in out


def test_family_size_limit_is_checked_before_the_graph_is_built(capsys):
    start = time.perf_counter()
    code, out, err = run(["family", "path:1000000000", "solve"], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err == (
        "error: graph order 1000000000 exceeds the exact-solver limit 24"
        " (set IDRD_SIZE_LIMIT to override)\n")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_f_family_member(capsys, monkeypatch):
    code, out, _ = run(
        ["classify", "--input", "-"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(7)))
    assert code == 0
    assert out.splitlines() == [
        "membership = F_family", "r = 1", "s = 1", "ir2dn - idn = 1"]


def test_classify_t_family_member(capsys, monkeypatch):
    code, out, _ = run(
        ["classify", "--input", "-", "--json"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(5)))
    assert code == 0
    envelope = json.loads(out)
    assert envelope["payload"] == {
        "membership": "T_family", "parameters": [5, 2], "ir2dn_minus_idn": 1}


def test_classify_non_member(capsys, monkeypatch):
    code, out, _ = run(
        ["classify", "--input", "-"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(6)))
    assert code == 0
    assert out.splitlines() == ["membership = neither", "ir2dn - idn = 2"]


def test_classify_large_trees_ignore_the_size_limit(capsys, monkeypatch):
    text = serialize_edge_list(generate(parse_family_spec("subdivstar:31,15")))
    for limit in (None, "5"):
        if limit is not None:
            monkeypatch.setenv("IDRD_SIZE_LIMIT", limit)
        code, out, _ = run(
            ["classify", "--input", "-", "--json"], capsys, monkeypatch, stdin_text=text)
        assert code == 0
        assert json.loads(out)["payload"] == {
            "membership": "T_family", "parameters": [31, 15], "ir2dn_minus_idn": 1}


def test_classify_walks_its_tree_once(capsys, monkeypatch):
    walks = []
    for module in (idrd.graph, idrd.solvers):
        def counted(*args, original=module.bfs):
            walks.append(args)
            return original(*args)
        monkeypatch.setattr(module, "bfs", counted)
    for seed in (1, 2):
        walks.clear()
        code, out, _ = run(["classify", "--input", "-", "--json"], capsys, monkeypatch,
                           stdin_text=serialize_edge_list(idrd.random_tree(300, seed)))
        assert code == 0 and json.loads(out)["payload"]["membership"] == "neither"
        assert len(walks) == 1


def test_classify_domain_errors(capsys, monkeypatch):
    code, _, err = run(
        ["classify", "--input", "-"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(cycle_graph(5)))
    assert code == 4 and "not a tree" in err
    code, _, err = run(
        ["classify", "--input", "-"],
        capsys, monkeypatch, stdin_text="1 0\n")
    assert code == 4 and "order >= 2" in err


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------


def test_realize_prints_the_edge_list(capsys):
    code, out, _ = run(["realize", "3", "8"], capsys)
    assert code == 0
    assert out.startswith("7 6\n")
    assert "idn = 3" in out
    assert "idrdn = 8" in out
    assert "verified = true" in out


def test_realize_writes_a_file(tmp_path, capsys):
    target = tmp_path / "tree.txt"
    code, out, _ = run(["realize", "3", "8", "--out", str(target)], capsys)
    assert code == 0
    assert f"written {target}" in out
    from idrd import parse_edge_list, tree_idn, tree_idrdn
    t = parse_edge_list(target.read_text(encoding="utf-8"))
    assert tree_idn(t) == 3 and tree_idrdn(t) == 8


def test_realize_json_payload(capsys):
    code, out, _ = run(["realize", "1", "3", "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["input_digest"] == sha("1 3")
    payload = envelope["payload"]
    assert payload["a"] == 1 and payload["b"] == 3
    assert payload["order"] == 2
    assert payload["edge_list"] == "2 1\n0 1\n"
    assert payload["verified"] is True


def test_realize_verifies_trees_above_the_size_limit(capsys):
    code, out, _ = run(["realize", "12", "30", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["order"] == 29
    assert payload["idn"] == 12 and payload["idrdn"] == 30
    assert payload["verified"] is True


def test_realize_rejects_inadmissible_pairs(capsys):
    code, _, err = run(["realize", "2", "4"], capsys)
    assert code == 4
    assert "inadmissible pair (2, 4)" in err and "[5, 6]" in err
    code, _, err = run(["realize", "2", "7"], capsys)
    assert code == 4


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_bounds_table_output(capsys, monkeypatch):
    k33 = serialize_edge_list(
        build_graph(6, [(u, v) for u in range(3) for v in range(3, 6)]))
    code, out, _ = run(
        ["bounds", "--input", "-"], capsys, monkeypatch, stdin_text=k33)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 15
    b5 = next(l for l in lines if l.startswith("B5"))
    assert "6 <= 6" in b5 and "holds, tight" in b5
    b9 = next(l for l in lines if l.startswith("B9"))
    assert "skipped (not a tree)" in b9


def test_bounds_skip_rows_for_edgeless_input(capsys, monkeypatch):
    code, out, _ = run(
        ["bounds", "--input", "-"],
        capsys, monkeypatch, stdin_text="3 0\n")
    assert code == 0
    assert "B5        skipped (graph has an isolated vertex)" in out
    assert "B8        skipped (graph has no edges)" in out


def test_bounds_json_records(capsys, monkeypatch):
    code, out, _ = run(
        ["bounds", "--input", "-", "--json"],
        capsys, monkeypatch, stdin_text=serialize_edge_list(cycle_graph(6)))
    assert code == 0
    records = json.loads(out)["payload"]["bounds"]
    assert len(records) == 15
    b8 = next(r for r in records if r["name"] == "B8")
    assert b8["tight"] is True and b8["lhs"] == 12


def test_bounds_error_paths(capsys, monkeypatch):
    code, _, err = run(
        ["bounds", "--input", "-"], capsys, monkeypatch, stdin_text="0 0\n")
    assert code == 2 and "at least one vertex" in err
    code, _, err = run(
        ["bounds", "--input", "-"], capsys, monkeypatch,
        stdin_text=serialize_edge_list(path_graph(30)))
    assert code == 3


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------


def test_fuzz_clean_run(capsys):
    code, out, _ = run(["fuzz", "tree", "6", "5", "--seed", "3"], capsys)
    assert code == 0
    assert "violations = 0" in out
    assert "tight B10-lower" in out


def test_fuzz_json_report(capsys):
    code, out, _ = run(
        ["fuzz", "general", "6", "8", "--seed", "11", "--json"], capsys)
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "fuzz"
    assert envelope["input_digest"] == sha("general 6 8 11 0.2 0.8")
    payload = envelope["payload"]
    assert payload["class"] == "general"
    assert payload["violations"] == []
    assert set(payload["tight_counts"]) == {
        "B1-lower", "B1-upper", "B2", "B3", "B4", "B5", "B6-lower", "B6-upper",
        "B7", "B8", "B9", "B10-lower", "B10-upper", "B11", "B12"}


def test_fuzz_violations_exit_one(capsys, monkeypatch):
    # B2 is the only "<" record, so only B2 is reported
    monkeypatch.setitem(idrd.bounds._HOLDS, "<", lambda lhs, rhs: False)
    violations = idrd.bounds.fuzz("tree", 6, 3, seed=1).violations
    assert [bound for _, bound in violations] == ["B2"] * 3
    assert violations[0][0] == "6 5\n0 2\n1 3\n2 4\n3 4\n4 5\n"
    code, out, err = run(["fuzz", "tree", "6", "3", "--seed", "1"], capsys)
    assert (code, err) == (1, "")
    assert "violations = 3" in out.splitlines()
    assert "  B2 violated on: 6 5 ..." in out.splitlines()
    code, out, err = run(["fuzz", "tree", "6", "3", "--seed", "1", "--json"], capsys)
    assert (code, err) == (1, "")
    payload = json.loads(out)["payload"]
    assert [(v["edge_list"], v["bound"]) for v in payload["violations"]] == violations


def test_fuzz_argument_errors(capsys):
    code, _, err = run(["fuzz", "general", "6", "0"], capsys)
    assert code == 2 and "trials must be >= 1" in err
    code, _, err = run(["fuzz", "general", "40", "5"], capsys)
    assert code == 2 and "max_n" in err
    code, _, err = run(["fuzz", "general", "6", "5", "--p-min", "0.9"], capsys)
    assert code == 2 and "p_range" in err
    with pytest.raises(SystemExit):
        main(["fuzz", "planar", "6", "5"])


def test_command_is_required(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_fuzz_without_a_connected_sample_is_an_input_error(capsys):
    code, out, err = run(
        ["fuzz", "connected", "6", "3", "--p-min", "0", "--p-max", "0"], capsys)
    assert code == 2 and out == ""
    assert err == "error: no connected sample on 2 vertices at p=0.000 after 1000 attempts\n"


# ---------------------------------------------------------------------------
# undecodable and arbitrary input
# ---------------------------------------------------------------------------

EDGE_LIST_COMMANDS = (
    ["solve", "--invariants", "idn", "--json"],
    ["bounds", "--json"],
    ["classify", "--json"],
)


@pytest.mark.parametrize("command", EDGE_LIST_COMMANDS)
def test_undecodable_input_file_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"\xff 3 0\n")
    code, out, err = run(command + ["--input", str(path)], capsys)
    assert code == 2 and out == ""
    assert err == (
        "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n")


@pytest.mark.parametrize("command", EDGE_LIST_COMMANDS)
def test_closed_stdin_is_an_input_error(command, capsys, monkeypatch):
    # a process started with stdin closed has sys.stdin None
    monkeypatch.setattr("sys.stdin", None)
    code, out, err = run(command + ["--input", "-"], capsys)
    assert code == 2 and out == ""
    assert err == "error: standard input is closed\n"


class _FullDevice(io.StringIO):
    """A stdout that fails like a full device: on write, or, buffered, on flush."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise OSError(28, "No space left on device")
        return super().write(text)

    def flush(self):
        if self.fail_on == "flush":
            raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["solve", "--input", "-"],
    ["solve", "--input", "-", "--witness", "--json"],
    ["family", "path:5", "--json"],
    ["classify", "--input", "-"],
    ["realize", "2", "5"],
    ["bounds", "--input", "-", "--json"],
    ["fuzz", "tree", "6", "5"],
])
def test_failed_output_write_is_an_input_error(argv, fail_on, capsys, monkeypatch):
    monkeypatch.delenv("IDRD_SIZE_LIMIT", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_edge_list(path_graph(5))))
    monkeypatch.setattr("sys.stdout", _FullDevice(fail_on))
    code = main(argv)
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")


EVERY_COMMAND = [
    ["solve", "--input", "-"],
    ["family", "path:5"],
    ["classify", "--input", "-"],
    ["realize", "2", "5"],
    ["bounds", "--input", "-"],
    ["fuzz", "tree", "6", "5"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_closed_stdout_is_an_input_error(argv, capsys, monkeypatch):
    # a process started with stdout closed has sys.stdout None
    monkeypatch.delenv("IDRD_SIZE_LIMIT", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_edge_list(path_graph(5))))
    monkeypatch.setattr("sys.stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: cannot write output: standard output is closed\n"


@pytest.mark.parametrize("fail_on", ["write", "flush"])
@pytest.mark.parametrize("argv", [["--help"], ["solve", "-h"]])
def test_failed_help_write_is_an_input_error(argv, fail_on, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: idrd")
    monkeypatch.setattr("sys.stdout", _FullDevice(fail_on))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: cannot write output: [Errno 28] No space left on device\n")


def test_usage_error_with_stdout_closed_reports_only_the_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdout", None)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--bogus"])
    assert exc.value.code == 2
    assert "cannot write output" not in capsys.readouterr().err


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=120))
@example(b"\xff 3 0\n")
@example(b"3 2\n0 1\n1 2\n")
@example(b"3 2\n0 1\n0 1\n")
@example(b"40 0\n")
@example(b"# \xc3\xa9\n2 1\n0 1\n")
def test_arbitrary_stdin_bytes_end_in_a_documented_exit_code(data):
    # stdin decoded strictly, as under a UTF-8 locale
    for command in EDGE_LIST_COMMANDS:
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.environ.pop("IDRD_SIZE_LIMIT", None)
            code = main(command + ["--input", "-"])
        lines = err.getvalue().splitlines()
        assert code in (0, 2, 3, 4)
        assert len(lines) == (code != 0)
        assert all(line.startswith("error: ") for line in lines)


# Arbitrary argv: each command's own arguments from small or garbage tokens,
# its options shuffled in, and sometimes a stray token.  Integers stay small:
# `realize` on a huge a still builds a tree of order about 2a before it
# answers (unbounded work that this test does not cover), and `fuzz` work
# grows with max_n x trials.
_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "6", "7", "x"])
_PATHS = st.sampled_from(["-", "-", "-", "missing.txt", ".", "tree.txt"])
_TOKENS = st.sampled_from([
    "bogus", "-", "--input", "--json", "--help", "-h", "--out", "--seed", "", "0", "x"])
_ARGUMENTS = {
    "solve": st.tuples(st.just("--input"), _PATHS),
    "classify": st.tuples(st.just("--input"), _PATHS),
    "bounds": st.tuples(st.just("--input"), _PATHS),
    "family": st.tuples(
        st.sampled_from(["path:3", "cycle:4", "kpartite:1,2", "kpartite:2,1", "coronastar:2",
                         "complete:1", "star:x", "wheel:2", "path"]),
        st.sampled_from(["formula", "solve", "both", "quickly"])),
    "realize": st.one_of(st.tuples(_INTS, _INTS), st.integers(1, 6).flatmap(
        lambda a: st.tuples(st.just(str(a)), st.integers(2 * a, 3 * a + 1).map(str)))),
    "fuzz": st.tuples(st.sampled_from(["general", "connected", "tree", "planar"]), _INTS, _INTS),
}
_OPTIONS = {
    "solve": [("--witness",), ("--invariants", "idn,order"), ("--invariants", "girth"),
              ("--invariants", "")],
    "realize": [("--out", "tree.txt"), ("--out", ".")],
    "fuzz": [("--seed", "3"), ("--p-min", "0"), ("--p-max", "0.5"), ("--p-min", "x")],
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_ARGUMENTS)))
    options = draw(st.lists(st.sampled_from(_OPTIONS.get(command, []) + [("--json",)]),
                            max_size=3))
    argv = [command, *draw(_ARGUMENTS[command]), *(t for o in options for t in o)]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_TOKENS))
    return argv


_STDIN_TEXTS = st.sampled_from([
    None, "", "0 0\n", "1 0\n", "x\n", "3 2\n0 1\n1 2\n", "3 1\n0 1\n",
    "4 4\n0 1\n1 2\n2 3\n3 0\n", "7 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n",
])
_SIZE_LIMITS = st.one_of(
    st.none(), st.integers(-2, 24).map(str), st.sampled_from(["abc", "", "1.5", " 7"]))


@settings(max_examples=300, deadline=None)
@given(_argv(), _STDIN_TEXTS, _SIZE_LIMITS)
def test_every_command_ends_in_a_documented_exit_code(argv, stdin_text, limit):
    stdin = None if stdin_text is None else io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ), \
            mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        os.chdir(tmp)  # --out writes, and --input reads, relative to here
        os.environ.pop("IDRD_SIZE_LIMIT", None)
        if limit is not None:
            os.environ["IDRD_SIZE_LIMIT"] = limit
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            assert exc.code in (0, 2)
            return
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3, 4)
    assert len(lines) == (code >= 2)
    assert all(line.startswith("error: ") for line in lines)
    assert (out.getvalue() == "") == (code >= 2)


# ---------------------------------------------------------------------------
# environment and module entry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_non_integer_size_limit_is_an_input_error(argv, capsys, monkeypatch):
    for limit, message in [("abc", "an integer"), ("-1", "non-negative")]:
        monkeypatch.setenv("IDRD_SIZE_LIMIT", limit)
        code, out, err = run(
            argv, capsys, monkeypatch, stdin_text=serialize_edge_list(path_graph(5)))
        assert code == 2 and out == ""
        assert err == f"error: IDRD_SIZE_LIMIT must be {message}, got {limit!r}\n"


class _ClosedStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


def test_closed_stderr_keeps_the_exit_code(monkeypatch):
    # a process started with stderr closed still has a sys.stderr wrapper
    monkeypatch.setattr("sys.stderr", _ClosedStream())
    monkeypatch.setattr("sys.stdout", io.StringIO())
    assert main(["family", "wheel:5"]) == 2
    assert main(["family", "path:5"]) == 0


def test_package_runs_as_a_module():
    env = dict(os.environ)
    src = str(Path(idrd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("IDRD_SIZE_LIMIT", None)
    text = serialize_edge_list(path_graph(7))
    proc = subprocess.run(
        [sys.executable, "-m", "idrd", "solve", "--input", "-", "--json"],
        input=text, capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    assert envelope["command"] == "solve"
    assert envelope["input_digest"] == sha(text)
    assert envelope["payload"]["invariants"]["idrdn"] == 8
    proc = subprocess.run([sys.executable, "-m", "idrd.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage:"), proc.stderr


def _golden_solve_inputs():
    """About 600 edge lists from a seeded `random.Random`: G(n, p) with n <= 12,
    a few sparse ones with n 14-18, and random trees."""
    rng = random.Random("solve-witness-json")
    shapes = [(rng.randint(1, 12), rng.choice((0.1, 0.2, 0.3, 0.5))) for _ in range(540)]
    shapes += [(rng.randint(14, 18), rng.choice((0.1, 0.15))) for _ in range(20)]
    texts = []
    for n, p in shapes:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        texts.append(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    for _ in range(40):
        n = rng.randint(2, 16)
        label = list(range(n))
        rng.shuffle(label)
        edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n)]
        texts.append(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return texts


def test_solve_witness_json_is_pinned(capsys, monkeypatch):
    # every value and witness of `solve --witness --json`, byte for byte
    monkeypatch.delenv("IDRD_SIZE_LIMIT", raising=False)
    digest = hashlib.sha256()
    for text in _golden_solve_inputs():
        code, out, _ = run(["solve", "--input", "-", "--witness", "--json"], capsys,
                           monkeypatch, text)
        digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == "7c70fc02381173617e692d006b83c2e4c94e0580b7d24b9080a6a6070b3c27af"


def test_bounds_solve_and_fuzz_json_are_pinned(capsys, monkeypatch):
    # `bounds` in both forms, `solve --json` without witnesses and seeded
    # `fuzz --json` runs, byte for byte
    monkeypatch.delenv("IDRD_SIZE_LIMIT", raising=False)
    digest = hashlib.sha256()
    for text in _golden_solve_inputs():
        for argv in (
            ["bounds", "--input", "-", "--json"],
            ["bounds", "--input", "-"],
            ["solve", "--input", "-", "--json"],
        ):
            code, out, _ = run(argv, capsys, monkeypatch, text)
            digest.update(f"{code}\n{out}".encode("utf-8"))
    for graph_class in ("connected", "general", "tree"):
        for seed in range(3):
            code, out, _ = run(["fuzz", graph_class, "12", "25", "--seed", str(seed), "--json"],
                               capsys)
            digest.update(f"{code}\n{out}".encode("utf-8"))
    assert digest.hexdigest() == "c10fc72bbfcc699979db10daf38d578197d89d7f70e4b4bafade2e157ef72063"
