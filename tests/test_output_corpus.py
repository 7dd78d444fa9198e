"""The comparison of ``tools/output_corpus.py`` on canned call records, and the size of its corpus."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_corpus.py"
_SPEC = importlib.util.spec_from_file_location("output_corpus", _PATH)
output_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_corpus)


def _record(call_id, exit=0, stdout="", stderr="", files=None):
    return {"id": call_id, "exit": exit, "stdout": stdout, "stderr": stderr, "files": files or {}}


def test_equal_records_give_no_difference():
    runs = [_record("bounds a", stdout="# chain\nMU_MULTI 1\n"), _record("scan", files={"scan.csv": "ab"})]
    assert output_corpus.compare(runs, [dict(r) for r in runs]) == []


def test_first_differing_line_is_reported():
    parent = _record("verify x", stdout="objective_min = 4\nslack MU_MULTI 2.4e+00\nCERTIFIED\n")
    change = _record("verify x", stdout="objective_min = 4\nslack MU_MULTI 2.5e+00\nCERTIFIED\n")
    assert output_corpus.compare([parent], [change]) == [
        ("verify x", "stdout line 2: 'slack MU_MULTI 2.4e+00' -> 'slack MU_MULTI 2.5e+00'")]


def test_every_differing_line_is_reported():
    parent = _record("verify x", exit=0, stdout="objective_min = 4\nslack MU_MULTI 2.4e+00\nslack SCB_MAX 1.0e+00\n")
    change = _record("verify x", exit=1, stdout="objective_min = 4\nslack MU_MULTI 2.5e+00\nslack SCB_MAX 1.1e+00\n")
    assert output_corpus.compare([parent], [change]) == [
        ("verify x", "exit: 0 -> 1"),
        ("verify x", "stdout line 2: 'slack MU_MULTI 2.4e+00' -> 'slack MU_MULTI 2.5e+00'"),
        ("verify x", "stdout line 3: 'slack SCB_MAX 1.0e+00' -> 'slack SCB_MAX 1.1e+00'")]


@pytest.mark.parametrize("field,parent,change,message", [
    ("exit", 0, 2, "exit: 0 -> 2"),
    ("stderr", "", "error: bad\n", "stderr line 1: '<none>' -> 'error: bad'"),
    ("stdout", "a\nb\n", "a\n", "stdout line 2: 'b' -> '<none>'"),
    ("stdout", "a\n", "a\r\n", "stdout: 'a\\n' -> 'a\\r\\n'"),
    ("files", {"scan.csv": "ab"}, {"scan.csv": "cd"}, "files: {'scan.csv': 'ab'} -> {'scan.csv': 'cd'}"),
])
def test_each_field_is_compared(field, parent, change, message):
    assert output_corpus.first_difference(_record("c", **{field: parent}), _record("c", **{field: change})) == message


def test_the_exit_code_is_reported_before_the_output():
    parent, change = _record("c", exit=0, stdout="x\n"), _record("c", exit=1, stdout="y\n")
    assert output_corpus.first_difference(parent, change) == "exit: 0 -> 1"


def test_calls_missing_on_either_side_differ():
    parent = [_record("a"), _record("b")]
    change = [_record("b"), _record("c")]
    assert output_corpus.compare(parent, change) == [("a", "missing on the change side"),
                                                     ("c", "missing on the parent side")]


def test_corpus_size_and_distinct_ids():
    calls = output_corpus.corpus_calls()
    assert len(calls) == 350
    assert sum(argv[0] == "bounds" for argv in calls) == 118
    assert sum(argv[0] == "verify" for argv in calls) == 211
    assert len({" ".join(argv) for argv in calls}) == len(calls)
