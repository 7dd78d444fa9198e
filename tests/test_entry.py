"""The ``eur`` process as users start it: ``python -m eur.cli``, its output and its exit.

``entry_corpus.json`` pins the stdout, stderr and exit code of help texts, usage errors,
successful calls, a malformed input file and a failed verification, run as child processes
in a directory that holds the input files below.  To record it again after a deliberate
output change, run this file as a script from the repository root.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eur
from eur.fileio import write_measurement_set

CORPUS = Path(__file__).with_name("entry_corpus.json")
SRC = str(Path(eur.__file__).resolve().parent.parent)
CLI = ["-m", "eur.cli"]
# The verdict is forced to fail by asking every slack to be at least 10 bits.
FAILING_VERIFY = (
    "import runpy, eur.verifier; eur.verifier.CERTIFICATION_TOL = -10.0; "
    "runpy.run_module('eur.cli', run_name='__main__')"
)
PAIR_VERIFY = ["verify", "--input", "pair.json", "--mode", "state", "--restarts", "2", "--samples", "4"]

# name -> interpreter arguments, run in a directory holding pair.json (mub_set(2, 2)),
# triple.json (mub_set(2, 3)) and bad.json (truncated JSON).
CASES = {
    "help": [*CLI, "--help"],
    "bounds-help": [*CLI, "bounds", "--help"],
    "scan-help": [*CLI, "scan", "--help"],
    "verify-help": [*CLI, "verify", "--help"],
    "generate-help": [*CLI, "generate", "--help"],
    "usage-no-command": CLI,
    "usage-unknown-command": [*CLI, "certify"],
    "usage-bounds": [*CLI, "bounds"],
    "usage-scan": [*CLI, "scan", "--family", "paper-d3", "--param", "b"],
    "usage-verify": [*CLI, "verify", "--input", "pair.json", "--mode", "state", "--restarts", "many"],
    "usage-generate": [*CLI, "generate", "--out", "x.json"],
    "usage-unrecognized-option": [*CLI, "bounds", "--input", "triple.json", "--bogus"],
    "usage-double-dash": [*CLI, "--", "bounds", "--input", "triple.json"],
    "usage-leading-option": [*CLI, "--bogus", "bounds", "--input", "triple.json"],
    "bounds": [*CLI, "bounds", "--input", "triple.json"],
    "generate": [*CLI, "generate", "--kind", "mub", "--dim", "3", "--out", "mub3.json"],
    "scan": [*CLI, "scan", "--family", "paper-d3", "--param", "a", "--range", "0:1", "--steps", "5",
             "--phi", "0.5", "--out", "scan.csv"],
    "malformed-input": [*CLI, "bounds", "--input", "bad.json"],
    "verification-failed": ["-c", FAILING_VERIFY, *PAIR_VERIFY],
}


def _env():
    """This checkout's ``eur`` first on the path, 80 columns for help, Python's own stdout buffering."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def _inputs(directory: Path) -> None:
    write_measurement_set(directory / "pair.json", eur.mub_set(2, 2))
    write_measurement_set(directory / "triple.json", eur.mub_set(2, 3))
    (directory / "bad.json").write_text('{"format_version": 1, "dim": 2, "bases": [')


def _run(args, cwd, stdout=subprocess.PIPE, **env):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=dict(_env(), **env), stdin=subprocess.DEVNULL,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120)


def _record(directory: Path) -> dict:
    _inputs(directory)
    corpus = {}
    for name, args in CASES.items():
        proc = _run(args, directory)
        corpus[name] = {"args": args, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    return corpus


def test_module_path_output_is_pinned(tmp_path):
    """Every case prints the recorded bytes and exits with the recorded code."""
    expected = json.loads(CORPUS.read_text())
    assert list(expected) == list(CASES)
    assert _record(tmp_path) == expected


def test_corpus_covers_every_exit_code():
    corpus = json.loads(CORPUS.read_text())
    assert {case["exit"] for case in corpus.values()} == {0, 1, 2}
    assert corpus["verification-failed"]["stdout"].endswith("VERIFICATION FAILED\n")
    assert corpus["malformed-input"]["stderr"].startswith("error: bad.json: ")
    assert corpus["malformed-input"]["stderr"].count("\n") == 1


# An at-exit handler registered before the CLI runs as __main__, as the ``eur`` script runs it.
_AT_EXIT = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('at-exit handler ran', file=sys.stderr))\n"
    "{before}\n"
    "runpy.run_module('eur.cli', run_name='__main__')\n"
)


class TestFastExit:
    """``cli.run`` ends the process without teardown, except where teardown has work to do."""

    @pytest.fixture
    def cwd(self, tmp_path):
        _inputs(tmp_path)
        return tmp_path

    @pytest.mark.parametrize("args, code", [
        (["bounds", "--input", "triple.json"], 0), (["bounds", "--help"], 0), (["bounds"], 2), (PAIR_VERIFY, 0),
    ])
    def test_skips_at_exit_handlers(self, cwd, args, code):
        proc = _run(["-c", _AT_EXIT.format(before="pass"), *args], cwd)
        assert proc.returncode == code, proc.stderr
        assert "at-exit handler ran" not in proc.stderr

    def test_tracer_keeps_the_normal_shutdown(self, cwd):
        before = "sys.settrace(lambda *event: None)"
        proc = _run(["-c", _AT_EXIT.format(before=before), "bounds", "--input", "triple.json"], cwd)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# chain of 3 bases, dim 2")
        assert proc.stderr == "at-exit handler ran\n"

    def test_profiler_prints_its_table(self, cwd):
        proc = _run(["-m", "cProfile", *CLI, "bounds", "--input", "triple.json"], cwd)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("# chain of 3 bases, dim 2")
        assert "MU_MULTI" in proc.stdout
        assert "function calls" in proc.stdout
        assert "Ordered by: " in proc.stdout

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_flush_reports_as_the_normal_shutdown(self, cwd):
        with open("/dev/full", "w") as full:
            proc = _run([*CLI, "bounds", "--input", "triple.json"], cwd, stdout=full)
        assert proc.returncode == 120
        assert "Traceback" not in proc.stderr
        assert "No space left on device" in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_unbuffered_write_is_no_input_error(self, cwd):
        """Unbuffered, the write fails inside the command: one error line and exit 120, not the input errors' 2."""
        with open("/dev/full", "w") as full:
            proc = _run([*CLI, "bounds", "--input", "triple.json"], cwd, stdout=full, PYTHONUNBUFFERED="1")
        assert proc.returncode == 120
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        ["generate", "--kind", "mub", "--dim", "2"],
        ["scan", "--family", "paper-d3", "--param", "a", "--range", "0:1", "--steps", "3", "--phi", "0.5"],
    ], ids=["generate", "scan"])
    def test_failed_out_write_names_the_path(self, cwd, args):
        """An --out that opens but cannot be written: one error line naming it, and exit 120."""
        proc = _run([*CLI, *args, "--out", "/dev/full"], cwd)
        assert proc.returncode == 120
        assert proc.stdout == ""
        assert proc.stderr == "error: /dev/full: [Errno 28] No space left on device\n"

    def test_closed_pipe_is_no_input_error(self, cwd):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run([*CLI, "bounds", "--input", "triple.json"], cwd, stdout=write, PYTHONUNBUFFERED="1")
        finally:
            os.close(write)
        assert proc.returncode == 120
        assert proc.stderr == "error: [Errno 32] Broken pipe\n"

    def test_other_exceptions_propagate(self, cwd):
        before = "import eur.bounds; eur.bounds.build_reports = lambda *args, **kwargs: 1 / 0"
        proc = _run(["-c", _AT_EXIT.format(before=before), "bounds", "--input", "triple.json"], cwd)
        assert proc.returncode == 1
        assert "ZeroDivisionError" in proc.stderr
        assert proc.stderr.endswith("at-exit handler ran\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        CORPUS.write_text(json.dumps(_record(Path(directory)), indent=1) + "\n")
    print(f"recorded {len(CASES)} cases -> {CORPUS}")
