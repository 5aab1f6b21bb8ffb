"""Every run that `tests/ledger/manifest.txt` lists keeps its exit code and
the bytes of its stdout, stderr and `--out` files, as recorded in
`tests/ledger/ledger.txt`. After an intended change of output, rewrite the
ledger with `python tests/ledger/record.py` and review its diff."""

import json
import os
import shlex
import subprocess
import sys

import pytest

from ledger import record
from qcollapse.cli import build_parser

ARGVS = record.read_manifest()


@pytest.fixture(scope="module")
def ledger():
    return {line.split("\t")[0]: line for line in record.read_ledger()}


def test_every_run_matches_the_ledger():
    difference = record.first_difference(record.read_ledger(), record.lines(ARGVS))
    assert difference is None, difference


def test_manifest_covers_every_verb_and_exit_codes_0_to_3():
    verbs = next(a.choices for a in build_parser()._actions if a.dest == "verb")
    assert {argv[0] for argv in ARGVS} == set(verbs)
    codes = {line.split("\t")[1] for line in record.read_ledger()}
    assert codes == {"exit=0", "exit=1", "exit=2", "exit=3"}


def _recorded_run(ledger, *argv):
    """The run of `argv` (with the manifest lines before it, which may write
    its inputs), after checking that it gives its ledger line."""
    argv = list(argv)
    assert argv in ARGVS
    run = record.runs(ARGVS[: ARGVS.index(argv) + 1])[-1]
    line = ledger[shlex.join(argv)]
    assert record.ledger_line(*run) == line
    return run, line


def _assert_caught(line, argv, code, stdout, stderr, outs):
    mutated = record.ledger_line(argv, code, stdout, stderr, outs)
    difference = record.first_difference([line], [mutated])
    assert difference is not None and difference.startswith(f"{shlex.join(argv)}:\n")


def test_a_flipped_verdict_fails_the_comparison(ledger):
    (argv, code, stdout, stderr, outs), line = _recorded_run(ledger, "solve", "horn.txt")
    assert stdout.startswith("collapse verdict: true ")
    flipped = stdout.replace("true", "false", 1)
    _assert_caught(line, argv, code, flipped, stderr, outs)


def test_two_swapped_json_keys_fail_the_comparison(ledger):
    (argv, code, stdout, stderr, outs), line = _recorded_run(ledger, "classify", "horn.txt")
    report = json.loads(stdout)
    assert json.dumps(report, indent=2) + "\n" == stdout
    first, second, *rest = report
    swapped = {second: report[second], first: report[first], **{k: report[k] for k in rest}}
    assert swapped == report
    _assert_caught(line, argv, code, json.dumps(swapped, indent=2) + "\n", stderr, outs)


def test_a_changed_certificate_line_fails_the_comparison(ledger):
    (argv, code, stdout, stderr, outs), line = _recorded_run(
        ledger, "certify", "and.txt", "--n", "3", "--out", "and.cert"
    )
    certificate = outs["and.cert"].decode("utf-8").splitlines(keepends=True)
    assert certificate[-1].startswith("result ")
    changed = "".join(certificate[:-1]) + "result 0\n"
    assert changed.encode("utf-8") != outs["and.cert"]
    _assert_caught(line, argv, code, stdout, stderr, {"and.cert": changed.encode("utf-8")})


def test_hash_seed_leaves_solve_classify_and_collapse_unchanged():
    verbs = ["solve", "classify", "collapse"]
    expected = [
        line for line in record.read_ledger()
        if shlex.split(line.split("\t")[0])[0] in verbs + ["gen"]
    ]
    processes = [
        subprocess.Popen(
            [sys.executable, record.__file__, "--print", *verbs],
            env={**os.environ, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in ("1", "2027")
    ]
    for process in processes:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        difference = record.first_difference(expected, stdout.splitlines())
        assert difference is None, difference
