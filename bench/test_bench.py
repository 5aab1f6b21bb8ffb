"""The benchmark's own tests: deterministic inputs, independent checks that
catch wrong answers.

    python3 -m pytest -q bench/test_bench.py      (from the repository root)
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402


def _texts(workload: str, seed: int, rounds: int = 2) -> list[str]:
    gen = inputs.workload_rounds(workload, seed)
    return [item.text for _ in range(rounds) for item in next(gen)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload):
    assert _texts(workload, 7) == _texts(workload, 7)
    assert _texts(workload, 7) != _texts(workload, 8)


def test_rounds_keep_their_make_up():
    for workload, mix in (("solve", inputs.SOLVE_MIX), ("classify", inputs.CLASSIFY_MIX)):
        gen = inputs.workload_rounds(workload, 3)
        for _ in range(2):
            items = next(gen)
            assert len(items) == sum(entry[-1] for entry in mix)


def test_classify_inputs_do_not_repeat_within_a_run():
    gen = inputs.workload_rounds("classify", 5)
    texts = [item.text for _ in range(3) for item in next(gen)]
    assert len(texts) == len(set(texts))


def test_scale_formulas_have_their_intended_verdicts():
    for item in next(inputs.workload_rounds("scale", 2)):
        prefix, body = item.formulas[0]
        assert reference.evaluate(2, item.info["language"], prefix, body) == item.info["intended"]


def test_evaluator_on_known_formulas():
    impl = inputs.BOOLEAN_LANGUAGES["impl"]
    equal = [("I", ("y", "x")), ("I", ("x", "y"))]
    # x = y: true when x is chosen after y, false when before
    assert reference.evaluate(2, impl, [("forall", "y"), ("exists", "x")], equal)
    assert not reference.evaluate(2, impl, [("exists", "x"), ("forall", "y")], equal)
    assert not reference.evaluate(2, impl, [("forall", "a"), ("forall", "b")], [("I", ("a", "b"))])


def test_dispatch_strata_sizes():
    strata = inputs._dispatch_strata()
    assert sum(len(v) for v in strata.values()) == 256
    assert len(strata[4]) == 38


AND_CERT = [
    "certificate n=2 width=1 source=1 target=0,1 domain=2",
    "axiom 0: * {1}",
    "axiom 1: {1} *",
    "step 2: * * <= g0(0, 1)",
    "result 2",
]


def test_certificate_replay_accepts_a_sound_derivation():
    header = reference.replay_certificate(AND_CERT, 2, [reference.BOOLEAN_DISPATCH["and"]])
    assert header == {"n": 2, "width": 1, "source": [1], "target": [0, 1]}


@pytest.mark.parametrize("bad_line", [
    "step 2: * * <= g0(-1, -1)",  # circular: a negative index names a later entry
    "step 2: * * <= g0(0, 2)",  # forward reference
    "step 2: * * <= g0(0, 0)",  # image of * {1} twice is only * {1}
    "step 2: * * <= g0(0)",  # arity mismatch
    "step 2: * * <= g-1(0, 1)",  # a negative generator index
    "step 2: * * <= (g0 p2.0 p2.2)(0, 1)",  # projection coordinates are 1-based
])
def test_certificate_replay_rejects_unsound_steps(bad_line):
    lines = AND_CERT[:3] + [bad_line] + AND_CERT[4:]
    with pytest.raises((ValueError, IndexError)):
        reference.replay_certificate(lines, 2, [reference.BOOLEAN_DISPATCH["and"]])


class _Scripted(run.Harness):
    """A harness whose program answers are scripted instead of computed."""

    def __init__(self, tmp_path, answers):
        super().__init__(tmp_path, "test", 0)
        self.answers = list(answers)

    def call(self, argv, timed=True):
        code, out = self.answers.pop(0)
        return code, out, "", 0.001


def _solve_item(want: bool) -> inputs.Item:
    item = next(
        i for i in next(inputs.workload_rounds("solve", 1))
        if i.cls == f"solve/horn/{str(want).lower()}"
    )
    return item


def test_a_flipped_verdict_is_a_failed_item(tmp_path):
    item = _solve_item(True)
    right = _Scripted(tmp_path, [(0, "collapse verdict: true (3 collapsings, width 1)\n"), (0, "true\n")])
    right.run_item(item, tmp_path / "x.txt")
    assert (right.attempted, right.failed, right.wrong) == (1, 0, 0)
    flipped = _Scripted(tmp_path, [(1, "collapse verdict: false (3 collapsings, width 1)\n")])
    flipped.run_item(item, tmp_path / "x.txt")
    assert (flipped.attempted, flipped.failed, flipped.wrong) == (1, 1, 1)
    oracle_flipped = _Scripted(
        tmp_path, [(0, "collapse verdict: true (3 collapsings, width 1)\n"), (1, "false\n")]
    )
    oracle_flipped.run_item(item, tmp_path / "x.txt")
    assert oracle_flipped.failed == 1


def test_a_program_error_is_a_failed_item_but_not_a_wrong_answer(tmp_path):
    h = _Scripted(tmp_path, [(4, "")])
    h.run_item(_solve_item(False), tmp_path / "x.txt")
    assert (h.failed, h.wrong) == (1, 0)


def _classify2_item(mask: int) -> inputs.Item:
    language = inputs.boolean_ternary(mask)
    hits = len(reference.dispatch_hits(language))
    return inputs.Item(f"classify2/hits{hits}", "classify", inputs.render(2, language),
                       info={"language": language})


def test_a_wrong_label_is_a_failed_item(tmp_path):
    # the full relation {0,1}^3 is preserved by every operation
    item = _classify2_item(255)
    h = _Scripted(tmp_path, [(0, '{"label": "PSPACE_complete_cited"}')])
    h.run_item(item, tmp_path / "x.txt")
    assert (h.failed, h.wrong) == (1, 1)


def test_a_certificate_that_does_not_replay_is_a_failed_item(tmp_path):
    import json

    item = _classify2_item(255)
    bad = AND_CERT[:3] + ["step 2: * * <= g0(0, 0)"] + AND_CERT[4:]
    report = {"label": "P_certified", "certificate": bad,
              "reduction": {"width": 1, "source": [1]}}
    h = _Scripted(tmp_path, [(0, json.dumps(report))])
    h.run_item(item, tmp_path / "x.txt")
    assert (h.failed, h.wrong) == (1, 1)


def test_wrong_subalgebras_are_a_failed_item(tmp_path):
    import json

    op = (2, reference.shared_semilattice(3, 0))
    item = inputs.Item("analyze/other-shapes", "analyze", inputs.render(3, {}, ops={"f": op}),
                       info={"generators": [op]})
    report = {"subalgebras": [{"universe": [0, 1, 2]}], "sink": {"kind": "not_sink"}}
    h = _Scripted(tmp_path, [(0, json.dumps(report))])
    h.run_item(item, tmp_path / "x.txt")
    assert (h.failed, h.wrong) == (1, 1)


def test_times_are_scaled_to_the_reference_speed():
    ref = hostspeed.REF_SECONDS
    assert hostspeed.at_reference_speed(0.5, ref, ref) == pytest.approx(0.5)
    # on a host twice as slow the kernel takes twice as long: half the time
    assert hostspeed.at_reference_speed(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert hostspeed.at_reference_speed(0.5, ref, 3 * ref) == pytest.approx(0.25)
    assert hostspeed.kernel_seconds() > 0


def test_tracer_counts_layers_and_restores_the_program(tmp_path):
    import contextlib
    import io

    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    from qcollapse import cli, collapsibility
    from tracing import Tracer

    original = collapsibility.plan_certificate
    path = tmp_path / "horn.txt"
    path.write_text(_solve_item(True).text, encoding="utf-8")
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(path)]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(items=1)
    # a two-element solve closes the term operations twice: plan, then build
    assert metrics["polymorph.term_closures"] == (2, "count")
    assert metrics["cspsolve.calls"][0] == metrics["collapse.collapsings"][0] > 0
    assert metrics["cli.other_ms"][0] > 0
    assert collapsibility.plan_certificate is original
