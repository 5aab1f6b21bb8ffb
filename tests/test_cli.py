import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcollapse
from conftest import NEGATIVE_REFERENCE_CERT, record_closure_caps
from qcollapse import collapsibility, polymorph
from qcollapse.cli import CLI_STRATEGIES, main
from qcollapse.collapse import (
    collapse_verdicts,
    collapsing_to_csp,
    conjunction_verdict,
    relevant_collapsings,
)
from qcollapse.corpus import CorpusSpec, instances
from qcollapse.game import constant_adversary, evaluate_truth
from qcollapse.model import Algebra, parse_document, serialize_instance
from qcollapse.ops import and_op, majority_op, projection_op

EXAMPLE = """\
domain 2 a b
relation R1 2
  a a
  b b
relation R2 2
  a b
  b a
relation R3 3
  a a a
  b b b
  a b a
formula forall y1 exists x1 forall y2 forall y3 exists x2 : R1(y1, x1) & R2(y2, x2) & R3(y2, x2, y3)
"""

HORN = """\
domain 2 f t
relation Impl 2
  f f
  f t
  t t
relation Unit 1
  t
formula forall y1 exists x1 forall y2 exists x2 : Impl(y1, x1) & Impl(x1, x2) & Unit(x2)
"""

HORN_FALSE = """\
domain 2 f t
relation Impl 2
  f f
  f t
  t t
relation IsF 1
  f
formula forall y1 exists x1 : Impl(y1, x1) & IsF(x1)
"""

# closed under minority only
AFFINE = """\
domain 2 0 1
relation Even 3
  0 0 0
  0 1 1
  1 0 1
  1 1 0
formula forall y1 forall y2 exists x : Even(y1, y2, x)
"""

# closed under majority only
TWO_CNF = """\
domain 2 0 1
relation Or 2
  0 1
  1 0
  1 1
relation Nand 2
  0 0
  0 1
  1 0
formula forall y exists x : Or(y, x) & Nand(y, x)
"""

SHARED_ALGEBRA = """\
domain 3 a b c
op s 2
  a a -> a
  a b -> c
  a c -> c
  b a -> c
  b b -> b
  b c -> c
  c a -> c
  c b -> c
  c c -> c
"""

AND_ALGEBRA = """\
domain 2 f t
op and 2
  f f -> f
  f t -> f
  t f -> f
  t t -> t
"""

# enclosed, fully connected and without a G-set factor, but certified: the
# sink check reaches the planner
COLLAPSIBLE_ALGEBRA = """\
domain 3 a b c
op f 2
  a a -> a
  a b -> a
  a c -> a
  b a -> a
  b b -> b
  b c -> b
  c a -> b
  c b -> b
  c c -> c
"""

# x - y + z = 0 (mod 3): tractable through the affine Mal'tsev operation
AFFINE_Z3 = """\
domain 3 0 1 2
relation AffZ3 3
  0 0 0
  0 1 1
  0 2 2
  1 0 2
  1 1 0
  1 2 1
  2 0 1
  2 1 2
  2 2 0
"""


# the (verb, flag) pairs where the verb reads the flag; every other verb
# refuses it
FLAGS_READ = {("solve", "--format"), ("gen", "--seed")}

# the (strategy, flag) pairs where `certify --strategy` reads the builder
# flag; every other strategy refuses it
STRATEGY_FLAGS_READ = {
    ("singleton", "--element"), ("unit_element", "--element"), ("maltsev_chain", "--element"),
    ("near_unanimity", "--element"), ("dualdisc_chain", "--pair"),
    ("unit_element", "--op"), ("maltsev_chain", "--op"), ("dualdisc_chain", "--op"),
    ("near_unanimity", "--op"),
}


# the algebra files among the ledger's inputs
LEDGER_INPUTS = Path(__file__).parent / "ledger" / "inputs"
LEDGER_ALGEBRAS = sorted(
    path.name for path in LEDGER_INPUTS.glob("*.txt")
    if parse_document(path.read_text(encoding="utf-8")).operations
)


def _trace_depth(trace) -> int:
    if trace[0] != "comp":
        return 0
    return 1 + max(_trace_depth(part) for part in (trace[1],) + trace[2])


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (
        ("example", EXAMPLE),
        ("horn", HORN),
        ("horn_false", HORN_FALSE),
        ("affine", AFFINE),
        ("2cnf", TWO_CNF),
        ("shared", SHARED_ALGEBRA),
        ("and", AND_ALGEBRA),
        ("collapsible", COLLAPSIBLE_ALGEBRA),
        ("affine_z3", AFFINE_Z3),
    ):
        p = tmp_path / f"{name}.txt"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_oracle_true(self, files, capsys):
        assert main(["solve-oracle", files["horn"]]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_oracle_false(self, files, capsys):
        assert main(["solve-oracle", files["horn_false"]]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("relation R 2\n", encoding="utf-8")
        assert main(["solve-oracle", str(bad)]) == 2

    def test_oracle_node_cap_is_a_guardrail(self, files, capsys):
        # the search opens three nodes: y1, and x1 under each value of y1
        assert main(["solve-oracle", files["horn"], "--node-cap", "2"]) == 3
        assert capsys.readouterr().err == "guardrail: game search opened more than 2 nodes\n"
        assert main(["solve-oracle", files["horn"], "--node-cap", "3"]) == 0

    @pytest.mark.parametrize(
        "flag", [["--count-cap", "1"], ["--arity-cap", "2"], ["--seed", "3"], ["--format", "tsv"]]
    )
    def test_oracle_rejects_flags_it_does_not_read(self, files, capsys, flag):
        assert main(["solve-oracle", files["horn"], *flag]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "verb, flag",
        [
            pytest.param(verb, flag, id=f"{verb}{flag[0]}")
            for verb in ("solve", "collapse", "reduce", "analyze", "detect", "certify",
                         "verify", "classify", "sweep", "gen")
            for flag in (["--seed", "3"], ["--format", "tsv"], ["--arity-cap", "2"],
                         ["--count-cap", "1"])
            if (verb, flag[0]) not in FLAGS_READ
        ],
    )
    def test_seed_and_format_are_refused_where_not_read(
        self, files, tmp_path, capsys, verb, flag
    ):
        required = {
            "collapse": ["--j", "1"], "reduce": ["--j", "1"],
            "verify": ["--certificate", files["horn"]], "gen": ["--out", str(tmp_path / "gen")],
        }
        path = [] if verb in ("sweep", "gen") else [files["and"]]
        assert main([verb, *path, *required.get(verb, []), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: {' '.join(flag)}" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--strategy", "extends_step"], "invalid choice"),
            (["--strategy", "subalgebra_enlarge"], "invalid choice"),
            (["--strategy", "combine_subsets"], "invalid choice"),
            (["--strategy", "and_chain"], "invalid choice"),
            (["--strategy", "two_element"], "invalid choice"),
            (["--strategy", "frobnicate"], "invalid choice"),
            (["--strategy", "strictly_simple"], "invalid choice"),
            (["--strategy", "dualdisc_chain", "--pair", "0"], "--pair needs two element names"),
            (["--strategy", "dualdisc_chain", "--pair", "f,f"],
             "--pair needs two different elements, got 'f,f'"),
        ],
        ids=[
            "extends_step", "subalgebra_enlarge", "combine_subsets", "and_chain", "two_element",
            "frobnicate", "strictly_simple", "pair-of-one", "pair-of-equals",
        ],
    )
    def test_certify_refuses_strategies_it_cannot_parameterize(
        self, files, capsys, argv, message
    ):
        assert main(["certify", files["and"], *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "strategy, flag",
        [
            pytest.param(strategy, flag, id=f"{strategy}{flag[0]}")
            for strategy in CLI_STRATEGIES
            for flag in (["--element", "t"], ["--pair", "f,t"], ["--op", "and"])
        ],
    )
    def test_certify_refuses_builder_flags_its_strategy_does_not_read(
        self, files, capsys, strategy, flag
    ):
        code = main(["certify", files["and"], "--strategy", strategy, "--n", "2", *flag])
        captured = capsys.readouterr()
        if (strategy, flag[0]) in STRATEGY_FLAGS_READ:
            assert code in (0, 1)
            assert "does not read" not in captured.err
        else:
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: --strategy {strategy} does not read {flag[0]}\n"

    def test_composite_term_certifies_without_a_term_closure(self, tmp_path, capsys, monkeypatch):
        # the generator satisfies no term condition, and its AND term
        # x&(y|y) is no generator: the lift certifies from {1} at width 1,
        # whatever the closure's count cap
        rows = "".join(
            f"  {x} {y} {z} -> {x & (y | z)}\n" for x in (0, 1) for y in (0, 1) for z in (0, 1)
        )
        path = tmp_path / "meet_join.txt"
        path.write_text(f"domain 2 0 1\nop m 3\n{rows}", encoding="utf-8")
        monkeypatch.setattr(polymorph, "TERM_COUNT_CAP", 3)
        closures = record_closure_caps(monkeypatch)
        assert main(["certify", str(path), "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# strategy power_lift\ncertificate n=4 width=1 source=1 ")
        assert closures == []

    def test_no_verb_runs_a_term_closure(self, capsys, monkeypatch):
        # detect, certify, classify and analyze on every ledger input run
        # none; analyze's three-element sink test closes the two binary
        # projections itself
        closures = record_closure_caps(monkeypatch)
        sink_tests = []
        real_meet = collapsibility.semilattice_to_shared

        def meet(d, shared):
            sink_tests.append(shared)
            return real_meet(d, shared)

        monkeypatch.setattr(collapsibility, "semilattice_to_shared", meet)
        for path in sorted(LEDGER_INPUTS.glob("*.txt")):
            document = parse_document(path.read_text(encoding="utf-8"))
            runs = [["detect"]]
            if document.operations:
                runs.append(["certify", "--n", "3"])
            if document.relations and document.domain.size in (2, 3):
                runs.append(["classify"])
            for verb, *flags in runs:
                # discovery may stop at a guardrail (exit 3) before any planning
                assert main([verb, str(path), *flags]) in (0, 1, 3), (path.name, verb)
                capsys.readouterr()
                assert closures == [], (path.name, verb)
            if document.operations:
                assert main(["analyze", str(path)]) == 0
                capsys.readouterr()
                assert closures == [], path.name
        assert sink_tests

    @pytest.mark.parametrize("name", ["example", "horn", "horn_false", "affine", "2cnf"])
    def test_solve_on_two_elements_runs_no_term_closure(self, files, capsys, monkeypatch, name):
        closures = record_closure_caps(monkeypatch)
        assert main(["solve", files[name]]) in (0, 1)
        assert "collapse verdict" in capsys.readouterr().out
        assert closures == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, f"argument {argv[-2]}: must be >= {low}, got {argv[-1]}",
                         id=" ".join(argv))
            for argv, low in (
                (["gen", "--domain-size", "0"], 1),
                (["gen", "--domain-size", "-1"], 1),
                (["gen", "--vars", "0"], 1),
                (["gen", "--vars", "-2"], 1),
                (["gen", "--universals", "-1"], 0),
                (["certify", "and", "--n", "0"], 1),
                (["certify", "and", "--n", "-2"], 1),
                (["verify", "and", "--certificate", "and", "--n", "0"], 1),
                (["solve-oracle", "horn", "--node-cap", "0"], 1),
                (["solve-oracle", "horn", "--node-cap", "-1"], 1),
                (["solve", "horn", "--j", "-1"], 0),
                (["solve", "horn", "--unsafe", "--j", "-1"], 0),
                (["collapse", "horn", "--j", "-1"], 0),
                (["reduce", "horn", "--j", "-1"], 0),
            )
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, files, tmp_path, capsys, argv, message):
        out = tmp_path / "gen"
        argv = [files.get(arg, arg) for arg in argv]
        if argv[0] == "gen":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out.exists()

    def test_oracle_decides_prefixes_deeper_than_the_recursion_limit(self, tmp_path, capsys):
        n = 1500
        prefix = " ".join(f"{'exists' if i % 2 == 0 else 'forall'} v{i}" for i in range(n))
        body = " & ".join(f"E(v{i}, v{i + 1})" for i in range(n - 1))
        path = tmp_path / "deep.txt"
        path.write_text(f"domain 1\nrelation E 2\n  0 0\nformula {prefix} : {body}\n", encoding="utf-8")
        assert main(["solve-oracle", str(path)]) == 0
        assert capsys.readouterr().out == "true\n"

    def test_unknown_verb(self):
        assert main(["frobnicate"]) == 2

    def test_certify_failure_is_exit_one(self, files, capsys):
        assert main(["certify", files["shared"], "--strategy", "auto"]) == 1

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        assert main(["solve-oracle", str(tmp_path / "missing.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err

    def test_verify_rejects_negative_reference(self, files, capsys, tmp_path):
        cert_path = tmp_path / "circular.txt"
        cert_path.write_text(NEGATIVE_REFERENCE_CERT, encoding="utf-8")
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 1
        assert capsys.readouterr().out.startswith("certificate rejected")


    @pytest.mark.parametrize(
        "text, line",
        [
            ("certificate n=1 width=1 target=1 domain=2\naxiom 0: {1}\nresult 0\n", 1),
            ("certificate n=1 width=1 source=1 domain=2\naxiom 0: {1}\nresult 0\n", 1),
            ("certificate n=1 source=1 target=1 domain=2\naxiom 0: {1}\nresult 0\n", 1),
            ("certificate n=1 width=1 source=1 target=1 domain=3\naxiom 0: {1}\nresult 0\n", 1),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1: {1} <= g7(0, 0)\nresult 1\n",
                3,
            ),
            ("certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {x}\nresult 0\n", 2),
            ("certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0 {1}\nresult 0\n", 2),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1 {1} <= g0(0, 0)\nresult 1\n",
                3,
            ),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1: {1} <= g0(0, 0\nresult 1\n",
                3,
            ),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1: {1} <= g0(0,, 0)\nresult 1\n",
                3,
            ),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1: {1} <= g0(0, 0,)\nresult 1\n",
                3,
            ),
            (
                "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
                "step 1: {1} <= g0(0, 0))\nresult 1\n",
                3,
            ),
        ],
        ids=[
            "no-source", "no-target", "no-width", "domain-mismatch",
            "unknown-generator", "bad-coordinate", "axiom-without-colon", "step-without-colon",
            "unclosed-inputs", "empty-input-id", "trailing-comma", "doubled-close",
        ],
    )
    def test_malformed_certificate_is_usage_error(self, files, capsys, tmp_path, text, line):
        cert_path = tmp_path / "bad_cert.txt"
        cert_path.write_text(text, encoding="utf-8")
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_verify_rejects_arity_mismatch(self, files, capsys, tmp_path):
        cert_path = tmp_path / "short.txt"
        cert_path.write_text(
            "certificate n=1 width=1 source=1 target=1 domain=2\naxiom 0: {1}\n"
            "step 1: {1} <= g0(0)\nresult 1\n",
            encoding="utf-8",
        )
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 1
        assert capsys.readouterr().out == (
            "certificate rejected: step 1: 1 inputs for an arity-2 operation\n"
        )

    def test_verify_rejects_a_trace_that_does_not_compose(self, files, capsys, tmp_path):
        # the trace parses, but the binary g0 gets one inner operation: the
        # verifier, the only one to replay it, rejects the step
        cert_path = tmp_path / "uncomposable.cert"
        cert_path.write_text(
            "certificate n=1 width=1 source=1 target=0,1 domain=2\naxiom 0: *\n"
            "step 1: * <= (g0 p1.1)(0)\nresult 1\n",
            encoding="utf-8",
        )
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            "certificate rejected: step 1: trace replay failed: "
            "compose: and has arity 2, got 1 inner operations\n"
        )

    @pytest.mark.parametrize("arity", [23, 100_000_000])
    def test_verify_refuses_a_huge_projection_before_building_it(
        self, files, capsys, tmp_path, monkeypatch, arity
    ):
        def small_projection(d, k, coord, name=None):
            assert k <= 3, f"a projection table of arity {k} was built"
            return projection_op(d, k, coord, name)

        monkeypatch.setattr(polymorph, "projection_op", small_projection)
        cert_path = tmp_path / "huge.cert"
        cert_path.write_text(
            "certificate n=1 width=1 source=1 target=0,1 domain=2\naxiom 0: *\n"
            f"step 1: * <= p{arity}.1(0, 0)\nresult 1\n",
            encoding="utf-8",
        )
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"guardrail: projection p{arity}.1 reads {arity}*2^{arity} argument cells, "
            f"above the cap of {polymorph.CHECK_CAP}\n"
        )

    @pytest.mark.parametrize("depth", [1_200, 100_000])
    def test_verify_refuses_a_trace_nested_too_deep(self, files, capsys, tmp_path, depth):
        # (g0 (g0 ... (g0 p2.1 p2.2) ... p2.2) p2.2) is x AND y at any depth
        trace = "(g0 " * depth + "p2.1" + " p2.2)" * depth
        cert_path = tmp_path / "deep.cert"
        cert_path.write_text(
            "certificate n=1 width=1 source=1 target=0,1 domain=2\naxiom 0: *\n"
            f"step 1: * <= {trace}(0, 0)\nresult 1\n",
            encoding="utf-8",
        )
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: line 3: trace nests deeper than {sys.getrecursionlimit() // 4} "
            "compositions\n"
        )

    @pytest.mark.parametrize("name", LEDGER_ALGEBRAS)
    def test_the_deepest_closure_trace_round_trips(self, capsys, tmp_path, name):
        # a one-step certificate on the deepest trace of the algebra's
        # arity-3 term closure, as the certificate writer prints it, verifies
        alg = parse_document((LEDGER_INPUTS / name).read_text(encoding="utf-8")).algebra
        terms = polymorph.generate_term_operations(alg, 3)
        op = max(terms.operations, key=lambda o: _trace_depth(terms.traces[o]))
        full = constant_adversary(1, frozenset(range(alg.domain.size)))
        cert = collapsibility.Certificate(
            full.coords[0], frozenset({0}), 1, 1,
            (collapsibility.CertEntry(full),
             collapsibility.CertEntry(full, terms.traces[op], (0,) * op.arity)),
            1,
        )
        text = collapsibility.serialize_certificate(cert, alg.domain.size)
        assert collapsibility.parse_certificate(text, alg) == cert
        cert_path = tmp_path / "deepest.cert"
        cert_path.write_text(text, encoding="utf-8")
        assert main(["verify", str(LEDGER_INPUTS / name), "--certificate", str(cert_path)]) == 0
        assert capsys.readouterr().out.startswith("certificate ok: ")

    def test_certify_out_to_missing_directory(self, files, capsys, tmp_path):
        out = tmp_path / "missing" / "cert.txt"
        assert main(["certify", files["and"], "--n", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file" in err

    def test_gen_out_below_a_file(self, files, capsys):
        out = Path(files["and"]) / "corpus"
        assert main(["gen", "--out", str(out), "--count", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_gen_negative_count(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "c"), "--count", "-3"]) == 2
        assert "--count" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("verb", ["solve", "collapse", "reduce"])
    def test_const_and_source_together(self, files, capsys, verb):
        argv = [verb, files["example"], "--j", "1", "--const", "b", "--source", "all"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --const and --source exclude each other\n"

    @pytest.mark.parametrize("argv", [["solve", "--unsafe"], ["reduce"], ["collapse"]])
    def test_wide_encoding_is_refused(self, tmp_path, capsys, argv):
        # forall y1..y20 exists x: R(y1, x) & ... & R(y20, x); the width-10
        # collapsings would emit billions of constraints in total
        universals = " ".join(f"forall y{i}" for i in range(1, 21))
        body = " & ".join(f"R(y{i}, x)" for i in range(1, 21))
        wide = tmp_path / "wide.txt"
        wide.write_text(
            f"domain 2 0 1\nrelation R 2\n  0 0\n  1 1\nformula {universals} exists x : {body}\n",
            encoding="utf-8",
        )
        assert main([argv[0], str(wide), "--j", "10", *argv[1:]]) == 3
        assert "would emit" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["detect", "solve"])
    def test_template_row_choices_are_refused(self, tmp_path, capsys, verb):
        # discovery refuses arity 2 (6^30 candidates), so the ternary
        # templates run; the full ternary relation over six elements has
        # 216^3 row choices, which they refuse before building any check
        rows = "".join(
            f"  {a} {b} {c}\n" for a in range(6) for b in range(6) for c in range(6)
        )
        full = tmp_path / "full.txt"
        full.write_text(
            f"domain 6 0 1 2 3 4 5\nrelation R 3\n{rows}formula forall y exists x : R(y, x, x)\n",
            encoding="utf-8",
        )
        assert main([verb, str(full)]) == 3
        assert "216^3 tuple combinations exceed the cap" in capsys.readouterr().err


class TestParserReuse:
    def test_back_to_back_calls_match_fresh_processes(self, files, capsys):
        env = dict(os.environ, PYTHONPATH=str(Path(qcollapse.__file__).parents[1]))
        runs = (
            ["certify", files["and"], "--n", "3"],
            ["solve-oracle", files["horn"]],
            ["classify", files["horn"]],
            ["solve", files["horn"], "--bogus"],
            ["--help"],
        )
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "qcollapse.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv


class TestCollapseVerb:
    def test_example_lists_four(self, files, capsys):
        assert main(["collapse", files["example"], "--j", "1", "--const", "b"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "index\tconstant\tkept\tverdict\tformula"
        assert len(lines) == 5

    def test_byte_identical_reports(self, files, capsys):
        main(["collapse", files["example"], "--j", "1", "--const", "b"])
        first = capsys.readouterr().out
        main(["collapse", files["example"], "--j", "1", "--const", "b"])
        assert capsys.readouterr().out == first


class TestSolveVerb:
    def test_equality_language(self, tmp_path, capsys):
        # every idempotent operation is a polymorphism of equality
        path = tmp_path / "eq.txt"
        path.write_text(
            "domain 2 a b\nrelation E 2\n  a a\n  b b\n"
            "formula forall y exists x : E(y, x)\n",
            encoding="utf-8",
        )
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out.startswith("collapse verdict: true")

    def test_agrees_with_oracle(self, files, capsys):
        for name in ("horn", "horn_false"):
            direct = main(["solve-oracle", files[name]])
            capsys.readouterr()
            reduced = main(["solve", files[name]])
            capsys.readouterr()
            assert direct == reduced

    def test_refuses_without_certificate(self, files, capsys):
        # NAE-style language admits no certificate
        nae = Path(files["horn"]).parent / "nae.txt"
        nae.write_text(
            "domain 2 f t\nrelation NAE 3\n  f f t\n  f t f\n  t f f\n"
            "  f t t\n  t f t\n  t t f\n"
            "formula forall y exists x : NAE(y, x, x)\n",
            encoding="utf-8",
        )
        assert main(["solve", str(nae)]) == 3
        assert main(["solve", str(nae), "--unsafe", "--j", "1"]) in (0, 1)

    def test_incompatible_source_refused(self, files, capsys):
        # the Horn language certifies with source {t}; forcing constant f
        # alone would make the reduction unsound
        assert main(["solve", files["horn"], "--const", "f"]) == 3
        assert main(["solve", files["horn"], "--const", "t"]) == 0

    def test_tsv_format(self, files, capsys):
        assert main(["solve", files["horn"], "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("index\tconstant\tkept\tverdict")

    def test_verdict_is_the_conjunction_of_every_collapsing(self, files, capsys, tmp_path):
        # the text verdict decides only the widest collapsings; it equals the
        # per-collapsing table at every width and source, and the oracle
        # wherever a certificate backs the run
        paths = [Path(path) for path in files.values()]
        specs = [
            CorpusSpec(seed=71, count=25, max_vars=5, max_universals=3),
            CorpusSpec(seed=73, count=12, domain_size=3, max_vars=4, max_universals=2),
            CorpusSpec(seed=79, count=15, max_vars=5, max_universals=3, closure_ops=(and_op(),)),
            CorpusSpec(seed=83, count=15, max_vars=5, max_universals=3,
                       closure_ops=(majority_op(),)),
        ]
        for k, (language, phi) in enumerate(itertools.chain.from_iterable(map(instances, specs))):
            paths.append(tmp_path / f"random{k}.txt")
            paths[-1].write_text(serialize_instance(language, phi), encoding="utf-8")
        checks = {"runs": 0, "certified": 0, "false": 0}
        for path in paths:
            formula = parse_document(path.read_text(encoding="utf-8")).formula
            if formula is None:
                continue
            sources = [([name], [a]) for a, name in enumerate(formula.domain.names)]
            for j in (0, 1, 2):
                for flags, source in sources + [(["--source", "all"], None)]:
                    collapsings = relevant_collapsings(formula, j, source)
                    table = [ok for _, ok in collapse_verdicts(formula, j, source)]
                    assert conjunction_verdict(collapsings) == all(table), (path, j, flags)
                    argv = ["solve", str(path), "--unsafe", "--j", str(j)]
                    argv += flags if source is None else ["--const", *flags]
                    code = main(argv)
                    text = capsys.readouterr().out
                    assert main(argv + ["--format", "tsv"]) == code
                    rows = capsys.readouterr().out.splitlines()[1:]
                    assert [row.endswith("\t1") for row in rows] == table
                    verdict = "true" if all(table) else "false"
                    assert text == (
                        f"collapse verdict: {verdict} ({len(rows)} collapsings, width {j})\n"
                    )
                    assert code == (0 if all(table) else 1)
                    checks["runs"] += 1
                    checks["false"] += not all(table)
            code = main(["solve", str(path)])
            capsys.readouterr()
            if code != 3:
                assert code == (0 if evaluate_truth(formula) else 1), path
                checks["certified"] += 1
        assert checks["runs"] > 600 and checks["false"] > 300 and checks["certified"] > 50, checks

    def test_walk_certifies_where_a_later_check_is_over_the_size_guard(self, capsys):
        # AND preserves the 224-row relation; majority's check would take
        # 224^3 row choices
        path = LEDGER_INPUTS / "nand3_wide.txt"
        formula = parse_document(path.read_text(encoding="utf-8")).formula
        assert evaluate_truth(formula) is True
        assert main(["solve", str(path)]) == 0
        assert capsys.readouterr().out == "collapse verdict: true (3 collapsings, width 1)\n"
        assert main(["solve-oracle", str(path)]) == 0
        capsys.readouterr()
        # classify certifies over the hits it could check, and lists the
        # checks over the size guard among its caps
        assert main(["classify", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["label"] == "P_certified"
        assert report["reduction"] == {"width": 1, "source": [1]}
        assert report["caps"]["refused_checks"] == dict.fromkeys(
            ("majority", "minority"), "224^3 tuple combinations exceed the cap of 10000000"
        )

    def test_encoding_emits_each_constraint_once(self, files):
        for path in files.values():
            formula = parse_document(Path(path).read_text(encoding="utf-8")).formula
            if formula is None:
                continue
            for j in (0, 1, 2):
                for col in relevant_collapsings(formula, j, None):
                    constraints = collapsing_to_csp(col).constraints
                    assert len(set(constraints)) == len(constraints), (path, col)


HORN_REDUCED_HEADER = """\
# combined CSP from 3 collapsings (width 1)
# v0 = c0.x1@
# v1 = c0.x2@
# v2 = c1.x1@y1=0
# v3 = c1.x1@y1=1
# v4 = c1.x2@y1=0
# v5 = c1.x2@y1=1
# v6 = c2.x1@
# v7 = c2.x2@y2=0
# v8 = c2.x2@y2=1
"""


class TestReduceVerb:
    def test_output_reparses_and_preserves_truth(self, files, capsys, tmp_path):
        out = tmp_path / "reduced.txt"
        assert main(["reduce", files["horn"], "--j", "1", "--const", "t", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith(HORN_REDUCED_HEADER)
        assert text.count("\n# ") == HORN_REDUCED_HEADER.count("\n# ")
        reparsed = main(["solve-oracle", str(out)])
        capsys.readouterr()
        assert reparsed == main(["solve-oracle", files["horn"]])

    def test_every_fixture_width_and_constant(self, files, capsys, tmp_path):
        # the reduction is satisfiable iff every collapsing is true, and is
        # true whenever the formula is; each constraint is printed once
        out = tmp_path / "reduced.txt"
        checked = 0
        for path in files.values():
            document = parse_document(Path(path).read_text(encoding="utf-8"))
            formula = document.formula
            if formula is None:
                continue
            original = evaluate_truth(formula)
            for j in (0, 1, 2):
                for a, name in enumerate(formula.domain.names):
                    argv = ["reduce", path, "--j", str(j), "--const", name, "--out", str(out)]
                    assert main(argv) == 0
                    collapsed = conjunction_verdict(relevant_collapsings(formula, j, [a]))
                    code = main(["solve-oracle", str(out), "--node-cap", str(10**12)])
                    assert code == (0 if collapsed else 1), (path, j, name)
                    assert collapsed or not original
                    body = out.read_text(encoding="utf-8").splitlines()[-1].split(" : ")[1]
                    constraints = body.split(" & ")
                    assert len(set(constraints)) == len(constraints), (path, j, name)
                    checked += 1
        capsys.readouterr()
        assert checked == 30


class TestAnalyzeDetect:
    def test_analyze_shared(self, files, capsys):
        assert main(["analyze", files["shared"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["enclosed"] is True
        assert report["has_gset_factor"] is False
        assert report["sink"]["kind"] == "sink_certified"
        pairs = [
            e["universe"] for e in report["subalgebras"] if len(e["universe"]) == 2
        ]
        assert pairs == [[0, 2], [1, 2]]

    def test_analyze_computes_each_predicate_once(self, files, capsys, monkeypatch):
        # the report, the disjoint-maximal congruence and sink detection all
        # ask whether the algebra is enclosed; it is computed once. Every
        # algebra's structure cache records what it stores, which it does
        # once per computation.
        computed = []

        class Recording(dict):
            def __setitem__(self, key, value):
                computed.append(key[0].__name__)
                super().__setitem__(key, value)

        real = Algebra.__post_init__

        def post_init(self):
            real(self)
            self.__dict__["_structure"] = Recording()

        monkeypatch.setattr(Algebra, "__post_init__", post_init)
        assert main(["analyze", files["shared"]]) == 0
        assert json.loads(capsys.readouterr().out)["enclosed"] is True
        asked = ("is_enclosed", "is_fully_connected", "is_strictly_simple", "is_pair_minimal")
        predicates = [name for name in computed if name in asked]
        assert predicates.count("is_enclosed") == 1
        assert len(predicates) == len(set(predicates)) == 4

    def test_detect_tags(self, files, capsys):
        assert main(["detect", files["and"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["operations"]["and"]["semilattice"] is True
        assert report["operations"]["and"]["unit_element"] == 1

    def test_detect_discovery(self, files, capsys):
        assert main(["detect", files["horn"]]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "majority" in report["polymorphisms"]["tagged"]
        assert report["polymorphisms"]["caps"]["candidate_cap"] == 100_000


class TestCertifyVerify:
    def test_roundtrip(self, files, capsys, tmp_path):
        cert_path = tmp_path / "cert.txt"
        assert main([
            "certify", files["and"], "--strategy", "unit_element",
            "--n", "5", "--out", str(cert_path),
        ]) == 0
        assert main([
            "verify", files["and"], "--certificate", str(cert_path), "--n", "5",
        ]) == 0
        assert main([
            "verify", files["and"], "--certificate", str(cert_path), "--n", "6",
        ]) == 1

    def test_verify_replays_each_distinct_trace_once(self, files, capsys, tmp_path, monkeypatch):
        # the certificate applies the one generator at both of its steps
        cert_path = tmp_path / "and.cert"
        assert main(["certify", files["and"], "--n", "3", "--out", str(cert_path)]) == 0
        calls = []
        real = collapsibility.replay_trace

        def counting(algebra, trace, budget=None):
            calls.append(trace)
            return real(algebra, trace, budget)

        monkeypatch.setattr(collapsibility, "replay_trace", counting)
        assert main(["verify", files["and"], "--certificate", str(cert_path)]) == 0
        assert cert_path.read_text(encoding="utf-8").count("<= g0(") == 2
        assert calls == [("gen", 0)]

    def test_auto_strategy(self, files, capsys):
        assert main(["certify", files["and"], "--strategy", "auto", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "# strategy" in out and "result" in out


class TestClassifyVerb:
    def test_two_element(self, files, capsys):
        assert main(["classify", files["horn"]]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["label"] == "P_certified"
        assert verdict["reduction"]["width"] == 1

    def test_three_element_sink_zone(self, files, capsys, tmp_path):
        shared_lang = tmp_path / "slang.txt"
        shared_lang.write_text(
            "domain 3 a b c\nrelation R 2\n  a a\n  b b\n  c c\n", encoding="utf-8"
        )
        assert main(["classify", str(shared_lang)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["label"] == "unresolved"


class TestTrustRoot:
    """Every verb that emits or relies on a certificate reaches the verifier
    through the collapsibility module, so a verifier that rejects everything
    leaves no certified answer anywhere."""

    RUNS = (
        ["solve", "horn"],
        ["certify", "and", "--n", "3"],
        ["classify", "affine_z3"],
        ["analyze", "collapsible"],
    )

    def _run(self, files, capsys):
        results = []
        for verb, name, *flags in self.RUNS:
            code = main([verb, files[name], *flags])
            results.append((code, *capsys.readouterr()))
        return results

    def test_a_rejecting_verifier_refuses_every_certificate(self, files, capsys, monkeypatch):
        solve, certify, classify, analyze = self._run(files, capsys)
        assert [run[0] for run in (solve, certify, classify, analyze)] == [0, 0, 0, 0]
        assert json.loads(classify[1])["label"] == "P_certified"
        assert json.loads(analyze[1])["sink"]["kind"] == "not_sink"

        def reject(certificate, algebra, n=None):
            return collapsibility.VerificationResult(False, "rejected on purpose")

        monkeypatch.setattr(collapsibility, "verify_certificate", reject)
        solve, certify, classify, analyze = self._run(files, capsys)
        assert [run[0] for run in (solve, certify, classify, analyze)] == [3, 1, 0, 0]
        assert solve[2].startswith(
            "guardrail: refusing the collapse reduction without a verified certificate "
            "(certificate failed verification: rejected on purpose)"
        )
        assert certify[1] == ""
        assert certify[2] == (
            "no certificate: certificate failed verification: rejected on purpose\n"
        )
        verdict = json.loads(classify[1])
        assert verdict["label"] == "inconclusive"
        assert "certificate" not in verdict
        assert verdict["witness"]["builder_failure"] == (
            "certificate failed verification: rejected on purpose"
        )
        sink = json.loads(analyze[1])["sink"]
        assert sink == {
            "kind": "inconclusive",
            "reason": "no builder applies: certificate failed verification: rejected on purpose",
        }


class TestGen:
    def test_deterministic_corpus(self, tmp_path, capsys):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["gen", "--out", str(out1), "--count", "5", "--seed", "9"]) == 0
        assert main(["gen", "--out", str(out2), "--count", "5", "--seed", "9"]) == 0
        files1 = sorted(out1.iterdir())
        files2 = sorted(out2.iterdir())
        assert [f.name for f in files1] == [f.name for f in files2]
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_generated_instances_parse(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen", "--out", str(out), "--count", "3", "--closure", "and"]) == 0
        for path in sorted(out.iterdir()):
            assert main(["solve-oracle", str(path)]) in (0, 1)
