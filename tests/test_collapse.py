import itertools

import pytest

from conftest import eq_rel, formula, reference_game, rel
from qcollapse.collapse import (
    Collapsing,
    collapse_verdicts,
    collapsing_to_csp,
    combine_csp,
    conjunction_verdict,
    csp_variable_names,
    encoding_size,
    enumerate_collapsings,
    enumerate_j_collapsings,
    instantiate_universals,
    relevant_collapsings,
)
from qcollapse.collapsibility import adv_family
from qcollapse.corpus import CorpusSpec, instances
from qcollapse.cspsolve import solve_csp
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.game import evaluate_truth
from qcollapse.model import Constraint, serialize_instance
from qcollapse.ops import and_op, majority_op, minority_op


def example_formula():
    r1 = rel("R1", 2, 2, [(0, 0), (1, 1)])
    r2 = rel("R2", 2, 2, [(0, 1), (1, 0)])
    r3 = rel("R3", 3, 2, [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    return formula(
        2, "Ay1 Ex1 Ay2 Ay3 Ex2",
        [
            Constraint(r1, ("y1", "x1")),
            Constraint(r2, ("y2", "x2")),
            Constraint(r3, ("y2", "x2", "y3")),
        ],
    )


class TestInstantiate:
    def test_third_collapsing_shape(self):
        phi = example_formula()
        sub = instantiate_universals(phi, {"y1": 1, "y2": 1})
        assert [f"{q[0]}{v}" for q, v in sub.prefix] == ["ex1", "fy3", "ex2"]
        assert sub.body[0].args == (1, "x1")
        assert sub.body[1].args == (1, "x2")
        assert sub.body[2].args == (1, "x2", "y3")

    def test_empty_substitution(self):
        phi = example_formula()
        assert instantiate_universals(phi, {}) == phi

    def test_all_universals(self):
        phi = example_formula()
        sub = instantiate_universals(phi, {"y1": 0, "y2": 0, "y3": 1})
        assert sub.universal_vars == ()

    def test_non_universal_key_rejected(self):
        with pytest.raises(StructuralError):
            instantiate_universals(example_formula(), {"x1": 0})


class TestEnumerate:
    def test_example_has_four_collapsings(self):
        cols = enumerate_collapsings(example_formula(), 1, 1)
        assert len(cols) == 4
        assert [c.kept_universals for c in cols] == [(), ("y1",), ("y2",), ("y3",)]

    def test_no_universals_means_identity(self):
        phi = formula(2, "Ex", [Constraint(eq_rel(), ("x", "x"))])
        cols = enumerate_collapsings(phi, 1, 0)
        assert len(cols) == 1
        assert cols[0].result == phi

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_width_one_count(self, n):
        body = [Constraint(eq_rel(), (f"y{i}", f"y{i}")) for i in range(n)]
        phi = formula(2, " ".join(f"Ay{i}" for i in range(n)), body)
        assert len(enumerate_collapsings(phi, 1, 0)) == n + 1

    def test_j_collapsings_dedupe(self):
        phi = example_formula()
        cols = enumerate_j_collapsings(phi, 1)
        # independent count: distinct serialized results over both constants
        seen = set()
        for a in (0, 1):
            for c in enumerate_collapsings(phi, 1, a):
                seen.add(c.result)
        assert len(cols) == len(seen) == 8

    def test_j_zero_over_domain(self):
        phi = example_formula()
        cols = enumerate_j_collapsings(phi, 0)
        assert len(cols) <= 2
        assert all(c.result.universal_vars == () for c in cols)

    def test_no_universals_j_collapsing(self):
        phi = formula(2, "Ex", [Constraint(eq_rel(), ("x", "x"))])
        assert len(enumerate_j_collapsings(phi, 1)) == 1


def encode(phi):
    """The CSP of `phi` itself: the collapsing that keeps every universal."""
    return collapsing_to_csp(Collapsing(phi, phi.universal_vars, 0))


class TestEncoding:
    def test_spec_shape(self):
        phi = formula(2, "Ay Ex", [Constraint(eq_rel(), ("y", "x"))])
        csp = encode(phi)
        assert (csp.domain_size, csp.variable_count) == (2, 2)
        assert csp_variable_names(Collapsing(phi, phi.universal_vars, 0)) == ["x@y=0", "x@y=1"]
        rendered = {(relation.name, args) for relation, args in csp.constraints}
        assert rendered == {("Eq", (~0, 0)), ("Eq", (~1, 1))}

    def test_existential_only_renames(self):
        phi = formula(2, "Ex Ez", [Constraint(eq_rel(), ("x", "z"))])
        csp = encode(phi)
        assert csp_variable_names(Collapsing(phi, (), 0)) == ["x@", "z@"]
        assert [args for _, args in csp.constraints] == [(0, 1)]

    def test_constants_pass_through(self):
        phi = formula(2, "Ex", [Constraint(eq_rel(), ("x", 1))])
        assert [args for _, args in encode(phi).constraints] == [(0, ~1)]

    def test_instantiated_universals_become_constants(self):
        phi = formula(2, "Ay1 Ex Ay2 Ez", [Constraint(eq_rel(), ("y1", "x")),
                                          Constraint(eq_rel(), ("y2", "z"))])
        col = Collapsing(phi, ("y2",), 1)
        csp = collapsing_to_csp(col)
        assert csp_variable_names(col) == ["x@", "z@y2=0", "z@y2=1"]
        # the constraint no kept universal changes comes first, once
        assert [args for _, args in csp.constraints] == [(~1, 0), (~0, 1), (~1, 2)]

    def test_encoding_matches_game_oracle(self):
        # random collapsings with at most 2 universals over domains <= 3
        checked = 0
        spec2 = CorpusSpec(seed=19, count=200, max_vars=5, max_universals=2)
        spec3 = CorpusSpec(seed=23, count=120, max_vars=4, max_universals=2, domain_size=3)
        for language, phi in itertools.chain(instances(spec2), instances(spec3)):
            truth = evaluate_truth(phi)
            encoded = solve_csp(encode(phi)) is not None
            assert encoded == truth, serialize_instance(language, phi)
            checked += 1
        assert checked >= 200


class TestCombine:
    def sat(self):
        return encode(formula(2, "Ex", [Constraint(eq_rel(), ("x", 0))]))

    def unsat(self):
        empty = rel("Never", 1, 2, [])
        return encode(formula(2, "Ex Ez", [Constraint(empty, ("z",))]))

    def test_single(self):
        combined = combine_csp([self.sat()], 2)
        assert combined == self.sat()
        assert solve_csp(combined) == [0]

    def test_sat_plus_unsat(self):
        combined = combine_csp([self.sat(), self.unsat()], 2)
        # the second member's variables follow the first's
        assert combined.variable_count == 3
        assert [args for _, args in combined.constraints] == [(0, ~0), (2,)]
        assert solve_csp(combined) is None

    def test_empty_list(self):
        combined = combine_csp([], 2)
        assert (combined.variable_count, list(combined.constraints)) == (0, [])
        assert solve_csp(combined) == []

    def test_domain_mismatch(self):
        other = encode(formula(3, "Ex", [Constraint(eq_rel(3), ("x", "x"))]))
        with pytest.raises(StructuralError):
            combine_csp([self.sat(), other], 2)


def closed_corpus(seed, op, domain_size=2, count=60):
    spec = CorpusSpec(
        seed=seed, count=count, domain_size=domain_size,
        max_vars=6, max_universals=3, closure_ops=(op,),
    )
    return instances(spec)


class TestPipeline:
    def test_and_closed_agreement(self):
        for _, phi in closed_corpus(29, and_op()):
            assert conjunction_verdict(relevant_collapsings(phi, 1, {1})) == evaluate_truth(phi)

    def test_minority_closed_agreement(self):
        for _, phi in closed_corpus(31, minority_op()):
            assert conjunction_verdict(relevant_collapsings(phi, 1, {0})) == evaluate_truth(phi)

    def test_majority_closed_agreement(self):
        for _, phi in closed_corpus(37, majority_op()):
            assert conjunction_verdict(relevant_collapsings(phi, 1, None)) == evaluate_truth(phi)

    def test_width_cap(self):
        phi = formula(2, "Ex", [Constraint(eq_rel(), ("x", "x"))])
        assert conjunction_verdict(relevant_collapsings(phi, 4, None))

    def test_truth_implies_collapsings_true(self):
        for _, phi in instances(CorpusSpec(seed=41, count=60, max_vars=5, max_universals=3)):
            if evaluate_truth(phi):
                for col in enumerate_j_collapsings(phi, 1):
                    assert evaluate_truth(col.result)

    def test_collapsing_truth_matches_winnability(self):
        # the (j, a)-collapsings are true exactly when the width-j single-source
        # adversary family is winnable
        for _, phi in instances(CorpusSpec(seed=43, count=50, max_vars=5, max_universals=3)):
            n = len(phi.universal_vars)
            for a in range(phi.domain.size):
                cols_true = all(
                    evaluate_truth(c.result) for c in enumerate_collapsings(phi, 1, a)
                )
                family = adv_family(max(n, 1), (a,), 1, range(phi.domain.size))
                advs_win = all(
                    reference_game(phi, member)
                    for member in family.members()
                ) if n else evaluate_truth(instantiate_universals(phi, {}))
                if n:
                    assert cols_true == advs_win


def source_choices(d: int):
    """None (every element) and every nonempty subset of the domain."""
    yield None
    for size in range(1, d + 1):
        yield from (set(c) for c in itertools.combinations(range(d), size))


def distinct_by_result(phi, j, constants):
    """The relevant collapsings deduplicated by building every collapsed
    formula, the first of equal ones kept."""
    seen = {}
    for a in constants:
        for col in enumerate_collapsings(phi, j, a):
            seen.setdefault(col.result, col)
    return list(seen.values())


class TestVerdicts:
    """`collapse_verdicts` decides each collapsing on integer variable
    indices."""

    def corpus(self):
        spec2 = CorpusSpec(seed=59, count=70, max_vars=5, max_universals=3)
        spec3 = CorpusSpec(seed=61, count=30, max_vars=4, max_universals=2, domain_size=3)
        return itertools.chain(instances(spec2), instances(spec3))

    def test_agree_with_game_oracle_for_every_source_and_width(self):
        verdicts = {True: 0, False: 0}
        for language, phi in self.corpus():
            d = phi.domain.size
            for j in (0, 1, 2):
                for source in source_choices(d):
                    rows = collapse_verdicts(phi, j, source)
                    constants = range(d) if source is None else sorted(source)
                    expected = distinct_by_result(phi, j, constants)
                    assert [col for col, _ in rows] == expected
                    for col, ok in rows:
                        assert ok == evaluate_truth(col.result), serialize_instance(language, phi)
                        verdicts[ok] += 1
        assert min(verdicts.values()) > 200, verdicts

    def test_result_is_built_on_demand(self):
        phi = example_formula()
        col = enumerate_collapsings(phi, 1, 1)[1]
        assert "result" not in vars(col)
        assert col.result == instantiate_universals(phi, {"y2": 1, "y3": 1})

    def test_out_of_range_constant(self):
        with pytest.raises(StructuralError):
            enumerate_collapsings(example_formula(), 1, 2)


def wide_star(n: int):
    """forall y1..yn exists x: R(y1, x) & ... & R(yn, x)."""
    body = [Constraint(eq_rel(), (f"y{i}", "x")) for i in range(1, n + 1)]
    return formula(2, " ".join(f"Ay{i}" for i in range(1, n + 1)) + " Ex", body)


class TestEncodingGuardrail:
    def test_size_is_the_emitted_constraint_count(self):
        def emitted(phi, j, source):
            return sum(
                len(collapsing_to_csp(c).constraints)
                for c in relevant_collapsings(phi, j, source)
            )

        phi = example_formula()
        for j in (0, 1, 2, 3):
            for a in (0, 1):
                assert encoding_size(phi, j, 1) >= emitted(phi, j, {a})
        # every constraint reads x, which follows every kept universal, and
        # no two constraints are equal: the bound is met
        le = rel("Le", 2, 2, [(0, 0), (0, 1), (1, 1)])
        phi = formula(2, "Ay1 Ay2 Ex", [
            Constraint(eq_rel(), ("y1", "x")), Constraint(le, ("y2", "x")),
        ])
        for j in (0, 1, 2):
            for a in (0, 1):
                assert encoding_size(phi, j, 1) == emitted(phi, j, {a})

    def test_total_over_collapsings_is_refused_before_enumerating(self):
        phi = wide_star(20)
        assert encoding_size(phi, 10, 2) > 10_000_000
        with pytest.raises(GuardrailError, match="would emit"):
            collapse_verdicts(phi, 10, None)
        with pytest.raises(GuardrailError, match="would emit"):
            relevant_collapsings(phi, 10, {1})

    def test_cap_is_exact(self, monkeypatch):
        phi = example_formula()
        size = encoding_size(phi, 1, 2)
        monkeypatch.setattr("qcollapse.collapse.ENCODING_CAP", size)
        assert len(collapse_verdicts(phi, 1, None)) == 8
        monkeypatch.setattr("qcollapse.collapse.ENCODING_CAP", size - 1)
        with pytest.raises(GuardrailError):
            collapse_verdicts(phi, 1, None)
