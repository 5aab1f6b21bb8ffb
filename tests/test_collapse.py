import itertools
import random
from operator import itemgetter
from pathlib import Path

import pytest

from conftest import eq_rel, formula, reference_game, rel
from qcollapse import model
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
from qcollapse.cspsolve import CspInstance, IndexedConstraint, solve_csp
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.game import evaluate_truth
from qcollapse.model import Constraint, Relation, parse_document, serialize_instance
from qcollapse.ops import and_op, majority_op, minority_op

LEDGER_INPUTS = Path(__file__).resolve().parent / "ledger" / "inputs"


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


def replaced_collapsing_to_csp(col: Collapsing) -> CspInstance:
    """The encoder as it was before the formula's body plan, verbatim: it
    rebuilt the argument slots of every constraint for each collapsing."""
    formula = col.origin
    d = formula.domain.size
    kept = col.kept_universals
    width = len(kept)
    universal = set(formula.universal_vars)
    # The body reads its arguments from `values`, refilled for each
    # assignment t (a mixed-radix number) of the kept universals: a kept
    # universal at position i reads digit i, an existential after m kept
    # universals reads base + the first m digits.
    values: list[int] = []
    slot: dict[str | int, int] = {}
    kept_digits: list[tuple[int, int]] = []  # (slot, divisor)
    existential_prefixes: list[tuple[int, int, int]] = []  # (slot, base, divisor)
    base = 0
    for x in formula.existential_vars:
        m = sum(u in kept for u in formula.universals_before[x])
        slot[x] = len(values)
        values.append(base)
        if m:
            existential_prefixes.append((slot[x], base, d ** (width - m)))
        base += d**m
    for i, u in enumerate(kept):
        slot[u] = len(values)
        values.append(0)
        kept_digits.append((slot[u], d ** (width - 1 - i)))
    dynamic = {s for s, *_ in kept_digits + existential_prefixes}
    # Each constraint is emitted once, at its first occurrence: `emitted`
    # maps (relation id, args) to the constraint, in insertion order. A body
    # constraint that reads no changing slot is the same for every
    # assignment, so it is instantiated once; so is a repeated one.
    emitted: dict[tuple[int, tuple[int, ...]], IndexedConstraint] = {}
    body: dict[tuple, None] = {}
    for c in formula.body:
        slots = []
        for a in c.args:
            if a in universal and a not in slot:
                a = col.constant
            if a not in slot:
                slot[a] = len(values)
                values.append(~a)
            slots.append(slot[a])
        if dynamic.isdisjoint(slots):
            args = tuple(values[s] for s in slots)
            emitted[id(c.relation), args] = (c.relation, args)
        else:
            body[c.relation, tuple(slots)] = None
    getters = [
        (relation, id(relation),
         itemgetter(*slots) if len(slots) > 1 else lambda vals, s=slots[0]: (vals[s],))
        for relation, slots in body
    ]
    for t in range(d**width):
        for s, divisor in kept_digits:
            values[s] = ~(t // divisor % d)
        for s, start, divisor in existential_prefixes:
            values[s] = start + t // divisor
        for relation, rid, get in getters:
            args = get(values)
            emitted[rid, args] = (relation, args)
    constraints = list(emitted.values())
    return CspInstance(d, base, constraints)


def replaced_csp_variable_names(col: Collapsing) -> list[str]:
    """The variable names as they were before the shared prefix walk, verbatim."""
    formula = col.origin
    kept = col.kept_universals
    names = []
    for x in formula.existential_vars:
        before = kept[: sum(u in kept for u in formula.universals_before[x])]
        for combo in itertools.product(range(formula.domain.size), repeat=len(before)):
            names.append(f"{x}@" + ",".join(f"{u}={v}" for u, v in zip(before, combo)))
    return names


def assert_encoded_as_before(col: Collapsing) -> None:
    """The same variables, names and constraints in the same order, each
    applying the same relation object."""
    got, expected = collapsing_to_csp(col), replaced_collapsing_to_csp(col)
    assert got == expected
    assert [(id(r), args) for r, args in got.constraints] == [
        (id(r), args) for r, args in expected.constraints
    ]
    assert csp_variable_names(col) == replaced_csp_variable_names(col)


def shaped_formula(rng: random.Random, d: int):
    """A seeded formula with up to four universals over d elements. Its body
    may repeat a constraint, apply a relation under a second name, read
    literal constants, and leave universals unread."""
    relations = [
        rel(f"R{i}", arity, d, [
            t for t in itertools.product(range(d), repeat=arity) if rng.random() < 0.6
        ])
        for i, arity in enumerate(rng.choices((1, 2, 3), k=3))
    ]
    relations.append(Relation("Alias", relations[0].arity, d, relations[0].tuples))
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    universals = rng.sample(names, min(len(names), rng.randint(0, 4)))
    prefix = " ".join(("A" if v in universals else "E") + v for v in names)
    body = []
    for _ in range(rng.randint(1, 6)):
        relation = rng.choice(relations)
        args = tuple(
            rng.randrange(d) if rng.random() < 0.25 else rng.choice(names)
            for _ in range(relation.arity)
        )
        body.append(Constraint(relation, args))
        if rng.random() < 0.3:
            body.append(rng.choice(body))
    return formula(d, prefix, body)


class TestEncoderMatchesTheReplacedOne:
    """`collapsing_to_csp` and `csp_variable_names` read the formula's body
    plan and one prefix walk; they give what the encoder they replaced gave."""

    def test_seeded_shapes_at_every_width_and_constant(self):
        rng = random.Random(2028)
        shapes = dict.fromkeys(
            ("repeated", "aliased", "constant", "unread universal", "d=3", "width 3"), 0
        )
        for i in range(400):
            d = 2 if i % 2 else 3
            phi = shaped_formula(rng, d)
            read = {a for c in phi.body for a in c.args}
            relations = [c.relation for c in phi.body]
            shapes["repeated"] += len(set(phi.body)) < len(phi.body)
            shapes["aliased"] += len(set(relations)) < len(set(map(id, relations)))
            shapes["constant"] += any(isinstance(a, int) for a in read)
            shapes["unread universal"] += not read.issuperset(phi.universal_vars)
            shapes["d=3"] += d == 3
            shapes["width 3"] += len(phi.universal_vars) >= 3
            for j in range(4):
                for a in range(d):
                    for col in enumerate_collapsings(phi, j, a):
                        assert_encoded_as_before(col)
        assert min(shapes.values()) >= 40, shapes

    def test_acceptance_corpora(self):
        for seed, op, width, source in (
            (101, and_op(), 1, {1}), (103, minority_op(), 1, {0}), (107, majority_op(), 1, None),
        ):
            spec = CorpusSpec(
                seed=seed, count=500, domain_size=2, max_vars=8, max_universals=4,
                max_constraints=4, closure_ops=(op,),
            )
            for _, phi in instances(spec):
                for col in relevant_collapsings(phi, width, source):
                    assert_encoded_as_before(col)
                    result = col.result
                    assert_encoded_as_before(Collapsing(result, result.universal_vars, 0))

    def test_ledger_formulas(self):
        formulas = [
            doc.formula
            for path in sorted(LEDGER_INPUTS.glob("*.txt"))
            if (doc := parse_document(path.read_text())).formula is not None
        ]
        assert len(formulas) >= 10
        for phi in formulas:
            for j in range(4):
                for a in range(phi.domain.size):
                    for col in enumerate_collapsings(phi, j, a):
                        assert_encoded_as_before(col)

    def test_the_plan_is_built_once_per_formula(self, monkeypatch):
        built = []
        original = model.BodyPlan

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(model, "BodyPlan", counted)
        phi = example_formula()
        collapsings = enumerate_j_collapsings(phi, 3)
        assert len(collapsings) == 15
        for col in collapsings:
            collapsing_to_csp(col)
        assert collapse_verdicts(phi, 3, None)
        assert len(built) == 1
