import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eq_rel, formula, nae_rel, rel
from qcollapse.errors import ParseError, StructuralError
from qcollapse.model import (
    Constraint,
    Domain,
    Operation,
    Relation,
    parse_document,
    serialize_document,
    serialize_instance,
    validate,
)
from qcollapse.ops import and_op, semilattice_to_shared

EXAMPLE_INSTANCE = """\
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


class TestDomain:
    def test_default_names(self):
        d = Domain(3)
        assert d.names == ("0", "1", "2")
        assert d.index_of("2") == 2

    def test_named(self):
        d = Domain(2, ("a", "b"))
        assert d.name_of(1) == "b"

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_must_be_positive(self, size):
        with pytest.raises(StructuralError):
            Domain(size)

    def test_duplicate_names_rejected(self):
        with pytest.raises(StructuralError):
            Domain(2, ("a", "a"))


class TestRelationAndOperation:
    def test_relation_arity_checked(self):
        with pytest.raises(StructuralError):
            rel("R", 2, 2, [(0, 1, 0)])

    def test_relation_range_checked(self):
        with pytest.raises(StructuralError):
            rel("R", 1, 2, [(5,)])

    def test_nullary_rejected(self):
        with pytest.raises(StructuralError):
            Relation("R", 0, 2, frozenset())
        with pytest.raises(StructuralError):
            Operation("f", 0, 2, ())

    def test_operation_table_total(self):
        with pytest.raises(StructuralError):
            Operation("f", 2, 2, (0, 1, 1))  # one entry short

    def test_apply_and_idempotence(self):
        land = and_op()
        assert land(1, 1) == 1
        assert land.is_idempotent()

    def test_apply_shared_semilattice(self):
        # a=0, b=1, c=2: unequal arguments collapse to the shared element
        s = semilattice_to_shared(3, 2)
        assert s(0, 1) == 2
        assert s(2, 2) == 2

    def test_apply_arity_mismatch(self):
        with pytest.raises(StructuralError):
            and_op()(1)

    def test_relation_contains(self):
        assert (0, 0) in eq_rel()
        assert (0, 1) not in eq_rel()
        assert (0, 0, 0) not in nae_rel()

    def test_names_are_labels_not_identity(self):
        assert rel("A", 2, 2, [(0, 0)]) == rel("B", 2, 2, [(0, 0)])
        assert Operation("f", 1, 2, (0, 1)) == Operation("g", 1, 2, (0, 1))

    def test_relation_hash_is_structural_and_kept(self):
        a, b = rel("A", 2, 2, [(0, 0), (1, 0)]), rel("B", 2, 2, [(1, 0), (0, 0)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert rel("A", 2, 3, [(0, 0), (1, 0)]) != a
        assert rel("A", 1, 2, [(0,), (1,)]) != rel("A", 2, 2, [(0, 0), (1, 1)])
        # the value the generated dataclass hash had, stored on the object
        assert hash(a) == hash((2, 2, frozenset({(0, 0), (1, 0)}))) == vars(a)["_hash"]


class TestValidate:
    def test_valid_formula(self):
        phi = formula(2, "Ay Ex", [Constraint(eq_rel(), ("y", "x"))])
        assert validate(phi) == []

    def test_duplicate_prefix_variable(self):
        phi = formula(2, "Ay Ey", [])
        problems = validate(phi)
        assert len(problems) == 1 and "y" in problems[0]

    def test_body_variable_missing(self):
        phi = formula(2, "Ay", [Constraint(eq_rel(), ("y", "z"))])
        problems = validate(phi)
        assert len(problems) == 1 and "z" in problems[0]

    def test_empty_body_is_fine(self):
        assert validate(formula(2, "Ay Ex", [])) == []


class TestParsing:
    def test_example_prefix_shape(self):
        doc = parse_document(EXAMPLE_INSTANCE)
        language, phi = doc.language, doc.formula
        assert len(phi.prefix) == 5
        assert [q for q, _ in phi.prefix] == [
            "forall", "exists", "forall", "forall", "exists",
        ]
        assert len(phi.body) == 3
        assert {r.name for r in language.relations} == {"R1", "R2", "R3"}

    def test_empty_body(self):
        phi = parse_document("domain 2 a b\nformula forall y :\n").formula
        assert phi.body == ()

    def test_constant_resolves_by_symbol_table(self):
        text = "domain 2 a b\nrelation R 1\n  a\nformula exists x : R(b)\n"
        phi = parse_document(text).formula
        assert phi.body[0].args == (1,)

    def test_duplicate_constraints_retained(self):
        text = "domain 2 a b\nrelation R 1\n  a\nformula exists x : R(x) & R(x)\n"
        phi = parse_document(text).formula
        assert len(phi.body) == 2
        assert phi.body[0] == phi.body[1]

    def test_repeated_vars_and_constants_allowed(self):
        text = "domain 2 a b\nrelation R 3\n  a a b\nformula exists x : R(x, x, b)\n"
        phi = parse_document(text).formula
        assert phi.body[0].args == ("x", "x", 1)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("relation R 2\n", "domain"),
            ("domain 2 a b\nformula exists x : Q(x)\n", "undeclared relation"),
            ("domain 2 a b\nrelation R 1\n  a\nformula exists x : R(x, x)\n", "arity"),
            ("domain 2 a b\nrelation R 1\n  a\nformula exists x : R(z)\n", "undeclared variable"),
            ("domain 2 a b\nrelation R 1\n  c\n", "unknown element"),
            ("domain 2 a b\nrelation R 1\n  a a\n", "row needs"),
            ("domain 2 a b\nformula forall y forall y :\n", "duplicate"),
            ("domain 2 a b\nformula forall a :\n", "shadows"),
            ("domain 2 a b\nop f 2\n  a a -> a\n", "rows given"),
        ],
    )
    def test_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("kind", ["relation", "op"])
    @pytest.mark.parametrize(
        "header, message",
        [
            ("{kind} R", "line 4: expected: {kind} NAME ARITY"),
            ("{kind} A 1", "line 4: duplicate {kind} 'A'"),
            ("{kind} R two", "line 4: bad arity 'two'"),
            ("{kind} R 0", "line 4: {kind} arity must be >= 1"),
        ],
        ids=["token-count", "duplicate-name", "bad-arity", "arity-below-1"],
    )
    def test_block_header_errors(self, kind, header, message):
        # a complete block named A, then the header under test
        row = {"relation": "a", "op": "a -> a"}[kind]
        text = f"domain 1 a\n{kind} A 1\n  {row}\n{header.format(kind=kind)}\n"
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert str(err.value) == message.format(kind=kind)

    def test_error_carries_line_number(self):
        bad = "domain 2 a b\nrelation R 1\n  a\nformula exists x : R(x, x)\n"
        with pytest.raises(ParseError) as err:
            parse_document(bad)
        assert err.value.line == 4

    def test_op_table_roundtrip(self):
        from qcollapse.model import Algebra

        alg = Algebra(Domain(3, ("a", "b", "c")), (semilattice_to_shared(3, 2, "s"),))
        text = serialize_document(alg.domain, (), alg.generators)
        parsed = parse_document(text).algebra
        assert parsed.generators == alg.generators

    def test_duplicate_op_row_rejected(self):
        text = "domain 2 a b\nop f 1\n  a -> a\n  a -> b\n  b -> b\n"
        with pytest.raises(ParseError):
            parse_document(text)


class TestParserRobustness:
    def test_garbage_lines_raise_parse_errors(self):
        import random

        rng = random.Random(77)
        alphabet = "ab ()&:,->#\n\t domainrelationopformulaforallexists0123"
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
            try:
                parse_document(text)
            except ParseError:
                pass  # the only acceptable failure mode

    def test_comment_and_whitespace_insensitivity(self):
        text = (
            "  domain   2   a  b   # trailing\n"
            "# full comment line\n"
            "relation R 2\n"
            "\ta   b\n"
            "formula   exists   x :   R( x ,b )\n"
        )
        phi = parse_document(text).formula
        assert phi.body[0].args == ("x", 1)


class TestRoundTrip:
    def test_example_round_trips(self):
        doc = parse_document(EXAMPLE_INSTANCE)
        language, phi = doc.language, doc.formula
        text = serialize_instance(language, phi)
        doc2 = parse_document(text)
        language2, phi2 = doc2.language, doc2.formula
        assert language2 == language
        assert phi2 == phi

    def test_parse_is_deterministic(self):
        first = parse_document(EXAMPLE_INSTANCE)
        second = parse_document(EXAMPLE_INSTANCE)
        assert (first.language, first.formula) == (second.language, second.formula)

    def test_corpus_round_trips(self):
        from qcollapse.corpus import CorpusSpec, instances

        for language, phi in instances(CorpusSpec(seed=7, count=25, max_vars=5)):
            text = serialize_instance(language, phi)
            doc = parse_document(text)
            assert (doc.language, doc.formula) == (language, phi)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=4),
    arity=st.integers(min_value=1, max_value=2),
    data=st.data(),
)
def test_idempotent_tag_means_fixed_diagonal(size, arity, data):
    table = []
    for args in Operation("p", arity, size, tuple([0] * size**arity)).inputs():
        table.append(data.draw(st.integers(min_value=0, max_value=size - 1)))
    op = Operation("f", arity, size, tuple(table))
    if op.is_idempotent():
        for a in range(size):
            assert op(*([a] * arity)) == a
