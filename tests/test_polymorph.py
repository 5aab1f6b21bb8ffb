import itertools
import random
import sys

import pytest

from conftest import (
    affine_rel,
    brute_force_discovery,
    brute_force_tables,
    dispatch_algebras,
    eq_rel,
    impl_rel,
    nae_rel,
    random_language,
    reference_term_operations,
    rel,
)
from qcollapse import polymorph
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.model import Algebra, Constraint, ConstraintLanguage, Domain, Operation
from qcollapse.ops import (
    and_op,
    dual_discriminator,
    majority_op,
    minority_op,
    or_op,
    projection_op,
    semilattice_to_shared,
)
from qcollapse.polymorph import (
    IDENTITIES,
    close_relation_under,
    close_vectors,
    compose,
    discover_polymorphisms,
    generate_term_operations,
    identity_cells,
    is_polymorphism,
    is_polymorphism_of_language,
    op_image,
    parse_trace,
    polymorphism_failure,
    polymorphism_tables,
    polymorphisms_by_arity,
    relation_cells,
    replay_trace,
    tag_operation,
    trace_to_str,
)


def _naive_clone(alg: Algebra, m: int) -> set:
    """Tables of the arity-m term operations: projections and generators of
    arity m, closed by applying every generator to every combination."""
    d = alg.domain.size
    tables = {projection_op(d, m, i).table for i in range(1, m + 1)}
    tables |= {g.table for g in alg.generators if g.arity == m}
    while True:
        ops = [Operation("t", m, d, t) for t in tables]
        grown = tables | {
            compose(g, combo).table
            for g in alg.generators
            for combo in itertools.product(ops, repeat=g.arity)
        }
        if grown == tables:
            return tables
        tables = grown


def _naive_vector_closure(ops, seeds) -> set:
    vectors = set(seeds)
    while True:
        grown = vectors | {
            tuple(op(*column) for column in zip(*args))
            for op in ops
            for args in itertools.product(vectors, repeat=op.arity)
        }
        if grown == vectors:
            return vectors
        vectors = grown


def _naive_relation_closure(rel, op):
    return _naive_vector_closure([op], rel.tuples)


class TestIsPolymorphism:
    def test_equality_preserved_by_anything(self):
        for op in (and_op(), or_op(), majority_op(), minority_op()):
            assert is_polymorphism(op, eq_rel())

    def test_and_breaks_nae(self):
        failure = polymorphism_failure(and_op(), nae_rel())
        assert failure is not None
        rows, image = failure
        assert image in {(0, 0, 0), (1, 1, 1)}
        assert all(r in nae_rel().tuples for r in rows)

    def test_or_preserves_clause(self):
        clause = rel("C", 2, 2, [(0, 1), (1, 0), (1, 1)])
        assert is_polymorphism(or_op(), clause)

    def test_language_level(self):
        empty = ConstraintLanguage(Domain(2), ())
        assert is_polymorphism_of_language(and_op(), empty)
        assert is_polymorphism_of_language(and_op(), ConstraintLanguage(Domain(2), (eq_rel(),)))
        assert not is_polymorphism_of_language(
            and_op(), ConstraintLanguage(Domain(2), (nae_rel(),))
        )

    def test_domain_mismatch(self):
        with pytest.raises(StructuralError):
            is_polymorphism(and_op(), eq_rel(3))

    def test_guardrail(self, monkeypatch):
        big = rel("Big", 1, 2, [(0,), (1,)])
        monkeypatch.setattr("qcollapse.polymorph.CHECK_CAP", 7)
        with pytest.raises(GuardrailError):
            is_polymorphism(majority_op(), big)


def _product_order_failure(op: Operation, relation):
    """The first (rows, image) with image outside the relation, over every
    choice of rows in `itertools.product` order of the sorted rows, and the
    choice's position in that order; None when the operation preserves it."""
    rows = sorted(relation.tuples)
    for position, choice in enumerate(itertools.product(rows, repeat=op.arity)):
        image = tuple(op(*(t[col] for t in choice)) for col in range(relation.arity))
        if image not in relation.tuples:
            return (choice, image), position
    return None


def _symmetric_operation(rng: random.Random, d: int, arity: int) -> Operation:
    """A seeded table whose value depends only on the multiset of arguments,
    idempotent or not."""
    values = {}
    table = []
    for args in itertools.product(range(d), repeat=arity):
        key = tuple(sorted(args))
        table.append(values.setdefault(key, rng.randrange(d)))
    return Operation("s", arity, d, tuple(table))


def _seeded_relation(rng: random.Random, d: int, op: Operation):
    """A random relation; or its closure under `op`, preserved; or that
    closure less one tuple, whose first failure may come late."""
    arity = rng.randint(1, 3)
    cells = list(itertools.product(range(d), repeat=arity))
    base = rel("R", arity, d, rng.sample(cells, rng.randint(1, len(cells))))
    shape = rng.randrange(3)
    if shape == 0:
        return base
    closed = close_relation_under(base, op)
    if shape == 1 or len(closed.tuples) == 1:
        return closed
    dropped = rng.choice(sorted(closed.tuples))
    return rel("R", arity, d, closed.tuples - {dropped})


class TestSymmetricWalk:
    def test_symmetric_means_unchanged_by_every_permutation(self):
        rng = random.Random(25)
        ops = [and_op(), or_op(), majority_op(), minority_op(), dual_discriminator(3)]
        ops += [semilattice_to_shared(3, m) for m in range(3)]
        for d in (2, 3):
            for arity in (1, 2, 3):
                for _ in range(40):
                    ops.append(_symmetric_operation(rng, d, arity))
                    cells = rng.choices(range(d), k=d**arity)
                    ops.append(Operation("r", arity, d, tuple(cells)))
        flags = set()
        for op in ops:
            expected = all(
                op(*args) == op(*perm)
                for args in op.inputs()
                for perm in itertools.permutations(args)
            )
            assert op.symmetric == expected, op.table
            flags.add(expected)
        assert flags == {True, False}
        assert [op.symmetric for op in ops[:8]] == [True] * 4 + [False] + [True] * 3

    def test_symmetric_flag_is_not_part_of_the_value(self):
        op = majority_op()
        assert op.symmetric
        twin = majority_op()
        assert op == twin and hash(op) == hash(twin) and repr(op) == repr(twin)

    def test_witness_is_the_first_in_product_order(self):
        rng = random.Random(7)
        seen = {"symmetric": 0, "non_idempotent": 0, "preserved": 0, "first": 0, "late": 0}
        for d in (2, 3):
            for arity in (1, 2, 3):
                for k in range(60):
                    if k % 2:
                        op = _symmetric_operation(rng, d, arity)
                    else:
                        op = Operation("r", arity, d, tuple(rng.choices(range(d), k=d**arity)))
                    relation = _seeded_relation(rng, d, op)
                    reference = _product_order_failure(op, relation)
                    got = polymorphism_failure(op, relation)
                    assert got == (reference and reference[0]), (op.table, relation.tuples)
                    if not op.symmetric:
                        continue
                    seen["symmetric"] += 1
                    seen["non_idempotent"] += not op.is_idempotent()
                    if reference is None:
                        seen["preserved"] += 1
                        continue
                    _, position = reference
                    seen["first"] += position == 0
                    seen["late"] += 2 * position >= len(relation.tuples) ** arity
        assert seen["symmetric"] >= 180 and seen["non_idempotent"] >= 100, seen
        assert min(seen["preserved"], seen["first"], seen["late"]) >= 10, seen

    def test_size_guard_counts_every_row_choice(self, monkeypatch):
        # the symmetric walk takes 4 of the 8 choices, and is refused at the
        # same size with the same message
        both = rel("R", 1, 2, [(0,), (1,)])
        monkeypatch.setattr(polymorph, "CHECK_CAP", 7)
        for op in (majority_op(), projection_op(2, 3, 1)):
            with pytest.raises(GuardrailError, match=r"^2\^3 tuple combinations exceed the cap of 7$"):
                polymorphism_failure(op, both)


class TestTags:
    def test_minority_is_maltsev(self):
        assert tag_operation(minority_op()).maltsev

    def test_majority_is_dual_discriminator_on_two_elements(self):
        tags = tag_operation(majority_op())
        assert tags.dual_discriminator
        assert tags.near_unanimity

    def test_and_semilattice_unit_one(self):
        tags = tag_operation(and_op())
        assert tags.semilattice and tags.unit_element == 1

    def test_or_semilattice_unit_zero(self):
        tags = tag_operation(or_op())
        assert tags.semilattice and tags.unit_element == 0

    def test_shared_semilattice_has_no_unit(self):
        tags = tag_operation(semilattice_to_shared(3, 2))
        assert tags.semilattice and tags.unit_element is None

    def test_every_dual_discriminator_is_near_unanimity(self):
        for size in (2, 3, 4):
            tags = tag_operation(dual_discriminator(size))
            assert tags.dual_discriminator and tags.near_unanimity

    def test_projection_tag(self):
        assert tag_operation(projection_op(3, 2, 1)).projection
        assert not tag_operation(and_op()).projection

    def test_projection_tag_matches_the_projection_tables(self):
        # every binary operation on two elements, and each ternary projection
        # on three elements with one cell changed
        cases = [Operation("b", 2, 2, t) for t in itertools.product(range(2), repeat=4)]
        for i in (1, 2, 3):
            table = list(projection_op(3, 3, i).table)
            for cell in (0, 5, 26):
                changed = table.copy()
                changed[cell] = (changed[cell] + 1) % 3
                cases += [Operation("p", 3, 3, tuple(table)), Operation("q", 3, 3, tuple(changed))]
        for op in cases:
            projections = {
                projection_op(op.domain_size, op.arity, i).table for i in range(1, op.arity + 1)
            }
            assert tag_operation(op).projection == (op.table in projections), op.table


def _loop_tags(op: Operation) -> dict:
    """The identity tags computed by loops over argument tuples, as before
    the cell tables: the reference the tables are checked against."""
    d, k = op.domain_size, op.arity

    def f(*args):
        return op.table[op.index(args)]

    pairs = list(itertools.product(range(d), repeat=2))
    maltsev = majority = minority = dualdisc = False
    if k == 3:
        maltsev = all(f(x, x, y) == y and f(y, x, x) == y for x, y in pairs)
        majority = all(f(x, x, y) == x and f(x, y, x) == x and f(y, x, x) == x for x, y in pairs)
        minority = all(f(x, x, y) == y and f(x, y, x) == y and f(y, x, x) == y for x, y in pairs)
        dualdisc = all(
            f(x, y, z) == (x if x == y else z)
            for x, y, z in itertools.product(range(d), repeat=3)
        )
    near_unanimity = k >= 3
    for (x, y), pos in itertools.product(pairs, range(k)):
        args = [x] * k
        args[pos] = y
        near_unanimity = near_unanimity and f(*args) == x
    unit = None
    if k == 2:
        unit = next((u for u in range(d) if all(f(u, a) == a == f(a, u) for a in range(d))), None)
    return {
        "maltsev": maltsev, "majority": majority, "minority": minority,
        "dual_discriminator": dualdisc, "near_unanimity": near_unanimity, "unit_element": unit,
    }


def _table_tags(op: Operation) -> dict:
    tags = tag_operation(op)
    return {name: getattr(tags, name) for name in _loop_tags(op)}


# identities planted into seeded tables, as a rule on the argument tuple
# that gives the required value or None for a free cell
_PLANTS = {
    "maltsev": lambda a: a[2] if a[0] == a[1] else a[0] if a[1] == a[2] else None,
    "minority": lambda a: a[2] if a[0] == a[1] else a[1] if a[0] == a[2] else (
        a[0] if a[1] == a[2] else None
    ),
    "dual_discriminator": lambda a: a[0] if a[0] == a[1] else a[2],
    "near_unanimity": lambda a: next((v for v in a if a.count(v) >= len(a) - 1), None),
}


class TestIdentityCells:
    def _positives(self, ops) -> dict:
        seen: dict = {}
        for op in ops:
            got = _table_tags(op)
            assert got == _loop_tags(op), (op.arity, op.domain_size, op.table)
            for name, value in got.items():
                seen[name] = seen.get(name, 0) + (value is not False and value is not None)
        return seen

    def test_matches_the_loops_on_every_small_operation(self):
        # every operation of arity 1-3 on two elements and every binary one
        # on three elements
        ops = [
            Operation("f", k, 2, table)
            for k in (1, 2, 3)
            for table in itertools.product(range(2), repeat=2**k)
        ]
        ops += [Operation("b", 2, 3, table) for table in itertools.product(range(3), repeat=9)]
        seen = self._positives(ops)
        assert all(seen.values()), seen
        # a unit u fixes its row and column, so 2 cells on two elements and
        # 4 on three stay free; no operation has two units
        assert seen["unit_element"] == 2 * 2 + 3 * 3**4

    def test_matches_the_loops_on_seeded_operations(self):
        # arity 3 and 4 on two to four elements, a planted identity in two
        # thirds of them and one cell changed in half of those
        rng = random.Random(14)
        ops = []
        for i in range(10_000):
            d, k = rng.choice((2, 3, 4)), rng.choice((3, 4))
            table = [rng.randrange(d) for _ in range(d**k)]
            plants = [name for name in _PLANTS if k == 3 or name == "near_unanimity"]
            if i % 3:
                rule = _PLANTS[rng.choice(plants)]
                for idx, args in enumerate(itertools.product(range(d), repeat=k)):
                    value = rule(args)
                    table[idx] = table[idx] if value is None else value
                if rng.random() < 0.5:
                    cell = rng.randrange(d**k)
                    table[cell] = (table[cell] + 1) % d
            ops.append(Operation("s", k, d, tuple(table)))
        seen = self._positives(ops)
        assert all(seen[name] > 100 for name in _PLANTS), seen
        assert seen["majority"] > 100

    def test_cells_need_their_arity(self):
        assert identity_cells("maltsev", 3, 4) is None
        assert identity_cells("near_unanimity", 3, 2) is None
        assert identity_cells("unit", 3, 2, unit=3) is None
        assert identity_cells("unit", 2, 2, unit=1) == {(1, 0): 0, (0, 1): 0, (1, 1): 1}
        for name in IDENTITIES:
            assert identity_cells(name, 2, 2 if name == "unit" else 3), name
        with pytest.raises(StructuralError, match="unknown identity 'majority'"):
            identity_cells("majority", 2, 3)


class TestCompose:
    def test_identity_projection(self):
        land = and_op()
        assert compose(projection_op(2, 1, 1), [land]) == land

    def test_projections_recover_operation(self):
        land = and_op()
        assert compose(land, [projection_op(2, 2, 1), projection_op(2, 2, 2)]) == land

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            compose(and_op(), [projection_op(2, 2, 1)])

    def test_mixed_inner_arity(self):
        with pytest.raises(StructuralError):
            compose(and_op(), [projection_op(2, 2, 1), projection_op(2, 3, 1)])

    def test_shared_semilattice_from_restrictions(self):
        # rebuilding the collapsing semilattice out of operations that play
        # the two-element semilattice roles on each maximal subalgebra
        s = semilattice_to_shared(3, 2)
        p1, p2 = projection_op(3, 2, 1), projection_op(3, 2, 2)
        s_swapped = compose(s, [p2, p1])
        s_prime = compose(s, [s, s_swapped])  # s_b(s_a(x,y), s_a(y,x))
        r = s  # r(a, b) = c already holds for the collapsing semilattice
        s_double = compose(s_prime, [r, compose(r, [p2, p1])])
        assert s_double == s

    def test_op_image(self):
        s = semilattice_to_shared(3, 2)
        assert op_image(s, [{0, 2}, {1, 2}]) == frozenset({2})
        assert op_image(and_op(), [{1}, {0, 1}]) == frozenset({0, 1})


class TestTermGeneration:
    def test_projections_only(self):
        alg = Algebra(Domain(2), (projection_op(2, 2, 1),))
        terms = generate_term_operations(alg, 2)
        assert {(t.arity, t.table) for t in terms.operations} == {
            (1, (0, 1)), (2, (0, 0, 1, 1)), (2, (0, 1, 0, 1)),
        }
        assert not terms.truncated

    def test_contains_generators_and_projections(self):
        alg = Algebra(Domain(3), (semilattice_to_shared(3, 2),))
        terms = generate_term_operations(alg, 2)
        assert semilattice_to_shared(3, 2) in terms.operations
        assert projection_op(3, 2, 1) in terms.operations
        assert projection_op(3, 2, 2) in terms.operations

    def test_traces_replay(self, monkeypatch):
        alg = Algebra(Domain(3), (semilattice_to_shared(3, 2), dual_discriminator(3)))
        monkeypatch.setattr(polymorph, "TERM_COUNT_CAP", 60)
        terms = generate_term_operations(alg, 3)
        assert terms.truncated
        for op in terms.operations:
            assert replay_trace(alg, terms.traces[op]) == op

    def test_trace_text_roundtrip(self):
        alg = Algebra(Domain(3), (semilattice_to_shared(3, 2),))
        terms = generate_term_operations(alg, 3)
        for op in terms.operations:
            trace = terms.traces[op]
            assert parse_trace(trace_to_str(trace)) == trace

    @pytest.mark.parametrize("d, largest", [(1, 10_000_000), (2, 19), (3, 12)])
    def test_projection_cap_refuses_exactly_above_the_check_cap(self, monkeypatch, d, largest):
        # the largest arity k with k * d^k <= CHECK_CAP replays; one more is
        # refused before any table is built
        built = []
        monkeypatch.setattr(polymorph, "projection_op", lambda *args: built.append(args))
        alg = Algebra(Domain(d), ())
        replay_trace(alg, ("proj", largest, 1))
        assert built == [(d, largest, 1)]
        for k in (largest + 1, 10**8):
            with pytest.raises(GuardrailError, match=f"above the cap of {polymorph.CHECK_CAP}$"):
                replay_trace(alg, ("proj", k, 1))
        assert built == [(d, largest, 1)]

    def test_trace_nesting_bound(self):
        bound = sys.getrecursionlimit() // 4
        for depth in (bound, bound + 1):
            text = "(g0 " * depth + "p2.1" + " p2.2)" * depth
            if depth <= bound:
                trace = parse_trace(text)
                assert trace_to_str(trace) == text
                assert replay_trace(Algebra(Domain(2), (and_op(),)), trace) == and_op()
            else:
                with pytest.raises(StructuralError, match=f"deeper than {bound} compositions"):
                    parse_trace(text)

    def test_closure_is_composition_closed(self):
        # fixed-point audit: composing members with members stays inside
        for gens in ((and_op(),), (minority_op(),), (semilattice_to_shared(3, 2),)):
            alg = Algebra(Domain(gens[0].domain_size), gens)
            terms = generate_term_operations(alg, 2)
            assert not terms.truncated
            ops = set(terms.operations)
            for outer in terms.operations:
                inners_pool = [t for t in terms.operations if t.arity == 2]
                for combo in itertools.product(inners_pool, repeat=outer.arity):
                    assert compose(outer, combo) in ops

    def test_truncation_flag(self, monkeypatch):
        alg = Algebra(Domain(3), (dual_discriminator(3),))
        monkeypatch.setattr(polymorph, "TERM_COUNT_CAP", 5)
        terms = generate_term_operations(alg, 3)
        assert terms.truncated
        assert len(terms.operations) <= 5

    def test_matches_naive_closure(self):
        flip = Operation("nf", 1, 2, (1, 0))
        cases = (
            ((and_op(), minority_op()), 2),  # fills all idempotent binaries mid-round
            ((flip, and_op()), 2),  # not idempotent: fills all sixteen binaries
            ((majority_op(),), 3),
            ((semilattice_to_shared(3, 2), dual_discriminator(3)), 2),
        )
        for gens, m in cases:
            alg = Algebra(Domain(gens[0].domain_size), gens)
            terms = generate_term_operations(alg, m)
            assert not terms.truncated
            for k in range(1, m + 1):
                assert {op.table for op in terms.of_arity(k)} == _naive_clone(alg, k)
            for op in terms.operations:
                assert replay_trace(alg, terms.traces[op]) == op

    @pytest.mark.parametrize("count_cap", [1, 3, 7, 50, 2000])
    def test_matches_the_replaced_closure(self, monkeypatch, count_cap):
        rng = random.Random(1)
        three = []
        for i in range(6):
            table = tuple(
                x if i % 2 == 0 and x == y else rng.randrange(3)
                for x in range(3)
                for y in range(3)
            )
            three.append(Algebra(Domain(3), (Operation("f", 2, 3, table),)))
        cases = [(alg, k) for alg in dispatch_algebras() for k in (2, 3)]
        cases += [(alg, 3) for alg in three]
        monkeypatch.setattr(polymorph, "TERM_COUNT_CAP", count_cap)
        for alg, arity_cap in cases:
            got = generate_term_operations(alg, arity_cap)
            want = reference_term_operations(alg, arity_cap, count_cap)
            label = ([g.table for g in alg.generators], arity_cap)
            assert got.operations == want.operations, label
            assert [op.name for op in got.operations] == [op.name for op in want.operations]
            assert [got.traces[op] for op in got.operations] == [
                want.traces[op] for op in want.operations
            ], label
            assert got.truncated == want.truncated, label

    def test_fills_every_idempotent_ternary(self):
        alg = Algebra(Domain(2), (and_op(), minority_op()))
        terms = generate_term_operations(alg, 3)
        ternary = terms.of_arity(3)
        assert len({op.table for op in ternary}) == len(ternary) == 2**6
        assert all(op.is_idempotent() for op in ternary)
        for op in ternary:
            assert replay_trace(alg, terms.traces[op]) == op


class TestDiscovery:
    def test_equality_gives_all_idempotent_binaries(self):
        language = ConstraintLanguage(Domain(2), (eq_rel(),))
        ops = discover_polymorphisms(language)
        binaries = {op.table for op in ops if op.arity == 2}
        assert binaries == {
            (0, 0, 0, 1),  # and
            (0, 1, 1, 1),  # or
            (0, 0, 1, 1),  # first projection
            (0, 1, 0, 1),  # second projection
        }

    def test_nae_admits_only_projections(self):
        language = ConstraintLanguage(Domain(2), (nae_rel(),))
        ops = discover_polymorphisms(language)
        assert all(tag_operation(op).projection for op in ops)

    def test_implication_has_majority(self):
        language = ConstraintLanguage(Domain(2), (impl_rel(),))
        ops = discover_polymorphisms(language)
        assert any(tag_operation(op).majority for op in ops)

    def test_affine_has_minority(self):
        language = ConstraintLanguage(Domain(2), (affine_rel(),))
        ops = discover_polymorphisms(language)
        assert any(tag_operation(op).minority for op in ops)

    def test_guardrail_for_three_element_ternary(self):
        language = ConstraintLanguage(Domain(3), (eq_rel(3),))
        with pytest.raises(GuardrailError):
            discover_polymorphisms(language)

    def test_matches_brute_force_sweep(self, monkeypatch):
        rng = random.Random(4)
        seen = set()
        for _ in range(300):
            language = random_language(rng, rng.randint(1, 3))
            candidate_cap = rng.choice((5, 100, 100_000))
            check_cap = rng.choice((10**7, 10**7, 30))
            monkeypatch.setattr("qcollapse.polymorph.CANDIDATE_CAP", candidate_cap)
            monkeypatch.setattr("qcollapse.polymorph.CHECK_CAP", check_cap)
            try:
                expected = [
                    op
                    for ops in brute_force_discovery(language, 3, candidate_cap)
                    for op in ops
                ]
            except GuardrailError as err:
                with pytest.raises(GuardrailError) as raised:
                    discover_polymorphisms(language)
                assert str(raised.value) == str(err)
                if "candidates" in str(err):
                    seen.add(("candidate cap", str(err).split("arity-")[1][0]))
                else:
                    k = int(str(err).split("^")[1].split()[0])
                    first = next(
                        i for i, r in enumerate(language.relations)
                        if len(r.tuples) ** k > check_cap
                    )
                    seen.add(("check cap", "later relation" if first else "first relation"))
                continue
            ops = discover_polymorphisms(language)
            assert [(op.name, op.table) for op in ops] == [
                (op.name, op.table) for op in expected
            ]
            seen.add(("swept", "3"))
        assert {
            ("candidate cap", "2"),
            ("candidate cap", "3"),
            ("check cap", "later relation"),
            ("swept", "3"),
        } <= seen

    def test_sweep_matches_brute_force_with_forced_cells(self):
        # random forced cells make branches fail far from their cause, so the
        # sweep backjumps; it must still yield every table, in product order
        rng = random.Random(5)
        counts = set()
        for _ in range(150):
            d, k, most_free = rng.choice(((2, 3, 8), (2, 4, 10), (3, 2, 6)))
            language = random_language(rng, d)
            cells = list(itertools.product(range(d), repeat=k))
            kept = rng.randint(len(cells) - most_free, len(cells))
            forced = {c: rng.randrange(d) for c in rng.sample(cells, kept)}
            got = list(polymorphism_tables(language, k, forced))
            assert got == list(brute_force_tables(language, k, forced))
            counts.add(min(len(got), 2))
        assert counts == {0, 1, 2}

    def test_full_relations_constrain_nothing(self, monkeypatch):
        # a relation holding every tuple is left out of the sweep's checks;
        # its row choices are still counted against the cap
        read = []
        monkeypatch.setattr(
            polymorph, "relation_cells",
            lambda relation, k: read.append(relation.name) or relation_cells(relation, k),
        )
        rng = random.Random(6)
        for _ in range(60):
            d, k = rng.choice(((2, 2), (2, 3), (3, 2)))
            language = random_language(rng, d)
            full = tuple(
                rel(f"Full{arity}", arity, d, itertools.product(range(d), repeat=arity))
                for arity in (1, 2, 3)
            )
            widened = ConstraintLanguage(language.domain, language.relations + full)
            cells = list(itertools.product(range(d), repeat=k))
            forced = {c: rng.randrange(d) for c in rng.sample(cells, rng.randint(0, d))}
            assert list(polymorphism_tables(widened, k, forced)) == list(
                polymorphism_tables(language, k, forced)
            )
        assert read and not any(name.startswith("Full") for name in read)
        full3 = rel("Full", 3, 3, itertools.product(range(3), repeat=3))
        monkeypatch.setattr(polymorph, "CHECK_CAP", 728)
        with pytest.raises(GuardrailError, match=r"27\^2 tuple combinations exceed the cap of 728"):
            next(polymorphism_tables(ConstraintLanguage(Domain(3), (full3,)), 2, {}))

    def test_grouped_by_arity(self):
        language = ConstraintLanguage(Domain(2), (impl_rel(),))
        groups = list(polymorphisms_by_arity(language))
        assert [{op.arity for op in ops} for ops in groups] == [{1}, {2}, {3}]
        assert tuple(op for ops in groups for op in ops) == discover_polymorphisms(language)

    def test_relation_cells_match_row_choices(self):
        relation = rel("R", 2, 3, [(0, 1), (1, 2), (2, 2)])
        for k in (1, 2, 3):
            expected = {
                tuple(
                    sum(t[j] * 3 ** (k - 1 - i) for i, t in enumerate(choice))
                    for j in range(2)
                )
                for choice in itertools.product(relation.sorted_tuples(), repeat=k)
            }
            assert relation_cells(relation, k) == expected

    def test_projections_are_always_polymorphisms(self):
        # exhaustive over arities <= 3 and a couple of domains
        for d, relation in ((2, nae_rel()), (3, eq_rel(3))):
            for arity in (1, 2, 3):
                for coord in range(1, arity + 1):
                    assert is_polymorphism(projection_op(d, arity, coord), relation)


class TestApplyPointwise:
    """A polymorphism applied coordinate-wise to satisfying assignments."""

    def test_polymorphism_preserves_satisfaction(self):
        # constant-containing constraints included
        constraints = (
            Constraint(impl_rel(), ("x", "y")),
            Constraint(impl_rel(), (0, "x")),
            Constraint(impl_rel(), ("y", 1)),
        )
        satisfying = [
            {"x": a, "y": b}
            for a in range(2)
            for b in range(2)
            if all(c.holds({"x": a, "y": b}) for c in constraints)
        ]
        maj = majority_op()
        for combo in itertools.product(satisfying, repeat=3):
            image = {v: maj(*(g[v] for g in combo)) for v in combo[0]}
            assert all(c.holds(image) for c in constraints)


class TestClosure:
    def test_kernel_provenance_and_cap(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.choice((2, 3))
            m = rng.randint(1, 4)
            ops = [
                Operation(f"g{i}", k, d, tuple(rng.randrange(d) for _ in range(d**k)))
                for i, k in enumerate(rng.choices((1, 2, 3), k=rng.randint(1, 2)))
            ]
            seeds = [tuple(rng.randrange(d) for _ in range(m)) for _ in range(rng.randint(1, 3))]
            full = close_vectors(ops, seeds, d**m)
            assert not full.truncated
            assert set(full.vectors) == _naive_vector_closure(ops, seeds)
            position = {v: i for i, v in enumerate(full.vectors)}
            for v in full.vectors:
                made = full.provenance[v]
                if made is None:
                    assert v in seeds
                    continue
                i, args = made
                assert all(position[a] < position[v] for a in args)
                assert v == tuple(ops[i](*column) for column in zip(*args))
            cap = rng.randint(0, len(full.vectors) + 1)
            capped = close_vectors(ops, seeds, d**m, cap)
            assert capped.vectors == full.vectors[:cap]
            assert capped.truncated == (cap < len(full.vectors))
            # a stop vector ends the closure where it is found, but after the
            # seeds, with the same provenance; one outside it changes nothing
            stop = rng.choice(full.vectors)
            stopped = close_vectors(ops, seeds, d**m, stop=stop)
            end = max(position[stop] + 1, len(set(seeds)))
            assert stopped.vectors == full.vectors[:end]
            assert stopped.provenance == {v: full.provenance[v] for v in stopped.vectors}
            assert not stopped.truncated
            assert close_vectors(ops, seeds, d**m, stop=(d,) * m) == full

    def test_close_relation_under(self):
        base = rel("R", 2, 2, [(0, 1), (1, 0)])
        closed = close_relation_under(base, and_op())
        assert (0, 0) in closed.tuples
        assert is_polymorphism(and_op(), closed)

    def test_already_closed(self):
        assert close_relation_under(eq_rel(), and_op()).tuples == eq_rel().tuples

    def test_matches_naive_fixed_point(self):
        rng = random.Random(2024)
        for _ in range(60):
            d = rng.choice((2, 3))
            k = rng.randint(1, 3)
            table = tuple(rng.randrange(d) for _ in range(d**k))
            op = Operation("f", k, d, table)
            arity = rng.randint(1, 3)
            rows = list(itertools.product(range(d), repeat=arity))
            base = rel("R", arity, d, rng.sample(rows, rng.randint(1, min(4, len(rows)))))
            closed = close_relation_under(base, op)
            assert closed.tuples == _naive_relation_closure(base, op)
            assert (closed.name, closed.arity) == (base.name, base.arity)
