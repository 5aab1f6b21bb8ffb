import gc
import itertools
import random
import weakref

import pytest

from qcollapse.algebra import (
    Congruence,
    disjoint_maximal_congruence,
    enumerate_congruences,
    enumerate_factors,
    enumerate_subalgebras,
    generated_subalgebra,
    has_gset_factor,
    is_enclosed,
    is_fully_connected,
    is_gset,
    is_pair_minimal,
    is_strictly_simple,
    quotient,
    restrict,
)
from conftest import (
    all_partitions,
    brute_force_congruences,
    idempotent_binary_tables,
    random_algebra,
    reference_gset_factor,
    reference_pair_minimal,
)
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.model import Algebra, Domain, Operation
from qcollapse.ops import (
    and_op,
    dual_discriminator,
    from_function,
    projection_op,
    semilattice_to_shared,
)
from qcollapse.polymorph import generate_term_operations, op_image


def shared_algebra():
    return Algebra(Domain(3, ("a", "b", "c")), (semilattice_to_shared(3, 2, "s"),))


def and_algebra():
    return Algebra(Domain(2), (and_op(),))


def one_element_algebra():
    return Algebra(Domain(1), (projection_op(1, 1, 1),))


class TestGeneratedSubalgebra:
    def test_mixing_pair_generates_everything(self):
        assert generated_subalgebra(shared_algebra(), (0, 1)) == frozenset({0, 1, 2})

    def test_closed_pair_stays(self):
        assert generated_subalgebra(shared_algebra(), (0, 2)) == frozenset({0, 2})

    def test_singleton_under_idempotent(self):
        for seed in range(3):
            assert generated_subalgebra(shared_algebra(), (seed,)) == frozenset({seed})

    def test_empty_seed_rejected(self):
        with pytest.raises(StructuralError):
            generated_subalgebra(shared_algebra(), ())

    def test_matches_naive_fixed_point(self):
        rng = random.Random(11)
        for _ in range(80):
            d = rng.randint(2, 4)
            generators = tuple(
                Operation(f"g{i}", k, d, tuple(rng.randrange(d) for _ in range(d**k)))
                for i, k in enumerate(rng.choices((1, 2, 3), k=rng.randint(1, 3)))
            )
            alg = Algebra(Domain(d), generators)
            seed = rng.sample(range(d), rng.randint(1, d))
            closed = set(seed)
            while True:
                grown = closed | {
                    g(*args)
                    for g in generators
                    for args in itertools.product(closed, repeat=g.arity)
                }
                if grown == closed:
                    break
                closed = grown
            assert generated_subalgebra(alg, seed) == frozenset(closed)


class TestSubalgebras:
    def test_shared_semilattice_has_exactly_two_pairs(self):
        subs = enumerate_subalgebras(shared_algebra())
        pairs = {u for u in subs.universes() if len(u) == 2}
        assert pairs == {frozenset({0, 2}), frozenset({1, 2})}
        assert set(subs.maximal_proper()) == pairs

    def test_projection_generators_keep_all_subsets(self):
        alg = Algebra(Domain(2), (projection_op(2, 2, 1),))
        subs = enumerate_subalgebras(alg)
        assert len(subs.universes()) == 3  # {0}, {1}, {0,1}

    def test_conservative_algebra_keeps_all_subsets(self):
        # dual discriminator preserves every subset
        alg = Algebra(Domain(3), (dual_discriminator(3),))
        subs = enumerate_subalgebras(alg)
        assert len(subs.universes()) == 7

    def test_intersection_stability(self):
        for alg in (shared_algebra(), and_algebra(), Algebra(Domain(3), (dual_discriminator(3),))):
            universes = set(enumerate_subalgebras(alg).universes())
            for u, v in itertools.combinations(universes, 2):
                if u & v:
                    assert u & v in universes

    def test_guardrail(self):
        alg = Algebra(Domain(7), (projection_op(7, 1, 1),))
        with pytest.raises(GuardrailError):
            enumerate_subalgebras(alg)


class TestCongruences:
    def test_trivial_congruences_always_present(self):
        for alg in (shared_algebra(), and_algebra()):
            congs = enumerate_congruences(alg)
            sizes = {len(c.blocks) for c in congs}
            assert 1 in sizes and alg.domain.size in sizes

    def test_shared_semilattice_congruences(self):
        congs = enumerate_congruences(shared_algebra())
        blocksets = {tuple(sorted(tuple(sorted(b)) for b in c.blocks)) for c in congs}
        assert ((0, 2), (1,)) in blocksets
        assert ((0,), (1, 2)) in blocksets
        assert len(congs) == 4

    def test_blocks_are_subalgebras_when_idempotent(self):
        for alg in (shared_algebra(), and_algebra(), Algebra(Domain(3), (dual_discriminator(3),))):
            assert alg.is_idempotent()
            for cong in enumerate_congruences(alg):
                for block in cong.blocks:
                    closed = all(
                        op_image(g, [block] * g.arity) <= block for g in alg.generators
                    )
                    assert closed

    def test_congruence_validation(self):
        with pytest.raises(StructuralError):
            Congruence((frozenset({0, 1}), frozenset({1, 2})))

    def test_matches_brute_force(self):
        # every partition is either a congruence, with the quotient the
        # representatives give, or one that quotient refuses
        rng = random.Random(12)
        for d in (2, 3, 4):
            for idempotent in (True, False):
                for _ in range(15):
                    alg = random_algebra(rng, d, idempotent)
                    expected = brute_force_congruences(alg)
                    assert [c.blocks for c in enumerate_congruences(alg)] == expected
                    for blocks in all_partitions(d):
                        cong = Congruence(blocks)
                        if blocks not in expected:
                            with pytest.raises(StructuralError, match="not well-defined"):
                                quotient(alg, cong)
                            continue
                        q = quotient(alg, cong)
                        for g, qg in zip(alg.generators, q.generators):
                            assert qg.name == f"{g.name}~"
                            assert list(qg.table) == [
                                cong.block_of(g(*(min(blocks[c]) for c in combo)))
                                for combo in qg.inputs()
                            ]


class TestQuotients:
    def test_identity_congruence_copies(self):
        alg = shared_algebra()
        ident = Congruence(tuple(frozenset({v}) for v in range(3)))
        q = quotient(alg, ident)
        assert q.generators[0].table == alg.generators[0].table

    def test_one_block(self):
        q = quotient(shared_algebra(), Congruence((frozenset({0, 1, 2}),)))
        assert q.domain.size == 1

    def test_quotient_not_essentially_unary(self):
        q = quotient(shared_algebra(), Congruence((frozenset({0, 2}), frozenset({1}))))
        assert not is_gset(q)

    def test_invalid_partition_rejected(self):
        # {{0,1},{2}} is not a congruence of the shared semilattice
        with pytest.raises(StructuralError):
            quotient(shared_algebra(), Congruence((frozenset({0, 1}), frozenset({2}))))


class TestFactors:
    def test_one_element_algebra(self):
        factors = enumerate_factors(one_element_algebra())
        assert len(factors) == 1

    def test_shared_semilattice_factor_inventory(self):
        factors = enumerate_factors(shared_algebra())
        sizes = sorted(f.quotient.domain.size for f in factors)
        assert sizes == [1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_factor_count_up_to_relabeling(self):
        from qcollapse.algebra import canonical_form

        classes = {canonical_form(f.quotient) for f in enumerate_factors(shared_algebra())}
        # one-element, the two-element semilattice shape, the full algebra
        assert len(classes) == 3

    def test_factor_of_factor_is_factor(self):
        # checked up to table identity after canonical re-indexing
        for alg in (shared_algebra(), and_algebra()):
            tables = {
                (f.quotient.domain.size, tuple(g.table for g in f.quotient.generators))
                for f in enumerate_factors(alg)
            }
            for f in enumerate_factors(alg):
                for f2 in enumerate_factors(f.quotient):
                    key = (
                        f2.quotient.domain.size,
                        tuple(g.table for g in f2.quotient.generators),
                    )
                    assert key in tables


class TestGset:
    def test_projection_algebra(self):
        assert is_gset(Algebra(Domain(2), (projection_op(2, 2, 1),)))

    def test_permutation_composed(self):
        flip_first = from_function("nf", 2, 2, lambda x, y: 1 - x)
        assert is_gset(Algebra(Domain(2), (flip_first,)))

    def test_one_element_is_not(self):
        assert not is_gset(one_element_algebra())

    def test_shared_semilattice_is_not(self):
        assert not is_gset(shared_algebra())

    def test_generator_check_matches_term_check(self):
        # the permutation-on-one-argument shape is composition closed
        algebras = [
            shared_algebra(),
            and_algebra(),
            Algebra(Domain(2), (projection_op(2, 2, 1),)),
            Algebra(Domain(2), (from_function("nf", 2, 2, lambda x, y: 1 - x),)),
            Algebra(Domain(3), (dual_discriminator(3),)),
        ]
        for alg in algebras:
            terms = generate_term_operations(alg, 3, count_cap=500)
            term_level = alg.domain.size >= 2 and all(
                is_gset(Algebra(alg.domain, (op,))) or alg.domain.size < 2
                for op in terms.operations
            )
            assert is_gset(alg) == term_level

    def test_gset_factor_witness(self):
        found, factor = has_gset_factor(Algebra(Domain(2), (projection_op(2, 2, 1),)))
        assert found and factor.quotient.domain.size == 2
        assert not has_gset_factor(shared_algebra())[0]
        assert not has_gset_factor(and_algebra())[0]


def _witness_key(result):
    found, factor = result
    if not found:
        return (found, factor)
    quotient_generators = [(g.name, g.arity, g.table) for g in factor.quotient.generators]
    return (
        found,
        factor.universe,
        factor.congruence.blocks,
        factor.blocks,
        factor.quotient.domain,
        quotient_generators,
    )


def _copy(alg: Algebra) -> Algebra:
    # an equal algebra with an empty structure cache
    return Algebra(alg.domain, alg.generators)


def _fail(*args, **kwargs):
    raise AssertionError("the G-set search built a factor")


class TestGsetSearch:
    """The table scan against the replaced factor scan (conftest)."""

    def _check(self, alg):
        expected = _witness_key(reference_gset_factor(_copy(alg)))
        cold = _copy(alg)
        assert _witness_key(has_gset_factor(cold)) == expected
        warm = _copy(alg)
        enumerate_factors(warm)
        assert _witness_key(has_gset_factor(warm)) == expected
        if alg.domain.size >= 2:
            assert is_pair_minimal(_copy(alg)) == reference_pair_minimal(_copy(alg))
        return expected[0]

    def test_matches_the_factor_scan_on_random_algebras(self):
        # d <= 4, idempotent or not, with 0-4 generators of arity 1-3
        rng = random.Random(19)
        found = [
            self._check(random_algebra(rng, rng.randint(1, 4), rng.random() < 0.5, (0, 4)))
            for _ in range(400)
        ]
        # both answers occur often enough to compare
        assert 50 < sum(found) < 350

    def test_matches_the_factor_scan_on_group_actions(self):
        # several partitions of one universe pass: the first one is the witness
        algebras = [Algebra(Domain(d), ()) for d in (1, 2, 3)]
        for d in (2, 3, 4):
            shift = from_function("s", 1, d, lambda x: (x + 1) % d)
            twist = from_function("t", 2, d, lambda x, y: (y + 2) % d)
            algebras += [Algebra(Domain(d), (shift,)), Algebra(Domain(d), (twist, shift))]
        for alg in algebras:
            self._check(alg)
        shift4 = Algebra(Domain(4), (from_function("s", 1, 4, lambda x: (x + 1) % 4),))
        assert has_gset_factor(shift4)[1].blocks == (frozenset({0, 2}), frozenset({1, 3}))

    def test_matches_the_factor_scan_on_three_element_binaries(self):
        algebras = [
            Algebra(Domain(3), (Operation("f", 2, 3, table),))
            for table in idempotent_binary_tables(3)
        ]
        assert len(algebras) == 729
        found = [self._check(alg) for alg in algebras]
        assert 0 < sum(found) < 729

    def test_cold_search_without_witness_builds_no_factor(self, monkeypatch):
        import qcollapse.algebra as algebra

        for name in ("restrict", "enumerate_congruences", "enumerate_factors", "quotient"):
            monkeypatch.setattr(algebra, name, _fail)
        assert has_gset_factor(shared_algebra()) == (False, None)
        assert has_gset_factor(and_algebra()) == (False, None)

    def test_witness_is_the_one_quotient_built(self, monkeypatch):
        import qcollapse.algebra as algebra

        # the first projection on {0, 1}, and 2 absorbing
        f = from_function("f", 2, 3, lambda x, y: 2 if 2 in (x, y) else x)
        alg = Algebra(Domain(3), (f,))
        expected = _witness_key(reference_gset_factor(_copy(alg)))
        built = []
        real = algebra.quotient

        def counting(sub, cong):
            built.append(cong)
            return real(sub, cong)

        monkeypatch.setattr(algebra, "quotient", counting)
        for name in ("enumerate_congruences", "enumerate_factors"):
            monkeypatch.setattr(algebra, name, _fail)
        result = has_gset_factor(alg)
        assert _witness_key(result) == expected
        assert result[1].universe == frozenset({0, 1})
        assert len(built) == 1

    def test_warm_witness_matches_the_factor_scan(self):
        # the factor list, once built, is not read: the table scan still
        # finds the witness the replaced factor scan finds
        absorbing = from_function("f", 2, 3, lambda x, y: 2 if 2 in (x, y) else x)
        shift4 = from_function("s", 1, 4, lambda x: (x + 1) % 4)
        for alg in (Algebra(Domain(3), (absorbing,)), Algebra(Domain(4), (shift4,))):
            expected = _witness_key(reference_gset_factor(_copy(alg)))
            assert expected[0]
            enumerate_factors(alg)
            assert _witness_key(has_gset_factor(alg)) == expected


class TestPredicates:
    def test_strictly_simple(self):
        assert is_strictly_simple(and_algebra()).holds
        assert not is_strictly_simple(shared_algebra()).holds
        result = is_strictly_simple(one_element_algebra())
        assert result.holds and result.trivial

    def test_pair_minimal(self):
        assert is_pair_minimal(and_algebra())
        assert not is_pair_minimal(shared_algebra())
        assert is_pair_minimal(Algebra(Domain(3), (dual_discriminator(3),)))
        with pytest.raises(StructuralError):
            is_pair_minimal(one_element_algebra())

    def test_enclosed(self):
        assert is_enclosed(shared_algebra())
        # escaping generator: the ternary mixing operation of the 4-element
        # block algebra is enclosed, but the dual discriminator is not
        assert not is_enclosed(Algebra(Domain(3), (dual_discriminator(3),)))

    def test_enclosed_generator_check_matches_terms(self):
        dd3 = Algebra(Domain(3), (dual_discriminator(3),))
        for alg in (shared_algebra(), and_algebra(), dd3):
            maximal = enumerate_subalgebras(alg).maximal_proper()
            terms = generate_term_operations(alg, 3)
            term_level = all(
                any(op_image(op, combo) <= m for m in maximal)
                for op in terms.operations
                for combo in itertools.product(maximal, repeat=op.arity)
            )
            assert is_enclosed(alg) == term_level

    def test_fully_connected(self):
        assert is_fully_connected(shared_algebra()).holds
        trivial = is_fully_connected(one_element_algebra())
        assert trivial.holds and trivial.trivial

    def test_single_maximal_is_vacuously_connected(self):
        # constant unary generator: {1} is not closed, so {0} is the only
        # maximal proper subalgebra
        const = from_function("z", 1, 2, lambda x: 0)
        alg = Algebra(Domain(2), (const,))
        assert enumerate_subalgebras(alg).maximal_proper() == [frozenset({0})]
        assert is_fully_connected(alg).holds

    def test_disconnected_maximals(self):
        # any two-element idempotent algebra has the two singletons as its
        # disjoint maximal proper subalgebras
        maximal = enumerate_subalgebras(and_algebra()).maximal_proper()
        assert sorted(sorted(m) for m in maximal) == [[0], [1]]
        assert not is_fully_connected(and_algebra()).holds


class TestDisjointMaximalCongruence:
    def test_overlapping_maximals_give_none(self):
        assert disjoint_maximal_congruence(shared_algebra()) is None

    def test_not_covering_gives_none(self):
        # single maximal proper subalgebra {0} does not cover the universe
        const = from_function("z", 1, 2, lambda x: 0)
        assert disjoint_maximal_congruence(Algebra(Domain(2), (const,))) is None

    def test_two_element_idempotent_gives_identity_partition(self):
        cong = disjoint_maximal_congruence(and_algebra())
        assert cong is not None
        assert {tuple(sorted(b)) for b in cong.blocks} == {(0,), (1,)}

    def test_disjoint_covering_case(self):
        def f3(x, y):
            if x < 2 and y < 2:
                return x & y
            if x == 2 and y == 2:
                return 2
            return 1 - (x if x < 2 else y)

        alg = Algebra(Domain(3), (from_function("m3", 2, 3, f3),))
        cong = disjoint_maximal_congruence(alg)
        assert cong is not None
        assert {tuple(sorted(b)) for b in cong.blocks} == {(0, 1), (2,)}
        # and it really is a congruence
        assert cong in enumerate_congruences(alg)


class TestRestrict:
    def test_restrict_shared_pair(self):
        sub, elements = restrict(shared_algebra(), frozenset({0, 2}))
        assert elements == (0, 2)
        assert sub.domain.size == 2
        # restriction acts as the two-element semilattice with unit 0 (old a)
        from qcollapse.polymorph import tag_operation

        tags = tag_operation(sub.generators[0])
        assert tags.semilattice and tags.unit_element == 0

    def test_unclosed_subset_rejected(self):
        with pytest.raises(StructuralError):
            restrict(shared_algebra(), frozenset({0, 1}))

    def test_whole_universe_gives_the_algebra_itself(self):
        alg = shared_algebra()
        congruences = enumerate_congruences(alg)
        sub, elements = restrict(alg, frozenset({0, 1, 2}))
        assert sub is alg and elements == (0, 1, 2)
        # one cache: the restriction's answers are the algebra's
        assert enumerate_congruences(sub) is congruences

    def test_the_cache_keeps_no_reference_to_its_algebra(self):
        # so an algebra dies with its last reference, without waiting for
        # the cycle collector
        alg = shared_algebra()
        enumerate_factors(alg)
        has_gset_factor(alg)
        assert restrict(alg, frozenset({0, 1, 2}))[0] is alg
        ref = weakref.ref(alg)
        gc.disable()
        try:
            del alg
            assert ref() is None
        finally:
            gc.enable()


class TestStructureCache:
    def test_cache_is_per_object(self):
        # equal by value, as generator names are not compared, yet each
        # algebra's quotients and factors carry its own generators' names
        first = shared_algebra()
        second = Algebra(first.domain, (semilattice_to_shared(3, 2, "t"),))
        assert first == second
        pair = Congruence((frozenset({0, 2}), frozenset({1})))
        assert quotient(first, pair).generators[0].name == "s~"
        enumerate_factors(first)
        assert quotient(second, pair).generators[0].name == "t~"
        assert {g.name for f in enumerate_factors(second) for g in f.quotient.generators} == {"t~"}

    def test_answers_are_computed_once(self, monkeypatch):
        import qcollapse.algebra as algebra

        alg = shared_algebra()
        first = enumerate_factors(alg)
        gset = has_gset_factor(alg)
        monkeypatch.setattr(algebra, "_partitions", None)
        monkeypatch.setattr(algebra, "is_closed", None)
        assert enumerate_factors(alg) == first
        assert has_gset_factor(alg) == gset == (False, None)
        # the factor scan restricted to every subuniverse
        assert restrict(alg, frozenset({0, 2}))[1] == (0, 2)

    def test_predicates_are_computed_once(self, monkeypatch):
        import qcollapse.algebra as algebra

        alg = shared_algebra()
        predicates = (is_enclosed, is_fully_connected, is_strictly_simple, is_pair_minimal)
        first = [predicate(alg) for predicate in predicates]
        # every predicate's computation starts with the universe check
        monkeypatch.setattr(algebra, "_check_universe", None)
        assert [predicate(alg) for predicate in predicates] == first

    def test_second_call_returns_the_stored_immutable_answer(self):
        alg = shared_algebra()
        questions = (
            enumerate_subalgebras, enumerate_congruences, enumerate_factors, has_gset_factor,
            is_strictly_simple, is_pair_minimal, is_enclosed, is_fully_connected,
            lambda a: restrict(a, frozenset({0, 2})),
        )
        for question in questions:
            answer = question(alg)
            assert question(alg) is answer
            # hashable all the way down: tuples, frozensets and frozen
            # dataclasses, so no caller can change what is stored
            hash(answer)
        assert isinstance(enumerate_congruences(alg), tuple)
        assert isinstance(enumerate_factors(alg), tuple)

    def test_warm_cache_still_refuses(self):
        alg = shared_algebra()
        enumerate_factors(alg)
        has_gset_factor(alg)
        bad = Congruence((frozenset({0, 1}), frozenset({2})))
        for _ in range(2):
            with pytest.raises(StructuralError, match="not a congruence"):
                quotient(alg, bad)
            with pytest.raises(StructuralError, match="not closed"):
                restrict(alg, frozenset({0, 1}))
