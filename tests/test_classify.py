import collections
import itertools
import random
from pathlib import Path

import pytest

from conftest import (
    affine_rel,
    brute_force_discovery,
    brute_force_tables,
    impl_rel,
    nae_rel,
    random_language,
    reference_shape_search,
    rel,
)
from qcollapse import classify, polymorph
from qcollapse.algebra import has_gset_factor
from qcollapse.classify import (
    classify_conservative,
    classify_three_element,
    classify_two_element,
    discovered_generators,
    dispatch_operations,
    find_polymorphism_with_shape,
    planned_dispatch_operation,
)
from qcollapse.collapsibility import (
    TERM_CONDITIONS,
    build_certificate,
    certify,
    plan_certificate,
)
from qcollapse.errors import BuildError, GuardrailError, StructuralError
from qcollapse.model import (
    Algebra,
    ConstraintLanguage,
    Domain,
    Operation,
    Relation,
    parse_document,
)
from qcollapse.ops import dual_discriminator, minority_op, semilattice_to_shared
from qcollapse.polymorph import (
    close_relation_under,
    generate_term_operations,
    is_polymorphism_of_language,
    tag_operation,
)


def lang(domain_size, *relations):
    return ConstraintLanguage(Domain(domain_size), tuple(relations))


class TestTwoElement:
    def test_implication_is_tractable(self):
        verdict = classify_two_element(lang(2, impl_rel()))
        assert verdict.label == "P_certified"
        assert verdict.certificate.width == 1
        assert verdict.certificate is not None

    def test_affine_is_tractable_via_minority(self):
        verdict = classify_two_element(lang(2, affine_rel()))
        assert verdict.label == "P_certified"
        assert verdict.certificate.width == 1

    def test_nae_is_pspace_with_witnesses(self):
        verdict = classify_two_element(lang(2, nae_rel()))
        assert verdict.label == "PSPACE_complete_cited"
        assert set(verdict.witness) == {"and", "or", "majority", "minority"}
        for info in verdict.witness.values():
            assert info["image"] not in nae_rel().tuples

    def test_wrong_domain(self):
        with pytest.raises(StructuralError):
            classify_two_element(lang(3, rel("R", 1, 3, [(0,)])))

    def test_witnesses_pass_over_relations_above_the_size_guard(self):
        # no dispatch operation preserves not-all-equal; the 8-ary Horn clause
        # has 224 rows, too many for a ternary check, so majority and minority
        # take their witnesses from not-all-equal in either order
        rows = itertools.product((0, 1), repeat=8)
        horn = rel("H8", 8, 2, [t for t in rows if not (t[0] and t[1]) or t[2]])
        for relations in ((horn, nae_rel()), (nae_rel(), horn)):
            verdict = classify_two_element(lang(2, *relations))
            assert verdict.label == "PSPACE_complete_cited"
            assert set(verdict.witness) == {"and", "or", "majority", "minority"}
            for info in verdict.witness.values():
                failed = horn if info["relation"] == "H8" else nae_rel()
                assert info["image"] not in failed.tuples
            assert verdict.witness["majority"]["relation"] == "NAE"
            assert verdict.witness["minority"]["relation"] == "NAE"
        # the first relation in file order that an operation fails is its witness
        assert classify_two_element(lang(2, horn, nae_rel())).witness["or"]["relation"] == "H8"

    def test_certificates_verify(self):
        for relation in (impl_rel(), affine_rel()):
            verdict = classify_two_element(lang(2, relation))
            algebra = Algebra(Domain(2), tuple())
            # replay against an algebra carrying exactly the hit operations
            # named in the certificate traces
            assert verdict.certificate.n >= 1


def _planned(language: ConstraintLanguage, generators) -> tuple | str:
    """The two-element planner's strategy, which is the term condition its
    operation satisfies, and the built certificate's width and source, or the
    reason no certificate exists."""
    algebra = Algebra(language.domain, tuple(generators))
    try:
        builder = plan_certificate(algebra)
        cert = build_certificate(builder, algebra, 2)
    except BuildError as err:
        return str(err)
    kind = TERM_CONDITIONS[builder.strategy]
    assert kind.holds(builder.params["op"], kind.defaults)
    return builder.strategy, cert.width, cert.source


def _boolean_languages(rng: random.Random) -> list[ConstraintLanguage]:
    """Every Boolean relation of arity 1-3, the empty ones included, then 60
    seeded two-relation languages."""
    out = []
    for arity in (1, 2, 3):
        rows = list(itertools.product((0, 1), repeat=arity))
        for mask in range(2 ** len(rows)):
            chosen = [t for i, t in enumerate(rows) if mask >> i & 1]
            out.append(lang(2, rel("R", arity, 2, chosen)))
    for _ in range(60):
        pair = []
        for name in ("R", "S"):
            rows = list(itertools.product((0, 1), repeat=rng.randint(1, 3)))
            pair.append(rel(name, len(rows[0]), 2, rng.sample(rows, rng.randint(0, len(rows)))))
        out.append(lang(2, *pair))
    return out


def _benchmark_languages() -> list[ConstraintLanguage]:
    """The six Boolean languages of the benchmark's `solve` and `scale`
    workloads, rebuilt from their defining clauses."""
    def relation(name, arity, pred):
        return rel(name, arity, 2, [t for t in itertools.product((0, 1), repeat=arity) if pred(*t)])

    false, true = relation("F", 1, lambda a: a == 0), relation("T", 1, lambda a: a == 1)
    return [
        lang(2, relation("H", 3, lambda a, b, c: not (a and b) or c), false, true),
        lang(2, relation("D", 3, lambda a, b, c: a or b or not c), false, true),
        lang(2, relation("O", 2, lambda a, b: a or b), relation("I", 2, lambda a, b: not a or b),
             relation("N", 2, lambda a, b: not (a and b))),
        lang(2, relation("X", 3, lambda a, b, c: a ^ b ^ c == 0),
             relation("Y", 3, lambda a, b, c: a ^ b ^ c == 1)),
        lang(2, relation("I", 2, lambda a, b: not a or b)),
        lang(2, relation("O", 2, lambda a, b: a or b)),
    ]


LEDGER_INPUTS = Path(__file__).parent / "ledger" / "inputs"

# the planner's refusal on two elements, where a refuted lift means a G-set
GSET_REFUSAL = (
    "no certificate of width <= 2 from one element at any n >= 3: the algebra is a G-set"
)


def _ledger_languages() -> dict[str, ConstraintLanguage]:
    """The two-element languages among the ledger's input files, by name."""
    out = {}
    for path in sorted(LEDGER_INPUTS.glob("*.txt")):
        document = parse_document(path.read_text(encoding="utf-8"))
        if document.language.domain.size == 2:
            out[path.name] = document.language
    return out


def _certified(language: ConstraintLanguage, generators, n: int) -> tuple | str:
    """What `solve` reads of the certificate on these generators, and every
    entry's adversary; or the reason no certificate exists."""
    try:
        builder, cert = certify(Algebra(language.domain, tuple(generators)), n)
    except BuildError as err:
        return str(err)
    adversaries = tuple(e.adversary for e in cert.entries)
    return builder.strategy, cert.width, cert.source, cert.target, cert.n, cert.result, adversaries


class TestDispatchOperations:
    def test_planner_order_is_read_from_the_term_conditions(self):
        ranks = [
            next(i for i, kind in enumerate(TERM_CONDITIONS.values())
                 if kind.holds(op, kind.defaults))
            for op in classify.PLANNER_DISPATCH_ORDER
        ]
        assert ranks == sorted(ranks)
        assert sorted(classify.PLANNER_DISPATCH_ORDER, key=classify.DISPATCH_OPERATIONS.index) == (
            list(classify.DISPATCH_OPERATIONS)
        )
        assert [op.name for op in classify.PLANNER_DISPATCH_ORDER] == [
            "and", "or", "minority", "majority",
        ]

    def test_planned_operation_certifies_as_every_hit_does(self):
        # the planner on the first operation that preserves the language, in
        # its order, builds what it builds on all of them, up to the generator
        # index inside traces; with none, both fail with the same message
        ternary = list(itertools.product((0, 1), repeat=3))
        languages = [
            lang(2, rel("R", 3, 2, [t for i, t in enumerate(ternary) if mask >> i & 1]))
            for mask in range(256)
        ]
        languages += _benchmark_languages()
        ledger = _ledger_languages()
        refused = {name for name, language in ledger.items() if dispatch_operations(language)[1]}
        assert refused == {"nand3_wide.txt"}
        languages += ledger.values()
        strategies = collections.Counter()
        for language in languages:
            hits, _ = dispatch_operations(language)
            planned = planned_dispatch_operation(language)
            assert planned == next(
                (op for op in classify.PLANNER_DISPATCH_ORDER if op in hits), None
            )
            walked = () if planned is None else (planned,)
            for n in (1, 2, 3, 4):
                expected = _certified(language, hits, n)
                assert _certified(language, walked, n) == expected, (
                    n, [sorted(r.tuples) for r in language.relations],
                )
            strategies[expected if isinstance(expected, str) else expected[0]] += 1
        assert set(strategies) == {
            "unit_element", "maltsev_chain", "dualdisc_chain", GSET_REFUSAL,
        }, strategies

    def test_planned_operation_checks_past_the_size_guard_only_when_needed(self):
        # AND preserves the 224-row relation, so majority's 224^3 check never
        # runs; `dispatch_operations` lists it, and minority's, as refused
        language = _ledger_languages()["nand3_wide.txt"]
        assert planned_dispatch_operation(language).name == "and"
        hits, refused = dispatch_operations(language)
        assert [op.name for op in hits] == ["and"]
        assert refused == dict.fromkeys(
            ("majority", "minority"), "224^3 tuple combinations exceed the cap of 10000000"
        )
        wide = language.relations[0]
        # x or y breaks AND and minority, and OR breaks the wide relation, so
        # the walk reaches majority and refuses
        broken = lang(2, rel("Or", 2, 2, [(0, 1), (1, 0), (1, 1)]), wide)
        with pytest.raises(GuardrailError, match=r"^224\^3 tuple combinations"):
            planned_dispatch_operation(broken)

    def test_every_boolean_maltsev_operation_generates_minority(self):
        maltsev = [
            op for op in (
                Operation("m", 3, 2, table) for table in itertools.product((0, 1), repeat=8)
            )
            if tag_operation(op).maltsev
        ]
        assert len(maltsev) == 4
        for op in maltsev:
            terms = generate_term_operations(Algebra(Domain(2), (op,)), 3)
            assert not terms.truncated
            assert minority_op() in terms.of_arity(3), op.table

    def test_planner_matches_the_discovered_generators(self, monkeypatch):
        # the four operations fix the planner's chain exactly as all the
        # idempotent polymorphisms do, when both keep only the operations up
        # to an arity cap; cap 4 raises the discovery arity and runs on a
        # seeded sample of ten, since discovering and planning the arity-4
        # polymorphisms takes up to about 2 s a language
        rng = random.Random(12)
        languages = _boolean_languages(rng)
        outcomes = collections.defaultdict(set)
        for cap in (1, 2, 3, 4):
            monkeypatch.setattr(polymorph, "ARITY_CAP", max(cap, 3))
            for language in languages if cap < 4 else rng.sample(languages, 10):
                discovered = discovered_generators(language)[0]
                reference = _planned(language, [op for op in discovered if op.arity <= cap])
                dispatch = [op for op in dispatch_operations(language)[0] if op.arity <= cap]
                assert _planned(language, dispatch) == reference, (
                    cap, [sorted(r.tuples) for r in language.relations],
                )
                outcomes[cap].add(reference[0] if isinstance(reference, tuple) else reference)
        gset = GSET_REFUSAL
        assert outcomes[1] == {gset}
        assert outcomes[2] == {gset, "unit_element"}
        for cap in (3, 4):
            assert outcomes[cap] == {gset, "unit_element", "maltsev_chain", "dualdisc_chain"}

    def test_keeps_the_dispatch_order(self):
        equality = lang(2, rel("Eq", 2, 2, [(0, 0), (1, 1)]))
        hits, refused = dispatch_operations(equality)
        assert [op.name for op in hits] == ["and", "or", "majority", "minority"]
        assert refused == {}
        assert dispatch_operations(lang(2, nae_rel())) == ((), {})

    def test_size_guard_does_not_depend_on_relation_order(self):
        # the Horn clause breaks majority and minority, so its 8-ary form,
        # with 224 rows too many for a ternary check, never needs one
        def horn(arity):
            rows = itertools.product((0, 1), repeat=arity)
            return rel(f"H{arity}", arity, 2, [t for t in rows if not (t[0] and t[1]) or t[2]])

        small, big = horn(3), horn(8)
        for relations in ((small, big), (big, small)):
            hits, refused = dispatch_operations(lang(2, *relations))
            assert [op.name for op in hits] == ["and"] and refused == {}
        hits, refused = dispatch_operations(lang(2, big))
        assert [op.name for op in hits] == ["and"]
        assert sorted(refused) == ["majority", "minority"]
        assert all(m.startswith("224^3 tuple combinations") for m in refused.values())


class TestShapeSearch:
    def test_finds_affine_maltsev_over_three_elements(self):
        # the ternary affine relation x - y + z = 0 over Z3
        rows = [
            t for t in itertools.product(range(3), repeat=3)
            if (t[0] - t[1] + t[2]) % 3 == 0
        ]
        language = lang(3, rel("AffZ3", 3, 3, rows))
        forced = {}
        for x in range(3):
            for y in range(3):
                forced[(x, x, y)] = y
                forced[(y, x, x)] = y
        op = find_polymorphism_with_shape(language, 3, forced, "m")
        assert op is not None
        assert tag_operation(op).maltsev
        assert is_polymorphism_of_language(op, language)

    def test_unsatisfiable_shape(self):
        language = lang(2, nae_rel())
        forced = {}
        for x in range(2):
            for y in range(2):
                forced[(x, x, y)] = x
                forced[(x, y, x)] = x
                forced[(y, x, x)] = x
        assert find_polymorphism_with_shape(language, 3, forced) is None

    def test_existence_matches_the_csp_search(self):
        # the CSP the sweep replaced finds a table for exactly the same
        # languages and templates; the sweep's table honors its template
        rng = random.Random(12)
        seen = set()
        for d in (2, 3, 4):
            for _ in range(40):
                language = random_language(rng, d)
                for label, name, forced in classify._templates(d):
                    got = find_polymorphism_with_shape(language, 3, forced, name)
                    want = reference_shape_search(language, 3, forced, name)
                    assert (got is None) == (want is None), (d, label)
                    seen.add((d, got is not None))
                    if got is None:
                        continue
                    assert got.name == name
                    assert all(got(*cell) == value for cell, value in forced.items())
                    assert is_polymorphism_of_language(got, language)
        assert seen == {(d, found) for d in (2, 3, 4) for found in (False, True)}

    def test_table_is_the_first_in_product_order(self):
        rng = random.Random(13)
        for _ in range(60):
            d = rng.choice((2, 3))
            language = random_language(rng, d)
            for label, name, forced in classify._templates(d):
                if d == 3 and label != "majority":
                    continue  # 3^12 and 3^0 candidates: the majority's 3^6 suffice
                got = find_polymorphism_with_shape(language, 3, forced, name)
                want = next(brute_force_tables(language, 3, forced), None)
                assert (None if got is None else got.table) == want, (d, label)

    def test_templates_keep_their_shapes(self):
        for d in (2, 3, 4):
            for label, name, forced in classify._templates(d):
                cells = itertools.product(range(d), repeat=3)
                op = Operation(name, 3, d, tuple(forced.get(c, 0) for c in cells))
                tags = tag_operation(op)
                shape = {"dual_discriminator": tags.dual_discriminator,
                         "maltsev": tags.maltsev, "majority": tags.majority}
                assert shape[label], (d, label)
        _, _, maltsev = classify._templates(3)[1]
        _, _, majority = classify._templates(3)[2]
        assert (27 - len(maltsev), 27 - len(majority)) == (12, 6)

    def test_templates_are_the_cells_the_dicts_spelled_out(self):
        # the templates as written out per cell before the identity table
        for d in (2, 3, 4):
            dd = dual_discriminator(d)
            cells = list(itertools.product(range(d), repeat=3))
            spelled = (
                ("dual_discriminator", "dualdisc", dict(zip(cells, dd.table))),
                ("maltsev", "maltsev", {
                    (x, y, z): z if x == y else x for x, y, z in cells if x == y or y == z
                }),
                ("majority", "majority", {
                    (x, y, z): y if y == z else x for x, y, z in cells if x in (y, z) or y == z
                }),
            )
            assert classify._templates(d) == spelled, d

    def test_forced_cells_failing_a_relation_stop_before_the_search(self, monkeypatch):
        # the rows (0, 1), (0, 2), (1, 2) of Neq read the forced cells 0 0 1
        # and 1 2 2, which Mal'tsev sends to (1, 1); so the sweep yields
        # nothing without filling a single cell
        neq = rel("Neq", 2, 3, [(a, b) for a in range(3) for b in range(3) if a != b])
        _, _, maltsev = classify._templates(3)[1]
        monkeypatch.setattr(polymorph, "FILL_CAP", 0)
        assert list(polymorph.polymorphism_tables(lang(3, neq), 3, maltsev)) == []

    def test_work_bound_counts_filled_cells(self, monkeypatch):
        # every table preserves the full unary relation, so the first one
        # fills each of the 12 free Mal'tsev cells once
        language = lang(3, rel("U", 1, 3, [(0,), (1,), (2,)]))
        _, _, maltsev = classify._templates(3)[1]
        monkeypatch.setattr(polymorph, "FILL_CAP", 12)
        first = next(polymorph.polymorphism_tables(language, 3, maltsev))
        assert first == tuple(
            maltsev.get(c, 0) for c in itertools.product(range(3), repeat=3)
        )
        monkeypatch.setattr(polymorph, "FILL_CAP", 11)
        with pytest.raises(GuardrailError, match="filled more than 11 cells"):
            next(polymorph.polymorphism_tables(language, 3, maltsev))

    def test_row_choices_are_refused_before_setup(self, monkeypatch):
        # the three rows of U give 3^3 ternary row choices, one over the cap
        def unreachable(rel, k):
            raise AssertionError("the sweep built its checks")

        monkeypatch.setattr(polymorph, "relation_cells", unreachable)
        language = lang(3, rel("U", 1, 3, [(0,), (1,), (2,)]))
        _, _, maltsev = classify._templates(3)[1]
        monkeypatch.setattr(polymorph, "CHECK_CAP", 26)
        with pytest.raises(GuardrailError, match=r"^3\^3 tuple combinations exceed the cap of 26$"):
            next(polymorph.polymorphism_tables(language, 3, maltsev))

    def test_out_of_range_entries_are_refused(self):
        language = lang(2, nae_rel())
        for forced in ({(0, 0): 0}, {(0, 0, 2): 0}, {(0, 0, 1): 2}):
            with pytest.raises(StructuralError):
                find_polymorphism_with_shape(language, 3, forced)


class TestDiscoveredGenerators:
    def test_matches_per_arity_brute_force(self, monkeypatch):
        rng = random.Random(8)
        for _ in range(60):
            language = random_language(rng, rng.randint(2, 3))
            candidate_cap = rng.choice((5, 100, 100_000))
            monkeypatch.setattr(polymorph, "CANDIDATE_CAP", candidate_cap)
            found, swept_to = [], 0
            try:
                for ops in brute_force_discovery(language, 3, candidate_cap):
                    found += [op for op in ops if not tag_operation(op).projection]
                    swept_to += 1
            except GuardrailError:
                pass
            generators, caps = discovered_generators(language)
            assert [(g.name, g.table) for g in generators[: len(found)]] == [
                (g.name, g.table) for g in found
            ]
            assert caps["exhaustive_arity"] == swept_to
            if swept_to == 3:
                assert len(generators) == len(found)

    def test_sweeps_each_arity_once(self, monkeypatch):
        # discovery and the templates reach one sweep: once per arity with
        # the diagonal forced, then once per template; arity 3's 3^24
        # candidates are refused before a sweep
        swept = []
        sweep = polymorph.polymorphism_tables

        def recording(language, k, forced):
            swept.append((k, len(forced)))
            return sweep(language, k, forced)

        monkeypatch.setattr(polymorph, "polymorphism_tables", recording)
        monkeypatch.setattr(classify, "polymorphism_tables", recording)
        language = lang(3, rel("Eq", 2, 3, [(v, v) for v in range(3)]))
        _, caps = discovered_generators(language)
        assert caps["exhaustive_arity"] == 2
        assert swept == [(1, 3), (2, 3), (3, 27), (3, 15), (3, 21)]


class TestThreeElement:
    def test_shared_semilattice_zone_is_unresolved(self):
        closed = close_relation_under(
            rel("S", 2, 3, [(0, 1), (1, 0)]), semilattice_to_shared(3, 2)
        )
        verdict = classify_three_element(lang(3, closed))
        assert verdict.label == "unresolved"
        assert verdict.witness["semilattice_shared_element"] == 2

    def test_dualdisc_closed_language_is_tractable(self):
        cycle = rel("C", 2, 3, [(0, 1), (1, 2), (2, 0)])
        closed = close_relation_under(cycle, dual_discriminator(3))
        unary = rel("U", 1, 3, [(0,), (1,)])
        verdict = classify_three_element(lang(3, closed, unary))
        assert verdict.label == "P_certified"
        assert verdict.certificate is not None

    def test_three_coloring_is_hard(self):
        neq = rel("Neq", 2, 3, [(a, b) for a in range(3) for b in range(3) if a != b])
        verdict = classify_three_element(lang(3, neq))
        assert verdict.label == "NP_hard_certified"
        assert "subalgebra" in verdict.witness
        assert verdict.caps["exhaustive_arity"] == 2

    def test_rainbow_is_hard(self):
        rainbow = rel("AllDiff", 3, 3, list(itertools.permutations(range(3))))
        verdict = classify_three_element(lang(3, rainbow))
        assert verdict.label == "NP_hard_certified"

    def test_affine_z3_is_tractable(self):
        rows = [
            t for t in itertools.product(range(3), repeat=3)
            if (t[0] - t[1] + t[2]) % 3 == 0
        ]
        verdict = classify_three_element(lang(3, rel("AffZ3", 3, 3, rows)))
        assert verdict.label == "P_certified"
        assert verdict.certificate.width == 1

    def test_path_needs_the_ternary_polymorphisms(self):
        # the binary idempotent polymorphisms alone have a G-set factor, which
        # the ternary template tables break: a verdict from the binary ones is
        # unsound
        language = lang(
            3, rel("R0", 1, 3, [(0,), (2,)]), rel("R1", 2, 3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        )
        binary = [g for g in discovered_generators(language)[0] if g.arity <= 2]
        assert has_gset_factor(Algebra(language.domain, tuple(binary)))[0]
        verdict = classify_three_element(language)
        assert verdict.label == "P_certified"
        assert verdict.caps["arity_cap"] == 3
        assert verdict.caps["exhaustive_arity"] == 2
        assert verdict.caps["targeted_templates"]


def _audit_reduction(language, verdict, seed, count=30):
    """Random instances over the language: certified reduction vs oracle."""
    import random

    from qcollapse.collapse import conjunction_verdict, relevant_collapsings
    from qcollapse.corpus import CorpusSpec, random_formula
    from qcollapse.game import evaluate_truth

    rng = random.Random(seed)
    spec = CorpusSpec(max_vars=5, max_universals=2, max_constraints=3)
    for _ in range(count):
        phi = random_formula(rng, language, spec)
        assert conjunction_verdict(
            relevant_collapsings(phi, verdict.certificate.width, verdict.certificate.source)
        ) == evaluate_truth(phi)


class TestThreeElementSemanticAudit:
    def test_affine_z3_reduction_agrees_with_oracle(self):
        rows = [
            t for t in itertools.product(range(3), repeat=3)
            if (t[0] - t[1] + t[2]) % 3 == 0
        ]
        language = lang(3, rel("AffZ3", 3, 3, rows))
        verdict = classify_three_element(language)
        assert verdict.label == "P_certified"
        _audit_reduction(language, verdict, seed=71)

    def test_dualdisc_closed_reduction_agrees_with_oracle(self):
        cycle = close_relation_under(
            rel("C", 2, 3, [(0, 1), (1, 2), (2, 0)]), dual_discriminator(3)
        )
        unary = rel("U", 1, 3, [(0,), (1,)])
        language = lang(3, cycle, unary)
        verdict = classify_three_element(language)
        assert verdict.label == "P_certified"
        _audit_reduction(language, verdict, seed=73)


def conservative_relations(domain_size):
    out = []
    idx = 0
    for size in range(1, domain_size + 1):
        for subset in itertools.combinations(range(domain_size), size):
            out.append(Relation(f"U{idx}", 1, domain_size, frozenset((v,) for v in subset)))
            idx += 1
    return tuple(out)


class TestConservative:
    def test_precondition_enforced(self):
        with pytest.raises(StructuralError):
            classify_conservative(lang(2, impl_rel()))

    def test_domain_one_trivial(self):
        language = lang(1, rel("U", 1, 1, [(0,)]))
        assert classify_conservative(language).label == "P_certified"

    def test_conservative_dualdisc_tractable(self):
        base = conservative_relations(3)
        cycle = close_relation_under(
            rel("C", 2, 3, [(0, 1), (1, 2), (2, 0)]), dual_discriminator(3)
        )
        verdict = classify_conservative(ConstraintLanguage(Domain(3), base + (cycle,)))
        assert verdict.label == "P_certified"
        assert verdict.builder.strategy == "pair_minimal"

    def test_conservative_polymorphisms_keep_all_subsets_closed(self):
        from qcollapse.classify import discovered_generators
        from qcollapse.polymorph import op_image

        base = conservative_relations(3)
        language = ConstraintLanguage(Domain(3), base)
        generators, _ = discovered_generators(language)
        for size in range(1, 4):
            for subset in itertools.combinations(range(3), size):
                fs = frozenset(subset)
                for g in generators:
                    assert op_image(g, [fs] * g.arity) <= fs

    def test_conservative_rainbow_hard(self):
        base = conservative_relations(3)
        rainbow = rel("AllDiff", 3, 3, list(itertools.permutations(range(3))))
        verdict = classify_conservative(ConstraintLanguage(Domain(3), base + (rainbow,)))
        assert verdict.label == "NP_hard_certified"

    def test_boolean_affine_needs_the_ternary_polymorphisms(self):
        # x + y + z = 1 (mod 2): its only idempotent binary polymorphisms are
        # the projections, a G-set; minority is ternary
        odd = rel("Odd", 3, 2, [t for t in itertools.product(range(2), repeat=3) if sum(t) % 2])
        language = ConstraintLanguage(Domain(2), conservative_relations(2) + (odd,))
        binary = [g for g in discovered_generators(language)[0] if g.arity <= 2]
        assert has_gset_factor(Algebra(language.domain, tuple(binary)))[0]
        verdict = classify_conservative(language)
        assert verdict.label == "P_certified"
        assert verdict.caps["arity_cap"] == verdict.caps["exhaustive_arity"] == 3
