import collections
import dataclasses
import functools
import inspect
import itertools
import random
import re
import sys

import pytest

from conftest import (
    NEGATIVE_REFERENCE_CERT,
    dispatch_algebras,
    eq_rel,
    idempotent_binary_tables,
    random_algebra,
    record_closure_caps,
    reference_column_images,
    reference_game,
    reference_op_image,
)
from qcollapse import collapsibility, polymorph
from qcollapse.algebra import disjoint_maximal_congruence
from qcollapse.classify import DISPATCH_OPERATIONS, discovered_generators
from qcollapse.collapse import conjunction_verdict, relevant_collapsings
from qcollapse.collapsibility import (
    TERM_CONDITIONS,
    Adversary,
    CertEntry,
    CertificateBuilder,
    adv_family,
    build_certificate,
    certify,
    composable,
    detect_sink_candidate,
    dominated,
    is_alphabeta_projective,
    parse_certificate,
    plan_certificate,
    power_certificate,
    serialize_certificate,
    verify_certificate,
    VerificationResult,
    _build_near_unanimity,
    _build_singleton,
    _combine_certs,
    _enlarge_cert,
)
from qcollapse.corpus import CorpusSpec, instances
from qcollapse.errors import BuildError, GuardrailError, ParseError, StructuralError
from qcollapse.game import constant_adversary, evaluate_truth
from qcollapse.model import Algebra, ConstraintLanguage, Domain, Operation
from qcollapse.ops import (
    and_op,
    dual_discriminator,
    from_function,
    majority_op,
    minority_op,
    or_op,
    projection_op,
    semilattice_to_shared,
)
from qcollapse.polymorph import generate_term_operations, op_image, replay_trace, tag_operation


def adv(*coords):
    return Adversary(tuple(frozenset(c) for c in coords))


def shared_algebra():
    return Algebra(Domain(3, ("a", "b", "c")), (semilattice_to_shared(3, 2, "s"),))


ALGEBRAS = {
    "and": Algebra(Domain(2), (and_op(),)),
    "or": Algebra(Domain(2), (or_op(),)),
    "minority": Algebra(Domain(2), (minority_op(),)),
    "majority": Algebra(Domain(2), (majority_op(),)),
    "dualdisc3": Algebra(Domain(3), (dual_discriminator(3),)),
}


class TestAdversaryFamilies:
    def test_example_family_is_exact(self):
        fam = adv_family(4, {1}, 1, {0, 1})
        one, full = frozenset({1}), frozenset({0, 1})
        expected = {
            Adversary((full, one, one, one)),
            Adversary((one, full, one, one)),
            Adversary((one, one, full, one)),
            Adversary((one, one, one, full)),
            Adversary((one, one, one, one)),
        }
        assert set(fam.members()) == expected
        assert len(fam.members()) == 5

    def test_width_zero(self):
        fam = adv_family(3, {0}, 0, {0, 1})
        assert fam.members() == [constant_adversary(3, frozenset({0}))]

    def test_binomial_count(self):
        fam = adv_family(3, {0}, 2, {0, 1, 2})
        assert len(fam.members()) == 1 + 3 + 3

    def test_equal_base_and_wide_collapse(self):
        fam = adv_family(4, {1}, 2, {1})
        assert fam.members() == [constant_adversary(4, frozenset({1}))]

    def test_width_beyond_length_clamps(self):
        fam = adv_family(2, {0}, 5, {0, 1})
        assert len(fam.members()) == 4

    def test_membership(self):
        fam = adv_family(4, {1}, 1, {0, 1})
        assert adv({1}, {0, 1}, {1}, {1}) in fam
        assert adv({0, 1}, {0, 1}, {1}, {1}) not in fam

    def test_empty_coordinate_rejected(self):
        with pytest.raises(StructuralError):
            adv_family(3, set(), 1, {0})


from hypothesis import given, settings
from hypothesis import strategies as st


def _adversary_strategy(n, domain_size):
    coord = st.frozensets(
        st.integers(min_value=0, max_value=domain_size - 1), min_size=1
    )
    return st.tuples(*[coord] * n).map(Adversary)


@settings(max_examples=80, deadline=None)
@given(a=_adversary_strategy(3, 3), b=_adversary_strategy(3, 3), c=_adversary_strategy(3, 3))
def test_domination_is_a_partial_order(a, b, c):
    assert dominated(a, a)
    if dominated(a, b) and dominated(b, a):
        assert a == b
    if dominated(a, b) and dominated(b, c):
        assert dominated(a, c)


@settings(max_examples=60, deadline=None)
@given(
    sources=st.tuples(_adversary_strategy(2, 3), _adversary_strategy(2, 3)),
    data=st.data(),
)
def test_exact_image_is_composable_and_monotone(sources, data):
    s = semilattice_to_shared(3, 2)
    image = Adversary(
        tuple(op_image(s, [b.coords[i] for b in sources]) for i in range(2))
    )
    assert composable(image, s, list(sources))
    # any coordinate-wise shrink of the image stays composable
    shrunk = []
    for coord in image.coords:
        values = sorted(coord)
        kept = data.draw(st.sets(st.sampled_from(values), min_size=1))
        shrunk.append(frozenset(kept))
    assert composable(Adversary(tuple(shrunk)), s, list(sources))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    width=st.integers(min_value=0, max_value=3),
    base=st.integers(min_value=0, max_value=2),
)
def test_family_count_matches_binomials(n, width, base):
    import math

    fam = adv_family(n, {base}, width, {0, 1, 2})
    expected = sum(math.comb(n, i) for i in range(min(width, n) + 1))
    members = fam.members()
    assert len(members) == len(set(members)) == expected
    for member in members:
        assert member in fam


class TestDominated:
    def test_smallest_member_dominated_by_all(self):
        fam = adv_family(4, {1}, 1, {0, 1})
        bottom = constant_adversary(4, frozenset({1}))
        for member in fam.members():
            assert dominated(bottom, member)

    def test_reflexive(self):
        a = adv({0}, {0, 1})
        assert dominated(a, a)

    def test_full_not_dominated_by_smaller(self):
        assert not dominated(constant_adversary(2, frozenset(range(2))), adv({0}, {0, 1}))

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            dominated(adv({0}), adv({0}, {1}))


class TestComposable:
    def test_minority_recovers_full_from_source(self):
        m = minority_op()
        assert composable(adv({0, 1}), m, [adv({0, 1}), adv({0}), adv({0})])

    def test_projection_composes_anything(self):
        target = adv({0, 1}, {1})
        assert composable(target, projection_op(2, 2, 1), [target, adv({0}, {0})])

    def test_and_with_unit(self):
        assert composable(adv({0, 1}), and_op(), [adv({1}), adv({0, 1})])
        assert composable(adv({0, 1}), and_op(), [adv({0, 1}), adv({1})])

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            composable(adv({0}), and_op(), [adv({0})])

    def test_length_mismatch(self):
        # a source shorter or longer than the target is refused, not cut to
        # the shorter length, and so is a step whose inputs differ in length
        short, long = adv({0, 1}), adv({0, 1}, {1})
        for target, sources in ((short, [long, short]), (long, [long, short]),
                                (long, [short, long])):
            with pytest.raises(StructuralError, match="different length"):
                composable(target, and_op(), sources)
        asm = collapsibility._Assembler(ALGEBRAS["and"], 2, frozenset({1}), 1)
        first = asm.axiom(adv({0, 1}, {1}))
        asm.entries.append(CertEntry(short))  # as a faulty builder might leave it
        for inputs in ((first, 1), (1, first)):
            with pytest.raises(StructuralError, match="different length"):
                asm.step(("gen", 0), inputs)


class TestChainBuilders:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_and_chain(self, n):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, n)
        assert verify_certificate(cert, alg, n)
        assert cert.width == 1 and cert.source == frozenset({1})
        assert len([e for e in cert.entries if e.trace is not None]) == n - 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unit_element_or(self, n):
        alg = ALGEBRAS["or"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, n)
        assert verify_certificate(cert, alg, n)
        assert cert.width == 1 and cert.source == frozenset({0})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_maltsev_chain(self, n):
        alg = ALGEBRAS["minority"]
        cert = build_certificate(CertificateBuilder("maltsev_chain", {"element": 0}), alg, n)
        assert verify_certificate(cert, alg, n)
        assert cert.width == 1 and cert.source == frozenset({0})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_dualdisc_chain(self, n):
        alg = ALGEBRAS["dualdisc3"]
        cert = build_certificate(CertificateBuilder("dualdisc_chain"), alg, n)
        assert verify_certificate(cert, alg, n)
        assert cert.width == 1 and cert.source == frozenset({0, 1})

    @pytest.mark.parametrize("n", range(1, 9))
    def test_near_unanimity_width(self, n):
        alg = ALGEBRAS["majority"]
        cert = build_certificate(
            CertificateBuilder("near_unanimity", {"element": 0}), alg, n
        )
        assert verify_certificate(cert, alg, n)
        assert cert.width == 2 and cert.source == frozenset({0})

    def test_singleton(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("singleton", {"element": 1}), alg, 5)
        assert verify_certificate(cert, alg, 5)
        assert cert.width == 0 and cert.target == frozenset({1})

    def test_wrong_operation_rejected(self):
        with pytest.raises(BuildError):
            build_certificate(CertificateBuilder("maltsev_chain"), ALGEBRAS["and"], 3)

    def test_supplied_operation_is_checked_before_the_chain(self):
        # the chain builders trust their operation, so the identity is
        # checked where the operation is named
        for strategy in TERM_CONDITIONS:
            with pytest.raises(BuildError, match="the operation is not a generator"):
                build_certificate(
                    CertificateBuilder(strategy, {"op": and_op()}), ALGEBRAS["or"], 3
                )
        for strategy in ("maltsev_chain", "dualdisc_chain", "near_unanimity"):
            with pytest.raises(BuildError, match="fails the identity checks"):
                build_certificate(
                    CertificateBuilder(strategy, {"op": and_op()}), ALGEBRAS["and"], 3
                )
        for unit, ok in ((0, False), (1, True)):
            builder = CertificateBuilder("unit_element", {"op": and_op(), "element": unit})
            if ok:
                assert build_certificate(builder, ALGEBRAS["and"], 3).source == frozenset({1})
            else:
                with pytest.raises(BuildError, match="fails the identity checks"):
                    build_certificate(builder, ALGEBRAS["and"], 3)

    def test_non_idempotent_rejected(self):
        flip = from_function("nf", 1, 2, lambda x: 1 - x)
        with pytest.raises(BuildError):
            build_certificate(CertificateBuilder("unit_element"), Algebra(Domain(2), (flip,)), 3)


class TestTwoElementDispatch:
    """The planner on two elements: one term search, and a G-set when it
    fails."""

    @pytest.mark.parametrize(
        "name,source", [("and", {1}), ("or", {0}), ("minority", {0}), ("majority", {0, 1})]
    )
    def test_dispatch(self, name, source):
        alg = ALGEBRAS[name]
        _, cert = certify(alg, 6)
        assert verify_certificate(cert, alg, 6)
        assert cert.width == 1
        assert cert.source == frozenset(source)

    def test_gset_fails(self):
        alg = Algebra(Domain(2), (projection_op(2, 2, 1),))
        with pytest.raises(BuildError, match="G-set"):
            plan_certificate(alg)

    def test_matches_full_arity3_scan_on_generators_else_lifts(self):
        # where the scan's term is a generator the planner picks it; else it
        # lifts, at no greater width than the chain on the scan's term
        lifted = 0
        for alg in dispatch_algebras():
            expected = _full_scan_dispatch(alg)
            assert expected is not None
            names = [g.name for g in alg.generators]
            builder = plan_certificate(alg)
            if expected[1][0] == "gen":
                assert (builder.params["op"], builder.params["trace"]) == expected, names
                continue
            assert builder.strategy == "power_lift", names
            strategy = next(
                name for name, kind in TERM_CONDITIONS.items()
                if kind.holds(expected[0], kind.defaults)
            )
            params = {"op": expected[0], "trace": expected[1]}
            for n in (2, 3, 5):
                chain = build_certificate(CertificateBuilder(strategy, params), alg, n)
                cert = build_certificate(builder, alg, n)
                assert verify_certificate(cert, alg, n)
                assert len(cert.source) == 1 and cert.width <= chain.width, names
            lifted += 1
        assert lifted > 0

    def test_equality_algebra_matches_full_arity3_scan(self):
        alg = _equality_algebra()
        assert len(alg.generators) == 63
        assert _planned_term(alg) == _full_scan_dispatch(alg)

    def test_plan_and_build_run_no_term_closure(self, monkeypatch):
        # a term condition's builder takes a generator or refuses
        caps = record_closure_caps(monkeypatch)
        refused = 0
        for alg in dispatch_algebras() + [_equality_algebra()]:
            names = [g.name for g in alg.generators]
            builder = plan_certificate(alg)
            assert verify_certificate(build_certificate(builder, alg, 3), alg, 3)
            for strategy, kind in TERM_CONDITIONS.items():
                if any(kind.holds(g, kind.defaults) for g in alg.generators):
                    build_certificate(CertificateBuilder(strategy), alg, 3)
                    continue
                with pytest.raises(BuildError, match="no generator satisfies the identity"):
                    build_certificate(CertificateBuilder(strategy), alg, 3)
                refused += 1
            assert caps == [], names
        assert refused > 0


class TestTermSearch:
    def test_condition_order_beats_generator_order(self):
        # the dual discriminator comes first among the generators, but a
        # Mal'tsev term is the cheaper certificate: one source, not two
        affine = from_function("x-y+z", 3, 3, lambda x, y, z: (x - y + z) % 3)
        alg = Algebra(Domain(3), (dual_discriminator(3), affine))
        builder = plan_certificate(alg)
        assert builder.strategy == "maltsev_chain"
        assert builder.params["trace"] == ("gen", 1)
        cert = build_certificate(builder, alg, 3)
        assert verify_certificate(cert, alg, 3)
        assert cert.width == 1 and cert.source == frozenset({0})


def _planned_term(alg: Algebra):
    """The operation and trace the planner chose."""
    builder = plan_certificate(alg)
    return builder.params["op"], builder.params["trace"]


def _equality_algebra() -> Algebra:
    """The idempotent polymorphisms of equality up to arity 3."""
    language = ConstraintLanguage(Domain(2), (eq_rel(),))
    generators, _ = discovered_generators(language)
    return Algebra(Domain(2), generators)


def _full_scan_dispatch(alg: Algebra):
    """Reference dispatch: among the generators, the first unit semilattice,
    else the first Mal'tsev operation, dual discriminator or near-unanimity
    operation; when no generator is one, the same pick from one scan over the
    whole arity-3 term closure; None for a G-set."""

    def pick(ops):
        semilattice = maltsev = dualdisc = nu = None
        for op in ops:
            t = tag_operation(op)
            if semilattice is None and t.semilattice and t.unit_element is not None:
                semilattice = op
            if maltsev is None and t.maltsev:
                maltsev = op
            if dualdisc is None and t.dual_discriminator:
                dualdisc = op
            if nu is None and t.near_unanimity:
                nu = op
        return next((op for op in (semilattice, maltsev, dualdisc, nu) if op is not None), None)

    op = pick(alg.generators)
    if op is not None:
        return op, ("gen", alg.generators.index(op))
    terms = generate_term_operations(alg, 3)
    op = pick(terms.operations)
    return None if op is None else (op, terms.traces[op])


class TestCompositeBuilders:
    def test_power_lift_on_and(self):
        alg = ALGEBRAS["and"]
        for n in (1, 4):
            cert = build_certificate(CertificateBuilder("power_lift"), alg, n)
            assert verify_certificate(cert, alg, n)
            assert cert.width == 1 and cert.source == frozenset({1})

    def test_pair_minimal_on_dualdisc(self):
        alg = ALGEBRAS["dualdisc3"]
        for n in (1, 3):
            cert = build_certificate(CertificateBuilder("pair_minimal"), alg, n)
            assert verify_certificate(cert, alg, n)
            assert len(cert.source) == 1

    def test_pair_minimal_rejects_shared_semilattice(self):
        with pytest.raises(BuildError):
            build_certificate(CertificateBuilder("pair_minimal"), shared_algebra(), 2)

    def test_extends_step(self):
        alg = ALGEBRAS["majority"]
        cert = _build_near_unanimity(alg, 5, ("gen", 0), 3, 1)
        assert verify_certificate(cert, alg, 5)
        assert cert.width == 2

    def test_subalgebra_enlarge(self):
        alg = shared_algebra()
        cert = _enlarge_cert(alg, 3, _build_singleton(alg, 3, 0))
        # {0} is already closed, so nothing grows
        assert cert.target == frozenset({0})
        assert verify_certificate(cert, alg, 3)

    def test_combine_requires_source_containment(self):
        alg = ALGEBRAS["dualdisc3"]
        with pytest.raises(BuildError):
            _combine_certs(alg, 2, _build_singleton(alg, 2, 0), _build_singleton(alg, 2, 2))

    def test_combine_unions_targets(self):
        alg = ALGEBRAS["dualdisc3"]
        cert = _combine_certs(alg, 2, _build_singleton(alg, 2, 0), _build_singleton(alg, 2, 0))
        assert cert.target == frozenset({0})
        assert verify_certificate(cert, alg, 2)


def block_mix_algebra():
    def m4(x, y, z):
        t = (x // 2) ^ (y // 2) ^ (z // 2)
        mixed = len({x // 2, y // 2, z // 2}) > 1
        return 2 * t + (x + y + z + (1 if mixed else 0)) % 2

    return Algebra(Domain(4), (from_function("blockmix", 3, 4, m4),))


def block_meet_algebra():
    def f3(x, y):
        if x < 2 and y < 2:
            return x & y
        if x == 2 and y == 2:
            return 2
        return 1 - (x if x < 2 else y)

    return Algebra(Domain(3), (from_function("meet3", 2, 3, f3),))


class TestQuotientLift:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_two_block_maltsev_quotient(self, n):
        alg = block_mix_algebra()
        cert = build_certificate(CertificateBuilder("quotient_lift"), alg, n)
        assert verify_certificate(cert, alg, n)
        assert cert.width == 1

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_semilattice_quotient(self, n):
        alg = block_meet_algebra()
        cert = build_certificate(CertificateBuilder("quotient_lift"), alg, n)
        assert verify_certificate(cert, alg, n)
        # the quotient semilattice has the singleton block {2} as unit
        assert cert.source == frozenset({2})

    def test_identity_congruence_passthrough(self):
        # AND's maximal proper subalgebras are {0} and {1}, so the lift goes
        # through a quotient isomorphic to AND and relabels nothing
        alg = ALGEBRAS["and"]
        assert disjoint_maximal_congruence(alg).blocks == (frozenset({0}), frozenset({1}))
        lifted = build_certificate(CertificateBuilder("quotient_lift"), alg, 3)
        assert lifted == build_certificate(CertificateBuilder("unit_element"), alg, 3)
        assert verify_certificate(lifted, alg, 3)


class TestVerification:
    def test_broken_containment_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 4)
        entries = list(cert.entries)
        victim = next(i for i, e in enumerate(entries) if e.trace is not None)
        wider = Adversary(tuple(frozenset({0, 1}) for _ in entries[victim].adversary.coords))
        entries[victim] = dataclasses.replace(entries[victim], adversary=wider)
        broken = dataclasses.replace(cert, entries=tuple(entries))
        outcome = verify_certificate(broken, alg, 4)
        assert not outcome and "containment" in outcome.failure

    def test_non_axiom_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 4)
        entries = list(cert.entries)
        entries[0] = CertEntry(constant_adversary(4, frozenset({0})))
        broken = dataclasses.replace(cert, entries=tuple(entries))
        outcome = verify_certificate(broken, alg, 4)
        assert not outcome and "axiom" in outcome.failure

    def test_wrong_trace_detected(self):
        alg = Algebra(Domain(2), (and_op(), or_op()))
        cert = build_certificate(
            CertificateBuilder("unit_element", {"op": and_op()}), alg, 3
        )
        entries = list(cert.entries)
        victim = next(i for i, e in enumerate(entries) if e.trace is not None)
        entries[victim] = dataclasses.replace(entries[victim], trace=("gen", 1))
        broken = dataclasses.replace(cert, entries=tuple(entries))
        outcome = verify_certificate(broken, alg, 3)
        # the step now applies OR, whose image misses the widened coordinate
        assert outcome.failure == f"step {victim}: coordinate containment fails"

    def test_wrong_n_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 4)
        assert not verify_certificate(cert, alg, 5)

    def test_forward_reference_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 3)
        entries = list(cert.entries)
        victim = next(i for i, e in enumerate(entries) if e.trace is not None)
        entries[victim] = dataclasses.replace(
            entries[victim], inputs=(victim,) + entries[victim].inputs[1:]
        )
        broken = dataclasses.replace(cert, entries=tuple(entries))
        outcome = verify_certificate(broken, alg, 3)
        assert not outcome and "forward" in outcome.failure

    def test_result_out_of_range_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 3)
        broken = dataclasses.replace(cert, result=len(cert.entries))
        outcome = verify_certificate(broken, alg, 3)
        assert not outcome and "result" in outcome.failure

    def test_result_not_dominating_detected(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 3)
        axiom_id = next(
            i for i, e in enumerate(cert.entries)
            if e.trace is None and e.adversary != constant_adversary(3, frozenset(range(2)))
        )
        broken = dataclasses.replace(cert, result=axiom_id)
        outcome = verify_certificate(broken, alg, 3)
        assert not outcome and "dominate" in outcome.failure

    def test_negative_input_reference_rejected(self):
        alg = ALGEBRAS["and"]
        cert = parse_certificate(NEGATIVE_REFERENCE_CERT, alg)
        outcome = verify_certificate(cert, alg, 2)
        assert not outcome and "negative" in outcome.failure

    def test_certificate_text_rejects_garbage(self):
        alg = ALGEBRAS["and"]
        with pytest.raises(ParseError, match="line 2"):
            parse_certificate("certificate n=2 width=1 source=1 target=0,1\nnonsense line\nresult 0\n", alg)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("result 2", "result 0\nresult 2", "line 6: second result line"),
            ("result 2", "result 2\ncertificate n=2 width=1 source=1 target=0,1",
             "line 6: second certificate header"),
            (" n=2", " n=3 n=2", "line 1: repeated header key 'n'"),
            ("domain=2", "domain=2 bogus=7", "line 1: unknown header key 'bogus'"),
            ("result 2", "result 2 3", "line 5: bad result line 'result 2 3'"),
            ("step 2", "steps 2", "line 4: unrecognized certificate line 'steps 2: * * <= g0(0, 1)'"),
        ],
        ids=[
            "second-result", "second-header", "repeated-key", "unknown-key", "trailing-tokens",
            "keyword-prefix",
        ],
    )
    def test_certificate_text_rejects_what_the_writer_never_writes(self, old, new, message):
        alg = ALGEBRAS["and"]
        text = serialize_certificate(
            build_certificate(CertificateBuilder("unit_element"), alg, 2), 2
        )
        assert verify_certificate(parse_certificate(text, alg), alg, 2)
        assert text.count(old) == 1
        with pytest.raises(ParseError) as raised:
            parse_certificate(text.replace(old, new), alg)
        assert str(raised.value) == message

    @staticmethod
    def _projection_cert(arity: int, count: int) -> str:
        ids = ", ".join(["0"] * arity)
        steps = "".join(f"step {i}: * <= p{arity}.{i}({ids})\n" for i in range(1, count + 1))
        return (
            "certificate n=1 width=1 source=1 target=0,1 domain=2\naxiom 0: *\n"
            f"{steps}result {count}\n"
        )

    def test_replays_share_one_budget(self, monkeypatch):
        # each p12.i table reads 12 * 2^12 = 49 152 argument cells: two fit
        # in a budget of 100 000, three do not, though each is under it
        alg = ALGEBRAS["and"]
        two, three = (self._projection_cert(12, count) for count in (2, 3))
        parsed = parse_certificate(three, alg)
        monkeypatch.setattr(polymorph, "CHECK_CAP", 100_000)
        assert verify_certificate(parse_certificate(two, alg), alg, 1)
        # the parser replays nothing, so only the verifier charges the budget
        assert parse_certificate(three, alg) == parsed
        with pytest.raises(GuardrailError) as raised:
            verify_certificate(parsed, alg, 1)
        assert str(raised.value) == (
            "trace replays read 147456 argument cells, above the cap of 100000"
        )

    def test_budget_charges_projections_and_compositions(self, monkeypatch):
        # (g0 p2.1 p2.2) builds p2.1 and p2.2 (2 * 2^2 cells each) and AND
        # over them (2 * 2^2): 24 cells; a repeated trace is replayed once
        alg = ALGEBRAS["and"]
        step = "* <= (g0 p2.1 p2.2)(0, 0)"
        text = (
            "certificate n=1 width=1 source=1 target=0,1 domain=2\naxiom 0: *\n"
            f"step 1: {step}\nstep 2: {step}\nresult 2\n"
        )
        parsed = parse_certificate(text, alg)
        monkeypatch.setattr(polymorph, "CHECK_CAP", 24)
        assert verify_certificate(parse_certificate(text, alg), alg, 1)
        monkeypatch.setattr(polymorph, "CHECK_CAP", 23)
        assert parse_certificate(text, alg) == parsed
        with pytest.raises(GuardrailError, match="read 24 argument cells, above the cap of 23$"):
            verify_certificate(parsed, alg, 1)

    def test_serialization_roundtrip(self):
        for name, alg in ALGEBRAS.items():
            builder = plan_certificate(alg)
            cert = build_certificate(builder, alg, 4)
            text = serialize_certificate(cert, alg.domain.size)
            assert parse_certificate(text, alg) == cert


def _random_coord(rng, d: int) -> frozenset[int]:
    mask = rng.randrange(1, 2**d)
    return frozenset(a for a in range(d) if mask >> a & 1)


def _random_adversary(rng, n: int, d: int) -> Adversary:
    return Adversary(tuple(_random_coord(rng, d) for _ in range(n)))


def _tampered(cert, idx: int, **changes):
    entries = list(cert.entries)
    entries[idx] = dataclasses.replace(entries[idx], **changes)
    return dataclasses.replace(cert, entries=tuple(entries))


class TestImageMemo:
    """Set-valued images are kept per operation (`polymorph.op_image`); the
    builder and the verifier read that memo and must decide exactly as the
    memo-free reference images do, however warm the memo is."""

    def test_composable_matches_the_reference(self):
        rng = random.Random(20)
        outcomes = {True: 0, False: 0}
        for d, k in itertools.product((1, 2, 3), (1, 2, 3)):
            for _ in range(6):
                op = Operation("f", k, d, tuple(rng.randrange(d) for _ in range(d**k)))
                for _ in range(40):
                    n = rng.randint(1, 5)
                    sources = [_random_adversary(rng, n, d) for _ in range(k)]
                    images = reference_column_images(op, sources, n)
                    if rng.random() < 0.5:
                        target = Adversary(tuple(
                            frozenset(rng.sample(sorted(im), rng.randint(1, len(im))))
                            for im in images
                        ))
                    else:
                        target = _random_adversary(rng, n, d)
                    expected = all(goal <= im for goal, im in zip(target.coords, images))
                    assert composable(target, op, sources) == expected
                    assert collapsibility._image_adversary(op, sources).coords == tuple(images)
                    column = [sorted(s.coords[0]) for s in sources]
                    assert op_image(op, column) == reference_op_image(op, column)
                    outcomes[expected] += 1
                assert len(op._images) <= (2**d - 1) ** k
        assert min(outcomes.values()) > 200, outcomes

    def test_warm_and_cold_operations_are_equal(self):
        warm, cold = majority_op(), majority_op()
        assert composable(adv({0, 1}), warm, [adv({0}), adv({1}), adv({0, 1})])
        assert warm._images and "_images" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
        assert Algebra(Domain(2), (warm,)) == Algebra(Domain(2), (cold,))

    def _warm_unit_chain(self):
        alg = ALGEBRAS["and"]
        cert = build_certificate(CertificateBuilder("unit_element"), alg, 5)
        assert verify_certificate(cert, alg, 5)
        return alg, cert

    def test_widened_step_rejected_after_warming(self):
        alg, cert = self._warm_unit_chain()
        full = frozenset({0, 1})
        rejected = 0
        for idx, e in enumerate(cert.entries):
            if e.trace is None:
                continue
            sources = [cert.entries[i].adversary for i in e.inputs]
            op = replay_trace(alg, e.trace)
            for pos, image in enumerate(reference_column_images(op, sources, 5)):
                if image == full:
                    continue
                coords = list(e.adversary.coords)
                coords[pos] = full
                outcome = verify_certificate(
                    _tampered(cert, idx, adversary=Adversary(tuple(coords))), alg, 5
                )
                assert outcome.failure == f"step {idx}: coordinate containment fails"
                rejected += 1
        assert rejected >= 6
        assert verify_certificate(cert, alg, 5)

    def test_axiom_outside_the_families_rejected_after_warming(self):
        alg, cert = self._warm_unit_chain()
        full, one = frozenset({0, 1}), frozenset({1})
        axiom = next(i for i, e in enumerate(cert.entries) if e.trace is None)
        for outsider in (
            constant_adversary(5, frozenset({0})),
            Adversary((full, full, one, one, one)),
            Adversary((full, frozenset({0}), one, one, one)),
        ):
            outcome = verify_certificate(_tampered(cert, axiom, adversary=outsider), alg, 5)
            assert outcome.failure == (
                f"axiom {axiom}: not a member of the declared source/width families"
            )

    def test_family_membership_matches_the_two_pass_test(self):
        def two_pass(fam, adversary):
            if len(adversary) != fam.n:
                return False
            wide_at = [i for i, c in enumerate(adversary.coords) if c != fam.base]
            if len(wide_at) > fam.width:
                return False
            return all(adversary.coords[i] == fam.wide for i in wide_at)

        rng = random.Random(7)
        outcomes = {True: 0, False: 0}
        for _ in range(3000):
            d, n = rng.randint(1, 3), rng.randint(1, 4)
            fam = adv_family(n, _random_coord(rng, d), rng.randint(0, 3), _random_coord(rng, d))
            pool = (fam.base, fam.wide, _random_coord(rng, d))
            length = rng.choice((n, n, n, n + 1, max(n - 1, 1)))
            adversary = Adversary(tuple(
                rng.choice(pool[:2] if rng.random() < 0.8 else pool) for _ in range(length)
            ))
            expected = two_pass(fam, adversary)
            assert (adversary in fam) == expected
            outcomes[expected] += 1
        assert min(outcomes.values()) > 500, outcomes


class TestImageWorkCounts:
    """Deterministic counts of the work the memo saves."""

    def test_unit_chain_certify_images_each_column_once(self, monkeypatch):
        computed = collections.Counter()
        held = []  # keeps every counted operation alive, so no id is reused
        real = polymorph._compute_image

        def counting(op, sets):
            held.append(op)
            computed[id(op), sets] += 1
            return real(op, sets)

        monkeypatch.setattr(polymorph, "_compute_image", counting)
        alg = Algebra(Domain(2), (and_op(),))  # a fresh operation: its memo starts cold
        builder, cert = certify(alg, 14)
        assert builder.strategy == "unit_element" and len(cert.entries) == 27
        # built and verified: 13 steps of 14 coordinates each, over the three
        # columns (*, {1}), ({1}, *) and ({1}, {1})
        assert max(computed.values()) == 1 and len(computed) == 3

    def test_verify_replays_each_distinct_trace_once(self, monkeypatch):
        certs = []
        for alg in (*ALGEBRAS.values(), block_mix_algebra(), block_meet_algebra()):
            builder = plan_certificate(alg)
            certs.append((alg, build_certificate(builder, alg, 4)))
        rng = random.Random(3)
        for _ in range(30):
            alg = random_algebra(rng, 3, idempotent=True)
            cert = power_certificate(alg, 3, {0}, 1)
            if cert is not None:
                certs.append((alg, cert))
        calls = collections.Counter()
        real = collapsibility.replay_trace

        def counting(algebra, trace, budget=None):
            calls[trace] += 1
            return real(algebra, trace, budget)

        monkeypatch.setattr(collapsibility, "replay_trace", counting)
        repeated, distinct = 0, 0
        for alg, cert in certs:
            calls.clear()
            assert verify_certificate(cert, alg)
            traces = [e.trace for e in cert.entries if e.trace is not None]
            assert calls == collections.Counter(set(traces))
            repeated += len(traces) - len(set(traces))
            distinct = max(distinct, len(set(traces)))
        assert repeated >= 40 and distinct == 3


def _certificate_texts(jobs) -> list[str]:
    """The serialized certificate, or the refusal, for each (algebra, n) by
    `certify` and each (algebra, n, source, width) by `power_certificate`."""
    out = []
    for alg, n, *power in jobs:
        try:
            if power:
                cert = power_certificate(alg, n, *power)
                if cert is None:
                    out.append("none")
                    continue
            else:
                _, cert = certify(alg, n)
            out.append(serialize_certificate(cert, alg.domain.size))
        except (BuildError, GuardrailError) as err:
            out.append(f"{type(err).__name__}: {err}")
    return out


def test_certificates_are_byte_identical_to_reference_images(monkeypatch):
    # the dispatch generators are shared and may be warm; every other
    # operation here is made afresh for each side
    def jobs():
        out = [
            (Algebra(Domain(2), (op,)), n) for op in DISPATCH_OPERATIONS for n in range(1, 15)
        ]
        out += [(alg, n) for alg in dispatch_algebras() for n in range(1, 15)]
        others = (
            *ALGEBRAS.values(), shared_algebra(), block_mix_algebra(), block_meet_algebra(),
            Algebra(Domain(3), (dual_discriminator(3),)),
        )
        out += [(alg, n) for alg in others for n in (1, 2, 3, 5)]
        rng = random.Random(3)
        for _ in range(12):
            alg = random_algebra(rng, rng.choice((2, 3)), idempotent=True)
            out += [(alg, n, {0}, 1) for n in (2, 3)] + [(alg, 2, {0, 1}, 1)]
        return out

    with monkeypatch.context() as patch:
        patch.setattr(collapsibility, "_column_images", reference_column_images)
        patch.setattr(collapsibility, "op_image", reference_op_image)
        expected = _certificate_texts(jobs())
    texts = _certificate_texts(jobs())
    assert texts == expected
    assert sum(text.startswith("certificate") for text in texts) > 300


def _mutation_sources():
    """Serialized certificates of every builder family the planner picks,
    with their algebras."""
    out = []
    for name, alg in ALGEBRAS.items():
        builder = plan_certificate(alg)
        for n in (2, 3):
            cert = build_certificate(builder, alg, n)
            out.append((name, alg, serialize_certificate(cert, alg.domain.size)))
    return out


MUTATION_SOURCES = _mutation_sources()
COORD = re.compile(r"\*|\{[^}]*\}")
INDEX = re.compile(r"-?\d+")
TRACE_ATOM = re.compile(r"g-?\d+|p-?\d+\.-?\d+")


def _replace_nth(pattern, line, k, new):
    matches = list(pattern.finditer(line))
    if not matches:
        return line
    m = matches[k % len(matches)]
    return line[: m.start()] + new + line[m.end():]


@st.composite
def _mutant(draw):
    name, alg, text = draw(st.sampled_from(MUTATION_SOURCES))
    lines = text.splitlines()
    kinds = ("drop", "swap", "duplicate", "index", "header", "trace", "paren", "coord")
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        i = draw(st.integers(0, len(lines) - 1))
        k = draw(st.integers(0, 8))
        if kind == "drop":
            del lines[i]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind in ("index", "header"):
            if kind == "header":
                i = 0
            value = str(draw(st.integers(-3, len(lines) + 2)))
            lines[i] = _replace_nth(INDEX, lines[i], k, value)
        elif kind == "trace":
            atom = draw(st.sampled_from(
                ["g0", "g1", "g-1", "g7", "p2.1", "p2.2", "p2.0", "p3.3", "p1.2", "(g0 p2.2 p2.1)"]
            ))
            lines[i] = _replace_nth(TRACE_ATOM, lines[i], k, atom)
        elif kind == "paren":
            where = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:where] + draw(st.sampled_from("(),")) + lines[i][where:]
        else:
            coord = draw(st.sampled_from(
                ["*", "{}", "{0}", "{1}", "{2}", "{0,1}", "{0,2}", "{1,2}", "{-1}", "{9}", "* *"]
            ))
            lines[i] = _replace_nth(COORD, lines[i], k, coord)
        if not lines:
            break
    return name, alg, "\n".join(lines) + "\n"


def _replays_from_axioms(cert, alg) -> bool:
    """Independent replay in index order: every axiom lies in a declared
    width-bounded single-source family, every step's adversary is
    composable from earlier entries through the operation its trace
    rebuilds, and the result dominates target^n."""
    full = frozenset(alg.domain.elements())
    if not (cert.source and cert.source <= full and cert.target and cert.target <= full):
        return False
    entries = cert.entries
    for idx, e in enumerate(entries):
        coords = e.adversary.coords
        if len(coords) != cert.n:
            return False
        if e.trace is None:
            if not any(
                all(c in (frozenset({a}), full) for c in coords)
                and sum(c != frozenset({a}) for c in coords) <= cert.width
                for a in cert.source
            ):
                return False
        elif not (
            all(0 <= i < idx for i in e.inputs)
            and all(goal <= image for goal, image in zip(coords, reference_column_images(
                replay_trace(alg, e.trace), [entries[i].adversary for i in e.inputs], cert.n
            )))
        ):
            return False
    if not 0 <= cert.result < len(entries):
        return False
    return all(cert.target <= c for c in entries[cert.result].adversary.coords)


class TestCertificateMutation:
    """Mutated certificate text is refused by the parser or the verifier, or
    else holds up when replayed from its axioms; nothing else escapes."""

    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(_mutant())
    def test_mutants_are_rejected_or_sound(self, mutant):
        _, alg, text = mutant
        try:
            cert = parse_certificate(text, alg)
        except ParseError:
            return
        outcome = verify_certificate(cert, alg)
        assert isinstance(outcome, VerificationResult)
        if outcome:
            assert _replays_from_axioms(cert, alg), text

    def test_sources_are_accepted_unmutated(self):
        for _, alg, text in MUTATION_SOURCES:
            cert = parse_certificate(text, alg)
            assert verify_certificate(cert, alg) and _replays_from_axioms(cert, alg)

    def test_no_family_below_n_one_or_width_zero(self):
        # families need n >= 1 and width >= 0, so no axiom belongs to them; an
        # empty n=0 derivation used to verify
        alg = ALGEBRAS["and"]
        for text in (
            "certificate n=0 width=0 source=1 target=0,1 domain=2\naxiom 0: \nresult 0\n",
            "certificate n=1 width=-1 source=1 target=1 domain=2\naxiom 0: {1}\nresult 0\n",
        ):
            outcome = verify_certificate(parse_certificate(text, alg), alg)
            assert outcome.failure == "axiom 0: not a member of the declared source/width families"

    def test_source_outside_the_universe_rejected(self):
        # width >= n admits the all-* axiom whatever the source element is
        alg = ALGEBRAS["and"]
        text = "certificate n=2 width=2 source=7 target=0,1 domain=2\naxiom 0: * *\nresult 0\n"
        outcome = verify_certificate(parse_certificate(text, alg), alg)
        assert not outcome and "source" in outcome.failure


def brute_force_power(alg, n, source, width):
    """The coordinates of the adversaries derivable from the axiom families,
    by applying every generator, on subsets, to all tuples of them until
    nothing changes."""
    full = frozenset(range(alg.domain.size))
    subsets = [
        frozenset(c) for k in range(1, len(full) + 1) for c in itertools.combinations(full, k)
    ]
    images = [
        {args: op_image(g, args) for args in itertools.product(subsets, repeat=g.arity)}
        for g in alg.generators
    ]
    derived = {m.coords for a in source for m in adv_family(n, {a}, width, full).members()}
    while True:
        new = {
            tuple(image[column] for column in zip(*combo))
            for g, image in zip(alg.generators, images)
            for combo in itertools.product(derived, repeat=g.arity)
        }
        if new <= derived:
            return derived
        derived |= new


def _check_power_certificate(cert, alg, n):
    """Verifies, survives the text format, holds only entries the result
    needs, and every step applies one generator."""
    assert verify_certificate(cert, alg, n)
    text = serialize_certificate(cert, alg.domain.size)
    assert parse_certificate(text, alg) == cert
    assert verify_certificate(parse_certificate(text, alg), alg, n)
    needed, stack = set(), [cert.result]
    while stack:
        i = stack.pop()
        if i not in needed:
            needed.add(i)
            stack.extend(cert.entries[i].inputs)
    assert needed == set(range(len(cert.entries)))
    assert cert.target == frozenset(range(alg.domain.size))
    for e in cert.entries:
        assert e.trace is None or (
            e.trace[0] == "gen" and len(e.inputs) == alg.generators[e.trace[1]].arity
        )


class TestSearch:
    """`power_certificate`: exact per-n certificates from the power algebra."""

    def test_target_already_axiom(self):
        # width n admits the full adversary itself as an axiom
        alg = ALGEBRAS["and"]
        cert = power_certificate(alg, 2, {1}, 2)
        full = constant_adversary(2, frozenset(range(2)))
        assert cert.entries == (CertEntry(full),) and cert.result == 0
        _check_power_certificate(cert, alg, 2)

    def test_and_derivation_found(self):
        alg = ALGEBRAS["and"]
        cert = power_certificate(alg, 2, {1}, 1)
        _check_power_certificate(cert, alg, 2)
        assert serialize_certificate(cert, 2) == (
            "certificate n=2 width=1 source=1 target=0,1 domain=2\n"
            "axiom 0: * {1}\n"
            "axiom 1: {1} *\n"
            "step 2: * * <= g0(0, 1)\n"
            "result 2\n"
        )
        # width 0 leaves only the constant {1}^n, and and maps it to itself
        assert power_certificate(alg, 2, {1}, 0) is None

    def test_shared_semilattice_exhausts(self):
        # exact, not relative to caps: no source, width below n
        alg = shared_algebra()
        for n, width in ((2, 1), (3, 1), (3, 2)):
            assert power_certificate(alg, n, range(3), width) is None
        full = constant_adversary(2, frozenset(range(3)))
        assert full.coords not in brute_force_power(alg, 2, range(3), 1)

    def test_search_subsumes_builders(self):
        # wherever a builder certifies, the power search does at the same
        # n, source and width
        for name, alg in ALGEBRAS.items():
            builders = [plan_certificate(alg)] + [
                CertificateBuilder(strategy) for strategy in TERM_CONDITIONS
            ]
            for builder in builders:
                for n in (1, 2, 3):
                    try:
                        cert = build_certificate(builder, alg, n)
                    except BuildError:
                        continue
                    power = power_certificate(alg, n, cert.source, cert.width)
                    assert power is not None, (name, builder.strategy, n)
                    _check_power_certificate(power, alg, n)

    def test_matches_brute_force_fixed_point(self):
        rng = random.Random(11)
        algebras = [ALGEBRAS[name] for name in ("and", "or", "minority", "majority")]
        algebras += [random_algebra(rng, 2, idempotent=True) for _ in range(8)]
        outcomes = {True: 0, False: 0}
        for alg in algebras:
            for n, width in itertools.product((1, 2, 3), (0, 1, 2)):
                for source in ({0}, {1}, {0, 1}):
                    cert = power_certificate(alg, n, source, width)
                    full = constant_adversary(n, frozenset(range(2)))
                    expected = full.coords in brute_force_power(alg, n, source, width)
                    assert (cert is not None) == expected, (alg, n, source, width)
                    if cert is not None:
                        _check_power_certificate(cert, alg, n)
                    outcomes[expected] += 1
        assert min(outcomes.values()) > 50, outcomes

    def test_refuses_oversized_powers_and_bad_sources(self):
        alg = ALGEBRAS["and"]
        assert power_certificate(alg, 8, {1}, 1) is not None  # 3^8 vectors
        with pytest.raises(GuardrailError, match="cap"):
            power_certificate(alg, 9, {1}, 1)  # 3^9 > POWER_VECTOR_CAP
        for source in (set(), {2}):
            with pytest.raises(BuildError, match="source"):
                power_certificate(alg, 2, source, 1)
        with pytest.raises(BuildError):
            power_certificate(alg, 0, {1}, 1)


def _binary_algebra(table) -> Algebra:
    return Algebra(Domain(3), (Operation("f", 2, 3, tuple(map(int, table))),))


THREE_ELEMENT_BINARIES = [_binary_algebra(table) for table in idempotent_binary_tables(3)]


@functools.lru_cache(maxsize=None)
def _refuted(alg: Algebra, b: int, k: int, n: int) -> bool:
    """No certificate of A^n from Adv(n, {b}, k); kept, as the 729 are
    searched by more than one test."""
    return power_certificate(alg, n, {b}, k) is None


class TestPowerLift:
    """`power_lift`: one exact search at n = k + 1 from one element, grafted
    up to every n."""

    def test_width_1_search_at_2_decides_3_on_the_729(self):
        lifted = set()
        for alg in THREE_ELEMENT_BINARIES:
            for b in range(3):
                refuted = _refuted(alg, b, 1, 2)
                assert refuted == _refuted(alg, b, 1, 3), (alg.generators[0].table, b)
                if not refuted:
                    lifted.add(alg)
        assert len(THREE_ELEMENT_BINARIES) == 729 and len(lifted) == 568

    def test_width_2_search_at_3_decides_4_on_a_seeded_stratum(self):
        # the algebras where width 1 fails from some element, where width 2
        # is the next question; the full k = 2 sweep takes several seconds
        stratum = [
            alg for alg in THREE_ELEMENT_BINARIES
            if any(_refuted(alg, b, 1, 2) for b in range(3))
        ]
        outcomes = collections.Counter()
        for alg in random.Random(26).sample(stratum, 60):
            for b in range(3):
                refuted = _refuted(alg, b, 2, 3)
                assert refuted == _refuted(alg, b, 2, 4), (alg.generators[0].table, b)
                outcomes[refuted] += 1
        assert min(outcomes.values()) > 20, outcomes

    def test_certified_sinks_have_no_lift(self):
        sinks = [
            alg for alg in THREE_ELEMENT_BINARIES
            if detect_sink_candidate(alg).kind == "sink_certified"
        ]
        assert len(sinks) == 15
        for alg in sinks:
            for b, k in itertools.product(range(3), (1, 2)):
                assert _refuted(alg, b, k, k + 1), (alg.generators[0].table, b, k)
            with pytest.raises(BuildError, match=(
                "^no certificate strategy applies: no certificate of width <= 2 "
                "from one element at any n >= 3$"
            )):
                plan_certificate(alg)

    def test_lifts_past_the_power_cap(self):
        alg = _binary_algebra("001011122")
        builder = plan_certificate(alg)
        assert builder.strategy == "power_lift"
        assert builder.params["seed"] == power_certificate(alg, 2, {2}, 1)
        for n in (5, 30):
            cert = build_certificate(builder, alg, n)
            assert verify_certificate(cert, alg, n)
            assert (cert.width, cert.source, cert.target) == (1, frozenset({2}), _full(3))
            with pytest.raises(GuardrailError, match="above the cap"):
                power_certificate(alg, n, {2}, 1)
        # without the planner's seed the builder searches, and finds the same
        assert build_certificate(CertificateBuilder("power_lift"), alg, 30) == cert
        # width 1: the sets derived are the prefixes, one seed replay each
        assert len(cert.entries) <= 30 * len(builder.params["seed"].entries)

    def test_depth_does_not_grow_with_n(self):
        # the position-set recursion runs on an explicit stack
        alg = _binary_algebra("001011122")
        builder = plan_certificate(alg)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            cert = build_certificate(builder, alg, 60)
        finally:
            sys.setrecursionlimit(limit)
        assert verify_certificate(cert, alg, 60)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_lifted_certificate_verifies(self, seed):
        # seeded algebras with up to three generators, and the lift at
        # n = 1..8, each through the text format
        rng = random.Random(seed)
        lifted = 0
        for _ in range(12):
            alg = random_algebra(rng, rng.choice((2, 3)), idempotent=True)
            try:
                builder = CertificateBuilder("power_lift")
                build_certificate(builder, alg, 1)
            except BuildError:
                continue
            lifted += 1
            for n in range(1, 9):
                cert = build_certificate(builder, alg, n)
                assert verify_certificate(cert, alg, n), (seed, n)
                text = serialize_certificate(cert, alg.domain.size)
                assert parse_certificate(text, alg) == cert
                assert len(cert.source) == 1 and cert.target == _full(alg.domain.size)
        assert lifted >= 3

    def test_lifted_width_and_source_decide_formulas(self):
        alg = _binary_algebra("001011122")
        cert = build_certificate(plan_certificate(alg), alg, 1)
        spec = CorpusSpec(
            seed=83, count=40, domain_size=3, max_vars=7, max_universals=4,
            max_constraints=4, closure_ops=alg.generators,
        )
        verdicts = collections.Counter()
        for _, phi in instances(spec):
            reduced = conjunction_verdict(relevant_collapsings(phi, cert.width, cert.source))
            assert reduced == evaluate_truth(phi)
            verdicts[reduced, len(phi.universal_vars) > cert.width] += 1
        # formulas with more universals than the width, where the collapsings
        # differ from the formula, true and false
        assert verdicts[True, True] >= 10 and verdicts[False, True] >= 10, verdicts

    def test_generator_arity_bounds_no_search(self):
        # one 9-ary generator on two elements: it satisfies no term condition,
        # its AND term x & (y | y) is no generator, and its table on subsets
        # would have 3^9 entries, of which the lift reads those it needs
        alg = Algebra(Domain(2), (from_function("f", 9, 2, lambda *x: x[0] & (x[1] | x[2])),))
        builder = plan_certificate(alg)
        assert builder.strategy == "power_lift"
        for n in (3, 5):
            cert = build_certificate(builder, alg, n)
            assert verify_certificate(cert, alg, n)
            assert (cert.width, cert.source) == (1, frozenset({1}))
        # a generator that depends on one argument adds no vector: a G-set
        fifth = from_function("p", 9, 2, lambda *x: x[4])
        with pytest.raises(BuildError, match="the algebra is a G-set$"):
            plan_certificate(Algebra(Domain(2), (fifth,)))

    @pytest.mark.parametrize("d, arity", [(2, 9), (3, 5)])
    def test_seeded_high_arity_generators(self, d, arity):
        # one idempotent generator of high arity: a random table, or a random
        # binary g as g(x1, g(x2, x3)), the other arguments dummies
        def random_table(rng):
            return lambda *x: x[0] if len(set(x)) == 1 else rng.randrange(d)

        def nested_binary(rng):
            g = [[x if x == y else rng.randrange(d) for y in range(d)] for x in range(d)]
            return lambda *x: g[x[0]][g[x[1]][x[2]]]

        outcomes = collections.Counter()
        for kind in (random_table, nested_binary):
            rng = random.Random(1000 * d + arity + (kind is nested_binary) * 7)
            for _ in range(6):
                alg = Algebra(Domain(d), (from_function("f", arity, d, kind(rng)),))
                try:
                    builder, cert = certify(alg, 3)
                except BuildError as err:
                    # a G-set, or no width-2 lift from one element
                    gset = polymorph.is_projection(alg.generators[0])
                    assert ("G-set" in str(err)) == gset, str(err)
                    outcomes["G-set" if gset else "no lift"] += 1
                    continue
                assert verify_certificate(build_certificate(builder, alg, 6), alg, 6)
                outcomes[builder.strategy, cert.width] += 1
        expected = {2: {("power_lift", 1): 10, "G-set": 2}, 3: {("power_lift", 1): 11, "no lift": 1}}
        assert outcomes == expected[d]

    def test_refused_at_the_cap_planning_goes_on(self):
        # five elements: the width-1 searches on 31^2 vectors find nothing,
        # the width-2 search would need 31^3 = 29 791 vectors, and the
        # refusal claims nothing about other n
        def f(x, y, z):
            return x if x == y else 0

        alg = Algebra(Domain(5), (from_function("f", 3, 5, f),))
        assert all(power_certificate(alg, 2, {b}, 1) is None for b in range(5))
        with pytest.raises(GuardrailError, match="29791"):
            power_certificate(alg, 3, {0}, 2)
        with pytest.raises(BuildError) as raised:
            plan_certificate(alg)
        assert "29791" in str(raised.value) and "at any n" not in str(raised.value)


def _full(d: int) -> frozenset[int]:
    return frozenset(range(d))


class TestAlphaBetaProjective:
    alpha, beta = frozenset({0, 2}), frozenset({1, 2})

    def test_shared_semilattice(self):
        assert is_alphabeta_projective(semilattice_to_shared(3, 2), self.alpha, self.beta)

    def test_projection(self):
        assert is_alphabeta_projective(projection_op(3, 2, 2), self.alpha, self.beta)

    def test_dual_discriminator_is_not(self):
        assert not is_alphabeta_projective(dual_discriminator(3), self.alpha, self.beta)

    def test_all_terms_projective(self):
        terms = generate_term_operations(shared_algebra(), 3)
        assert not terms.truncated
        for op in terms.operations:
            assert is_alphabeta_projective(op, self.alpha, self.beta)


class TestSinkDetection:
    def test_shared_semilattice_certified(self):
        verdict = detect_sink_candidate(shared_algebra())
        assert verdict.kind == "sink_certified"

    def test_two_element_never_sink(self):
        for name in ("and", "or", "minority", "majority"):
            assert detect_sink_candidate(ALGEBRAS[name]).kind == "not_sink"

    def test_dualdisc_not_sink_via_certificate(self):
        verdict = detect_sink_candidate(ALGEBRAS["dualdisc3"])
        assert verdict.kind == "not_sink"
        assert "not enclosed" in verdict.reason

    def test_relabeled_sink(self):
        # shared element 0: subalgebras {0,1} and {0,2}
        verdict = detect_sink_candidate(Algebra(Domain(3), (semilattice_to_shared(3, 0),)))
        assert verdict.kind == "sink_certified"

    def test_four_element_inconclusive(self):
        verdict = detect_sink_candidate(block_mix_algebra())
        assert verdict.kind == "inconclusive"

    def test_non_idempotent_rejected(self):
        flip = from_function("nf", 1, 3, lambda x: (x + 1) % 3)
        with pytest.raises(StructuralError):
            detect_sink_candidate(Algebra(Domain(3), (flip,)))


class TestSemanticSoundness:
    def test_composable_winnable_transfer(self):
        # formulas invariant under AND: whenever the sources are winnable and
        # the target composes from them, the target is winnable
        spec = CorpusSpec(
            seed=53, count=40, max_vars=5, max_universals=2, closure_ops=(and_op(),)
        )
        land = and_op()
        checked = 0
        for _, phi in instances(spec):
            n = len(phi.universal_vars)
            if n == 0:
                continue
            members = adv_family(n, {1}, 1, {0, 1}).members()
            for b1, b2 in itertools.product(members, repeat=2):
                if not (reference_game(phi, b1) and reference_game(phi, b2)):
                    continue
                image = Adversary(
                    tuple(
                        op_image(land, [b1.coords[i], b2.coords[i]])
                        for i in range(n)
                    )
                )
                assert composable(image, land, [b1, b2])
                assert reference_game(phi, image)
                checked += 1
        assert checked >= 50

    @pytest.mark.parametrize(
        "algebra_factory,builder,spec_seed,domain_size",
        [
            (block_meet_algebra, CertificateBuilder("quotient_lift"), 61, 3),
            (block_mix_algebra, CertificateBuilder("quotient_lift"), 67, 4),
            (lambda: ALGEBRAS["dualdisc3"], CertificateBuilder("pair_minimal"), 71, 3),
        ],
    )
    def test_hard_builders_imply_reduction_correct(
        self, algebra_factory, builder, spec_seed, domain_size
    ):
        alg = algebra_factory()
        widths = set()
        sources = set()
        for n in (1, 2, 3):
            cert = build_certificate(builder, alg, n)
            assert verify_certificate(cert, alg, n)
            widths.add(cert.width)
            sources.add(cert.source)
        (width,) = widths
        (source,) = sources
        spec = CorpusSpec(
            seed=spec_seed, count=20, domain_size=domain_size, max_vars=4,
            max_universals=2, max_constraints=3, closure_ops=alg.generators,
        )
        for _, phi in instances(spec):
            reduced = conjunction_verdict(relevant_collapsings(phi, width, source))
            assert reduced == evaluate_truth(phi)

    def test_certificate_implies_reduction_correct(self):
        # and-closed corpus decided through the certified (width, source)
        alg = ALGEBRAS["and"]
        builder = plan_certificate(alg)
        spec = CorpusSpec(
            seed=59, count=30, max_vars=6, max_universals=3, closure_ops=(and_op(),)
        )
        for _, phi in instances(spec):
            n = max(len(phi.universal_vars), 1)
            cert = build_certificate(builder, alg, n)
            assert verify_certificate(cert, alg, n)
            reduced = conjunction_verdict(relevant_collapsings(phi, cert.width, cert.source))
            assert reduced == evaluate_truth(phi)
