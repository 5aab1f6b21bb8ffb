"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. Run with `pytest -s tests/test_acceptance.py -v`.
"""

import itertools
import random
import time

from conftest import formula as make_formula
from conftest import idempotent_binary_tables, reference_game, rel
from qcollapse.algebra import enumerate_congruences, enumerate_subalgebras, has_gset_factor
from qcollapse.classify import classify_two_element
from qcollapse.collapse import (
    Collapsing,
    collapsing_to_csp,
    conjunction_verdict,
    enumerate_collapsings,
    relevant_collapsings,
)
from qcollapse.collapsibility import (
    Adversary,
    CertificateBuilder,
    adv_family,
    build_certificate,
    composable,
    detect_sink_candidate,
    is_alphabeta_projective,
    power_certificate,
    verify_certificate,
)
from qcollapse.corpus import CorpusSpec, instances
from qcollapse.cspsolve import solve_csp
from qcollapse.game import evaluate_truth
from qcollapse.model import Algebra, Constraint, Domain, Operation, QuantifiedFormula
from qcollapse.ops import (
    and_op,
    dual_discriminator,
    majority_op,
    minority_op,
    or_op,
    semilattice_to_shared,
)
from qcollapse.polymorph import (
    generate_term_operations,
    is_polymorphism_of_language,
    op_image,
)


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def closed_corpus(seed: int, op: Operation, count: int = 500):
    spec = CorpusSpec(
        seed=seed,
        count=count,
        domain_size=2,
        max_vars=8,
        max_universals=4,
        max_constraints=4,
        closure_ops=(op,),
    )
    return instances(spec)


COLLECTED_COLLAPSINGS: list[QuantifiedFormula] = []


def _equivalence_protocol(criterion, seed, op, width, source, label):
    started = time.monotonic()
    agreements = 0
    for _, phi in closed_corpus(seed, op):
        truth = evaluate_truth(phi)
        collapsings = relevant_collapsings(phi, width, source)
        reduced = conjunction_verdict(collapsings)
        assert reduced == truth, f"{label}: disagreement on a seeded instance"
        agreements += 1
        for col in collapsings:
            COLLECTED_COLLAPSINGS.append(col.result)
    elapsed = time.monotonic() - started
    assert agreements == 500
    return agreements, elapsed


def test_criterion_1_and_collapsibility():
    agreements, elapsed = _equivalence_protocol(
        1, 101, and_op(), 1, {1}, "and-closed (1,1)"
    )
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    report(1, f"500/500 and-closed instances agree via (1,1)-collapsings in {elapsed:.1f}s")


def test_criterion_2_minority_and_majority():
    agreements_min, elapsed_min = _equivalence_protocol(
        2, 103, minority_op(), 1, {0}, "minority-closed (1,0)"
    )
    agreements_maj, elapsed_maj = _equivalence_protocol(
        2, 107, majority_op(), 1, None, "majority-closed width-1"
    )
    report(
        2,
        f"minority 500/500 in {elapsed_min:.1f}s; majority 500/500 in {elapsed_maj:.1f}s",
    )


def test_criterion_3_encoding_soundness():
    if not COLLECTED_COLLAPSINGS:  # criteria 1-2 must have run first
        test_criterion_1_and_collapsibility()
        test_criterion_2_minority_and_majority()
    checked = 0
    for collapsed in COLLECTED_COLLAPSINGS:
        truth = evaluate_truth(collapsed)
        col = Collapsing(collapsed, collapsed.universal_vars, 0)
        encoded = solve_csp(collapsing_to_csp(col)) is not None
        assert encoded == truth, "strategy-variable encoding disagrees with the game oracle"
        checked += 1
    report(3, f"{checked} collapsings from criteria 1-2 all match the game oracle")


def test_criterion_4_composition_semantic_audit():
    rng = random.Random(404)
    ops = [and_op(), or_op(), minority_op(), majority_op()]
    sources_per_op = {
        "and": {1},
        "or": {0},
        "minority": {0},
        "majority": {0, 1},
    }
    confirmed = 0
    attempts = 0
    corpora = {
        op.name: list(closed_corpus(500 + i, op, count=120)) for i, op in enumerate(ops)
    }
    while confirmed < 200:
        attempts += 1
        assert attempts < 20_000, "audit could not assemble 200 tuples"
        op = ops[rng.randrange(len(ops))]
        _, phi = corpora[op.name][rng.randrange(len(corpora[op.name]))]
        n = len(phi.universal_vars)
        if n == 0:
            continue
        members = [
            m
            for a in sources_per_op[op.name]
            for m in adv_family(n, {a}, 1, {0, 1}).members()
        ]
        chosen = [members[rng.randrange(len(members))] for _ in range(op.arity)]
        if not all(reference_game(phi, b) for b in chosen):
            continue
        image = [
            op_image(op, [b.coords[i] for b in chosen]) for i in range(n)
        ]
        target_coords = []
        for coord in image:
            values = sorted(coord)
            keep = [v for v in values if rng.random() < 0.7]
            target_coords.append(frozenset(keep or [values[0]]))
        target = Adversary(tuple(target_coords))
        if not composable(target, op, chosen):
            continue
        assert reference_game(phi, target), "composable target failed to be winnable"
        confirmed += 1
    report(4, f"200 composable targets all winnable ({attempts} sampled tuples)")


def test_criterion_5_family_and_collapsing_exactness():
    fam = adv_family(4, {1}, 1, {0, 1})
    one, full = frozenset({1}), frozenset({0, 1})
    expected = {
        Adversary((full, one, one, one)),
        Adversary((one, full, one, one)),
        Adversary((one, one, full, one)),
        Adversary((one, one, one, full)),
        Adversary((one, one, one, one)),
    }
    assert set(fam.members()) == expected and len(fam.members()) == 5
    r1 = rel("R1", 2, 2, [(0, 0), (1, 1)])
    r2 = rel("R2", 2, 2, [(0, 1), (1, 0)])
    r3 = rel("R3", 3, 2, [(0, 0, 0), (1, 1, 1), (0, 1, 0)])
    phi = make_formula(
        2, "Ay1 Ex1 Ay2 Ay3 Ex2",
        [
            Constraint(r1, ("y1", "x1")),
            Constraint(r2, ("y2", "x2")),
            Constraint(r3, ("y2", "x2", "y3")),
        ],
    )
    cols = enumerate_collapsings(phi, 1, 1)
    assert len(cols) == 4
    report(5, "width-1 single-source family of length 4 has the 5 expected members; "
              "the 3-universal example has exactly 4 collapsings")


def test_criterion_6_certificate_widths():
    cases = [
        ("unit_element", Algebra(Domain(2), (and_op(),)), {}, 1),
        ("unit_element", Algebra(Domain(2), (or_op(),)), {}, 1),
        ("maltsev_chain", Algebra(Domain(2), (minority_op(),)), {"element": 0}, 1),
        ("dualdisc_chain", Algebra(Domain(3), (dual_discriminator(3),)), {}, 1),
        ("near_unanimity", Algebra(Domain(2), (majority_op(),)), {"element": 0}, 2),
        ("near_unanimity", Algebra(Domain(3), (dual_discriminator(3),)), {"element": 1}, 2),
    ]
    for strategy, alg, params, width in cases:
        for n in range(1, 9):
            cert = build_certificate(CertificateBuilder(strategy, dict(params)), alg, n)
            check = verify_certificate(cert, alg, n)
            assert check, f"{strategy} n={n}: {check.failure}"
            assert cert.width == width, f"{strategy} width {cert.width} != {width}"
    report(6, "chain widths 1/1/1 and near-unanimity width k-1 verified for n=1..8")


def test_criterion_7_sink_suite():
    started = time.monotonic()
    alg = Algebra(Domain(3, ("a", "b", "c")), (semilattice_to_shared(3, 2, "s"),))
    pairs = [u for u in enumerate_subalgebras(alg).universes() if len(u) == 2]
    assert sorted(sorted(u) for u in pairs) == [[0, 2], [1, 2]]
    from qcollapse.algebra import is_enclosed, is_fully_connected

    assert is_enclosed(alg)
    assert is_fully_connected(alg).holds
    assert not has_gset_factor(alg)[0]
    terms = generate_term_operations(alg, 3)
    assert not terms.truncated
    alpha, beta = frozenset({0, 2}), frozenset({1, 2})
    for op in terms.operations:
        assert is_alphabeta_projective(op, alpha, beta)
    # exact: no certificate from every source at any width below n
    for n, width in ((2, 1), (3, 1), (3, 2)):
        assert power_certificate(alg, n, range(3), width) is None, (n, width)
    verdict = detect_sink_candidate(alg)
    assert verdict.kind == "sink_certified"
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0, f"criterion 7 took {elapsed:.1f}s (budget 300s)"
    report(
        7,
        f"shared-semilattice sink suite ({len(terms.operations)} term operations "
        f"projective, width < n refuted at n=2, 3, certified) in {elapsed:.1f}s",
    )


def test_criterion_8_binary_sweep():
    started = time.monotonic()
    certified = []
    refuted = []
    three_element_total = 0
    for table in idempotent_binary_tables(3):
        three_element_total += 1
        alg = Algebra(Domain(3), (Operation("f", 2, 3, table),))
        verdict = detect_sink_candidate(alg)
        if verdict.kind == "sink_certified":
            certified.append(alg)
        cert = power_certificate(alg, 2, range(3), 1)
        if cert is None:
            refuted.append(alg)
        else:
            assert verify_certificate(cert, alg, 2)
    assert three_element_total == 729
    # width 1 at n = 2 from every source: the refuted algebras without a
    # G-set factor are exactly the certified sinks
    assert len(refuted) == 143
    assert [alg for alg in refuted if not has_gset_factor(alg)[0]] == certified
    assert len(certified) == 15
    shapes = [semilattice_to_shared(3, shared) for shared in range(3)]
    for alg in certified:
        terms = generate_term_operations(alg, 2)
        assert any(op in shapes for op in terms.operations), (
            "certified sink lacks a relabeled shared-element semilattice term"
        )
    for table in idempotent_binary_tables(2):
        alg = Algebra(Domain(2), (Operation("f", 2, 2, table),))
        assert detect_sink_candidate(alg).kind == "not_sink"
    elapsed = time.monotonic() - started
    assert elapsed <= 600.0, f"criterion 8 took {elapsed:.1f}s (budget 600s)"
    report(
        8,
        f"729 three-element algebras swept, {len(certified)} sinks all contain the "
        f"collapsing semilattice and are the {len(certified)} of {len(refuted)} "
        f"refuted at n=2 without a G-set factor, no two-element sinks, in {elapsed:.1f}s",
    )


def _audit_language(relation, verdict, rng_seed: int, count: int = 100) -> int:
    rng = random.Random(rng_seed)
    domain = Domain(2)
    audited = 0
    for _ in range(count):
        var_count = rng.randint(1, 5)
        names = [f"v{i}" for i in range(var_count)]
        prefix = []
        universals = 0
        for name in names:
            if universals < 2 and rng.random() < 0.5:
                prefix.append(("forall", name))
                universals += 1
            else:
                prefix.append(("exists", name))
        body = []
        for _ in range(rng.randint(1, 3)):
            args = []
            for _ in range(relation.arity):
                if rng.random() < 0.15:
                    args.append(rng.randrange(2))
                else:
                    args.append(names[rng.randrange(var_count)])
            body.append(Constraint(relation, tuple(args)))
        phi = QuantifiedFormula(domain, tuple(prefix), tuple(body))
        truth = evaluate_truth(phi)
        reduced = conjunction_verdict(
            relevant_collapsings(phi, verdict.certificate.width, verdict.certificate.source)
        )
        assert reduced == truth, "certified reduction disagrees with the oracle"
        audited += 1
    return audited


def test_criterion_9_two_element_totality():
    all_rows = list(itertools.product(range(2), repeat=3))
    labels = {"P_certified": 0, "PSPACE_complete_cited": 0}
    audited_languages = 0
    nae_rows = frozenset(set(all_rows) - {(0, 0, 0), (1, 1, 1)})
    for index, mask in enumerate(itertools.product((0, 1), repeat=8)):
        rows = frozenset(row for row, bit in zip(all_rows, mask) if bit)
        relation = rel("T", 3, 2, rows)
        from qcollapse.model import ConstraintLanguage

        verdict = classify_two_element(ConstraintLanguage(Domain(2), (relation,)))
        assert verdict.label in labels, f"unexpected verdict {verdict.label}"
        labels[verdict.label] += 1
        if rows == nae_rows:
            assert verdict.label == "PSPACE_complete_cited"
            assert set(verdict.witness) == {"and", "or", "majority", "minority"}
        if verdict.label == "P_certified":
            from qcollapse.model import ConstraintLanguage as CL

            hits = tuple(
                op
                for op in (and_op(), or_op(), majority_op(), minority_op())
                if is_polymorphism_of_language(op, CL(Domain(2), (relation,)))
            )
            check = verify_certificate(verdict.certificate, Algebra(Domain(2), hits))
            assert check, f"stored certificate failed replay: {check.failure}"
            assert verdict.certificate.width == 1  # tractable two-element cases are width-1
            audited_languages += 1
            _audit_language(relation, verdict, rng_seed=9000 + index, count=100)
    assert labels["P_certified"] + labels["PSPACE_complete_cited"] == 256
    report(
        9,
        f"256 single-ternary-relation languages classified "
        f"({labels['P_certified']} P, {labels['PSPACE_complete_cited']} PSPACE), "
        f"{audited_languages} tractable languages pass the 100-instance audit",
    )


TEST_ALGEBRAS = [
    Algebra(Domain(2), (and_op(),)),
    Algebra(Domain(2), (or_op(),)),
    Algebra(Domain(2), (minority_op(),)),
    Algebra(Domain(2), (majority_op(),)),
    Algebra(Domain(3), (semilattice_to_shared(3, 2),)),
    Algebra(Domain(3), (dual_discriminator(3),)),
    Algebra(Domain(3), (semilattice_to_shared(3, 0), dual_discriminator(3))),
]


def test_criterion_10_congruence_and_pointwise_suites():
    for alg in TEST_ALGEBRAS:
        assert alg.is_idempotent()
        for cong in enumerate_congruences(alg):
            for block in cong.blocks:
                for g in alg.generators:
                    assert op_image(g, [block] * g.arity) <= block
    ops = [and_op(), or_op(), minority_op(), majority_op()]
    rng = random.Random(1010)
    checked = 0
    with_constants = 0
    seed = 0
    while checked < 300:
        op = ops[checked % len(ops)]
        seed += 1
        spec = CorpusSpec(
            seed=7000 + seed, count=1, domain_size=2, max_vars=5,
            max_universals=0, max_constraints=4, constant_chance=0.3,
            closure_ops=(op,),
        )
        (_, phi), = list(instances(spec))
        variables = sorted({v for c in phi.body for v in c.variables})
        if not variables:
            continue
        satisfying = []
        for combo in itertools.product(range(2), repeat=len(variables)):
            env = dict(zip(variables, combo))
            if all(c.holds(env) for c in phi.body):
                satisfying.append(env)
        if not satisfying:
            continue
        has_constants = any(
            isinstance(a, int) for c in phi.body for a in c.args
        )
        chosen = [satisfying[rng.randrange(len(satisfying))] for _ in range(op.arity)]
        image = {v: op(*(env[v] for env in chosen)) for v in chosen[0]}
        assert all(c.holds(image) for c in phi.body), "pointwise image broke a constraint"
        checked += 1
        if has_constants:
            with_constants += 1
    assert with_constants >= 30, "too few constant-containing instances in the suite"
    report(
        10,
        f"congruence blocks closed for {len(TEST_ALGEBRAS)} algebras; "
        f"300 pointwise applications preserve satisfaction",
    )
