"""Classification front ends for two-element, three-element, and conservative
constraint languages.

Positive verdicts carry a verified collapsibility certificate; hardness
verdicts carry the algebraic witness (a G-set factor, or the failure of all
four two-element dispatch operations) together with citation tags naming the
classification results relied on. Every capped search embeds its caps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Mapping

from .algebra import Factor, has_gset_factor
from .collapsibility import TERM_CONDITIONS, Certificate, CertificateBuilder, certify
from .errors import BuildError, GuardrailError, StructuralError
from .model import Algebra, ConstraintLanguage, Operation, Relation
from .ops import and_op, majority_op, minority_op, or_op, semilattice_to_shared
from .polymorph import (
    ARITY_CAP,
    CANDIDATE_CAP,
    identity_cells,
    is_polymorphism,
    is_polymorphism_of_language,
    is_projection,
    polymorphism_failure,
    polymorphism_tables,
    polymorphisms_by_arity,
)

SAMPLE_CERTIFICATE_N = 4


@dataclass
class ClassificationVerdict:
    label: str  # P_certified | NP_hard_certified | PSPACE_complete_cited | unresolved | inconclusive
    citations: tuple[str, ...]
    builder: CertificateBuilder | None = None
    certificate: Certificate | None = None
    witness: dict = field(default_factory=dict)
    caps: dict = field(default_factory=dict)


def _certified_p(
    label_citations: tuple[str, ...],
    algebra: Algebra,
    caps: dict,
    builder: CertificateBuilder | None = None,
) -> ClassificationVerdict:
    builder, cert = certify(algebra, SAMPLE_CERTIFICATE_N, builder)
    return ClassificationVerdict(
        "P_certified",
        label_citations,
        builder=builder,
        certificate=cert,
        caps=caps,
    )


DISPATCH_OPERATIONS = (and_op(), or_op(), majority_op(), minority_op())


def _planner_rank(op: Operation) -> int:
    """The position in `TERM_CONDITIONS` of the first condition the
    operation satisfies under its defaults: the planner's preference."""
    return next(
        rank for rank, kind in enumerate(TERM_CONDITIONS.values())
        if kind.holds(op, kind.defaults)
    )


# the dispatch operations in the planner's order (a sort is stable, so AND
# stays before OR, as in the generator order the planner scans)
PLANNER_DISPATCH_ORDER = tuple(sorted(DISPATCH_OPERATIONS, key=_planner_rank))


def _relations_smallest_first(language: ConstraintLanguage) -> list[Relation]:
    """The relations by row count, so the size guard of `polymorphism_failure`
    refuses (GuardrailError) only when every smaller relation is preserved,
    whatever the order of the relations."""
    if language.domain.size != 2:
        raise StructuralError("two-element classification needs a two-element domain")
    return sorted(language.relations, key=lambda rel: len(rel.tuples))


def dispatch_operations(
    language: ConstraintLanguage,
) -> tuple[tuple[Operation, ...], dict[str, str]]:
    """The operations among AND, OR, majority and minority, in that order,
    that preserve the two-element language: every hit, as `classify` lists
    them; and, by operation name, the refusal of each check that met a
    relation over the size guard of `is_polymorphism` before a failure.

    Every idempotent clone on {0,1} other than the projections contains one
    of them (Post's lattice), so they decide the language's QCSP: as an
    algebra's generators they give the planner the same chain kind, width
    and source as all the idempotent polymorphisms would. Each of them
    satisfies a term condition itself, so the planner runs no term closure.
    A unit semilattice is AND or OR, the dual discriminator and the ternary
    near-unanimity operation are majority, and every Mal'tsev operation
    generates minority by arity 3. Each operation meets the smallest
    relations first.
    """
    relations = _relations_smallest_first(language)
    hits, refused = [], {}
    for op in DISPATCH_OPERATIONS:
        try:
            if all(is_polymorphism(op, rel) for rel in relations):
                hits.append(op)
        except GuardrailError as err:
            refused[op.name] = str(err)
    return tuple(hits), refused


def planned_dispatch_operation(language: ConstraintLanguage) -> Operation | None:
    """The first dispatch operation, in the planner's order (AND or OR, then
    minority, then majority), that preserves the two-element language, or
    None. The planner on it alone picks the strategy, width and source it
    picks on all of `dispatch_operations`, and the operations after it are
    never checked. Each operation meets the smallest relations first."""
    relations = _relations_smallest_first(language)
    return next(
        (op for op in PLANNER_DISPATCH_ORDER
         if all(is_polymorphism(op, rel) for rel in relations)),
        None,
    )


def classify_two_element(language: ConstraintLanguage) -> ClassificationVerdict:
    """Complete dichotomy over {0,1}: one of AND, OR, majority, minority as
    polymorphism yields a tractable, certified reduction; otherwise the
    idempotent-polymorphism algebra is a G-set and the problem is cited
    PSPACE-complete. The certificate is over the hits that could be checked,
    and `caps` lists each check over the size guard."""
    hits, refused = dispatch_operations(language)
    caps: dict = {"dispatch_ops": tuple(op.name for op in DISPATCH_OPERATIONS)}
    if refused:
        caps["refused_checks"] = refused
    if hits:
        return _certified_p(
            ("two-element-qcsp-classification", "collapse-reduction-soundness"),
            Algebra(language.domain, hits),
            caps,
        )
    # each witness is the first relation in file order that the operation
    # fails; a relation over the size guard is passed over, and its refusal
    # stands only when no other relation yields a witness
    witnesses = {}
    for op in DISPATCH_OPERATIONS:
        refusal = None
        for rel in language.relations:
            try:
                failure = polymorphism_failure(op, rel)
            except GuardrailError as err:
                refusal = refusal or err
                continue
            if failure is not None:
                rows, image = failure
                witnesses[op.name] = {
                    "relation": rel.name,
                    "rows": rows,
                    "image": image,
                }
                break
        else:
            if refusal is not None:
                raise refusal
    return ClassificationVerdict(
        "PSPACE_complete_cited",
        ("two-element-qcsp-classification",),
        witness=witnesses,
        caps=caps,
    )


def find_polymorphism_with_shape(
    language: ConstraintLanguage,
    arity: int,
    forced: Mapping[tuple[int, ...], int],
    name: str = "shaped",
) -> Operation | None:
    """The first polymorphism, in `itertools.product` order of the free table
    cells, whose table honors the forced entries; None when there is none."""
    table = next(polymorphism_tables(language, arity, forced), None)
    return None if table is None else Operation(name, arity, language.domain.size, table)


@functools.lru_cache(maxsize=16)
def _templates(d: int) -> tuple[tuple[str, str, dict[tuple[int, ...], int]], ...]:
    """The ternary templates as (report name, operation name, forced cells):
    the dual discriminator (every cell), Mal'tsev and majority, each the
    cells of its identity. Built once per domain size and shared, so callers
    must not change the cells."""
    return (
        ("dual_discriminator", "dualdisc", identity_cells("dual_discriminator", d, 3)),
        ("maltsev", "maltsev", identity_cells("maltsev", d, 3)),
        ("majority", "majority", identity_cells("near_unanimity", d, 3)),
    )


def discovered_generators(language: ConstraintLanguage) -> tuple[tuple[Operation, ...], dict]:
    """Idempotent polymorphisms from one sweep over arities 1..ARITY_CAP,
    kept below the first arity that hits a guardrail, topped up with the
    first table of each ternary template when the sweep stopped short of
    arity 3. Projections are dropped since they never constrain the
    structure. The sweep and the templates share each relation's cell tuples
    (`polymorph.relation_cells`), so each relation's are built once per
    arity; the dual discriminator forces every cell, so its table is checked
    without search setup."""
    found: list[Operation] = []
    swept_to = 0
    try:
        for ops in polymorphisms_by_arity(language):
            found.extend(op for op in ops if not is_projection(op))
            swept_to += 1
    except GuardrailError:
        pass
    templates_ran: tuple[str, ...] = ()
    if swept_to < 3:
        templates = _templates(language.domain.size)
        templates_ran = tuple(label for label, _, _ in templates)
        shaped = (find_polymorphism_with_shape(language, 3, f, name) for _, name, f in templates)
        found.extend(op for op in shaped if op is not None)
    caps = {
        "exhaustive_arity": swept_to,
        "arity_cap": ARITY_CAP,
        "candidate_cap": CANDIDATE_CAP,
        "targeted_templates": templates_ran,
    }
    return tuple(found), caps


def _factor_witness(factor: Factor) -> dict:
    return {
        "subalgebra": tuple(sorted(factor.universe)),
        "blocks": tuple(tuple(sorted(b)) for b in factor.blocks),
        "quotient_size": factor.quotient.domain.size,
    }


def _classify_discovered(
    language: ConstraintLanguage,
    citation: str,
    builder: CertificateBuilder | None = None,
) -> ClassificationVerdict:
    """The verdict from the language's discovered idempotent polymorphisms: a
    G-set factor is NP-hard; otherwise a verified certificate (from `builder`,
    or the planner's) makes it P, and a failed one leaves it inconclusive."""
    generators, caps = discovered_generators(language)
    algebra = Algebra(language.domain, generators)
    gset, factor = has_gset_factor(algebra)
    if gset:
        return ClassificationVerdict(
            "NP_hard_certified",
            ("gset-factor-np-hardness", citation),
            witness=_factor_witness(factor),
            caps=caps,
        )
    try:
        return _certified_p((citation, "collapse-reduction-soundness"), algebra, caps, builder)
    except BuildError as err:
        return ClassificationVerdict(
            "inconclusive",
            (citation,),
            witness={"builder_failure": str(err)},
            caps=caps,
        )


def classify_three_element(language: ConstraintLanguage) -> ClassificationVerdict:
    """Classification over a three-element domain, outside the zone where the
    shared-element semilattice is a polymorphism (there the problem is only
    known coNP-hard, and the verdict is `unresolved`)."""
    if language.domain.size != 3:
        raise StructuralError("three-element classification needs a three-element domain")
    for shared in range(3):
        shape = semilattice_to_shared(3, shared)
        if is_polymorphism_of_language(shape, language):
            return ClassificationVerdict(
                "unresolved",
                ("three-element-semilattice-conp-hardness",),
                witness={"semilattice_shared_element": shared},
            )
    return _classify_discovered(language, "three-element-qcsp-classification")


def classify_conservative(language: ConstraintLanguage) -> ClassificationVerdict:
    """Dichotomy for languages containing every nonempty subset of the domain
    as a unary relation: a G-set factor means NP-hard, otherwise every pair of
    elements spans a subalgebra and the pair-minimal builder certifies the
    reduction."""
    d = language.domain.size
    unary = {
        frozenset(t[0] for t in rel.tuples)
        for rel in language.relations
        if rel.arity == 1
    }
    for size in range(1, d + 1):
        for subset in itertools.combinations(range(d), size):
            if frozenset(subset) not in unary:
                raise StructuralError(
                    f"conservative classification needs every nonempty subset as a "
                    f"unary relation; missing {set(subset)}"
                )
    if d == 1:
        return _certified_p(
            ("conservative-qcsp-classification",), Algebra(language.domain, ()), {}
        )
    return _classify_discovered(
        language, "conservative-qcsp-classification", CertificateBuilder("pair_minimal")
    )
