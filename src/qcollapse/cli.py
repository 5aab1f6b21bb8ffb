"""Command-line front end.

Verbs: solve, solve-oracle, collapse, reduce, analyze, detect, certify,
verify, classify, sweep, gen. Exit codes: 0 true/success, 1 false/unsat or
failed check, 2 usage, 3 guardrail/refusal, 4 internal error.

Identical (input, flags, seed) produce byte-identical reports: every
enumeration below iterates in a canonical order and all randomness passes
through the seeded corpus generator.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
from pathlib import Path
from typing import Sequence

from . import algebra as algmod
from .classify import (
    classify_conservative,
    classify_three_element,
    classify_two_element,
    discovered_generators,
    planned_dispatch_operation,
)
from .collapse import (
    collapse_verdicts,
    collapsing_to_csp,
    combine_csp,
    conjunction_verdict,
    csp_variable_names,
    relevant_collapsings,
)
from .collapsibility import (
    STRATEGIES,
    Certificate,
    CertificateBuilder,
    certify,
    detect_sink_candidate,
    parse_certificate,
    serialize_certificate,
    verify_certificate,
)
from .corpus import CorpusSpec, instances
from .errors import BuildError, GuardrailError, ParseError, StructuralError
from .game import DEFAULT_NODE_CAP, evaluate_truth
from .model import (
    EXISTS,
    Algebra,
    Constraint,
    Domain,
    Operation,
    QuantifiedFormula,
    parse_document,
    serialize_document,
    serialize_instance,
)
from .ops import and_op, majority_op, minority_op, or_op, semilattice_to_shared
from .polymorph import tag_operation

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_GUARDRAIL = 3
EXIT_INTERNAL = 4

# `certify --strategy` choices: the planner and every builder
CLI_STRATEGIES = ("auto", *STRATEGIES)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(str(err)) from None


def _instance(path: str):
    """The parsed instance file, which must hold a formula."""
    document = parse_document(_read(path))
    if document.formula is None:
        raise ParseError("instance file has no formula")
    return document


def _source(args, domain: Domain) -> frozenset[int] | None:
    """The source constants `--const` or `--source` name; None for every
    element (no flag, or `--source all`)."""
    if args.const is not None:
        if args.source is not None:
            raise StructuralError("--const and --source exclude each other")
        return frozenset((domain.index_of(args.const),))
    if args.source is None or args.source == "all":
        return None
    return frozenset((domain.index_of(args.source),))


def _write(path: Path, text: str):
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as err:
        raise ParseError(str(err)) from None


def _emit(text: str, out: str | None):
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _certificate_for_language(document, n: int) -> Certificate:
    """A verified collapsibility certificate for the instance's language. A
    two-element language's algebra is generated by the first dispatch
    operation, in the planner's order, that preserves it: the planner picks
    the same strategy, width and source there as on every dispatch operation
    that preserves it, which fix the same chain as all its idempotent
    polymorphisms. Any other language's algebra is generated by its
    discovered idempotent polymorphisms."""
    language = document.language
    if language.domain.size == 2:
        op = planned_dispatch_operation(language)
        generators = () if op is None else (op,)
    else:
        generators, _ = discovered_generators(language)
    _, cert = certify(Algebra(language.domain, generators), max(n, 1))
    return cert


def cmd_solve(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    n = len(formula.universal_vars)
    width = args.j
    source = _source(args, formula.domain)
    if not args.unsafe:
        try:
            cert = _certificate_for_language(document, n)
        except (BuildError, GuardrailError) as err:
            raise GuardrailError(
                f"refusing the collapse reduction without a verified certificate "
                f"({err}); pass --unsafe to force"
            ) from None
        if width is None:
            width = cert.width
        if source is None and cert.source != frozenset(range(formula.domain.size)):
            source = cert.source
        if width < cert.width:
            raise GuardrailError(
                f"requested width {width} is below the certified width {cert.width}; "
                "pass --unsafe to force"
            )
        if source is not None and not cert.source <= source:
            names = ",".join(formula.domain.name_of(a) for a in sorted(cert.source))
            raise GuardrailError(
                f"requested source omits certified source elements {{{names}}}; "
                "pass --unsafe to force"
            )
    elif width is None:
        raise StructuralError("--unsafe mode needs an explicit --j")
    if args.format == "tsv":
        rows = collapse_verdicts(formula, width, source)
        verdict = all(ok for _, ok in rows)
        out = ["index\tconstant\tkept\tverdict"]
        for i, (col, ok) in enumerate(rows):
            kept = ",".join(col.kept_universals) or "-"
            out.append(f"{i}\t{formula.domain.name_of(col.constant)}\t{kept}\t{int(ok)}")
        print("\n".join(out))
    else:
        collapsings = relevant_collapsings(formula, width, source)
        verdict = conjunction_verdict(collapsings)
        print(f"collapse verdict: {'true' if verdict else 'false'} "
              f"({len(collapsings)} collapsings, width {width})")
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_solve_oracle(args) -> int:
    result = evaluate_truth(_instance(args.file).formula, node_cap=args.node_cap)
    print("true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def cmd_collapse(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    rows = collapse_verdicts(formula, args.j, _source(args, formula.domain))
    language = document.language
    out = ["index\tconstant\tkept\tverdict\tformula"]
    for i, (col, ok) in enumerate(rows):
        kept = ",".join(col.kept_universals) or "-"
        rendered = serialize_instance(language, col.result).strip().splitlines()[-1]
        out.append(
            f"{i}\t{formula.domain.name_of(col.constant)}\t{kept}\t{int(ok)}\t{rendered}"
        )
    print("\n".join(out))
    return EXIT_TRUE


def cmd_reduce(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    collapsings = relevant_collapsings(formula, args.j, _source(args, formula.domain))
    combined = combine_csp([collapsing_to_csp(c) for c in collapsings], formula.domain.size)
    lines = [f"# combined CSP from {len(collapsings)} collapsings (width {args.j})"]
    names = (
        f"c{k}.{name}" for k, col in enumerate(collapsings) for name in csp_variable_names(col)
    )
    lines.extend(f"# v{i} = {name}" for i, name in enumerate(names))
    # each constraint once, keyed by its printed form
    unique = {(relation.name, args): relation for relation, args in combined.constraints}
    body = tuple(
        Constraint(relation, tuple(f"v{a}" if a >= 0 else ~a for a in args))
        for (_, args), relation in unique.items()
    )
    prefix = tuple((EXISTS, f"v{i}") for i in range(combined.variable_count))
    csp_formula = QuantifiedFormula(formula.domain, prefix, body)
    text = "\n".join(lines) + "\n" + serialize_document(
        formula.domain, document.relations, (), csp_formula
    )
    _emit(text, args.out)
    return EXIT_TRUE


def _algebra_report(alg: Algebra) -> dict:
    subs = algmod.enumerate_subalgebras(alg)
    congruences = algmod.enumerate_congruences(alg)
    factors = algmod.enumerate_factors(alg)
    gset_found, gset_factor = algmod.has_gset_factor(alg)
    strictly = algmod.is_strictly_simple(alg)
    connected = algmod.is_fully_connected(alg)
    report = {
        "universe_size": alg.domain.size,
        "idempotent": alg.is_idempotent(),
        "subalgebras": [
            {
                "universe": sorted(e.universe),
                "proper": e.proper,
                "maximal_proper": e.maximal_proper,
                "nontrivial": e.nontrivial,
            }
            for e in subs.entries
        ],
        "congruences": [
            [sorted(b) for b in c.blocks] for c in congruences
        ],
        "factor_count": len(factors),
        "factor_count_up_to_relabeling": len(
            {algmod.canonical_form(f.quotient) for f in factors}
        ),
        "is_gset": algmod.is_gset(alg),
        "has_gset_factor": gset_found,
        "gset_factor_witness": None
        if gset_factor is None
        else {
            "subalgebra": sorted(gset_factor.universe),
            "blocks": [sorted(b) for b in gset_factor.blocks],
        },
        "strictly_simple": {"holds": strictly.holds, "trivial": strictly.trivial},
        "fully_connected": {"holds": connected.holds, "trivial": connected.trivial},
        "enclosed": algmod.is_enclosed(alg),
    }
    if alg.domain.size >= 2:
        report["pair_minimal"] = algmod.is_pair_minimal(alg)
    disjoint = algmod.disjoint_maximal_congruence(alg)
    report["disjoint_maximal_congruence"] = (
        None if disjoint is None else [sorted(b) for b in disjoint.blocks]
    )
    if alg.is_idempotent() and alg.domain.size <= 3:
        verdict = detect_sink_candidate(alg)
        report["sink"] = {"kind": verdict.kind, "reason": verdict.reason}
    return report


def cmd_analyze(args) -> int:
    document = parse_document(_read(args.file))
    if not document.operations:
        raise ParseError("analyze needs an algebra file with op tables")
    report = _algebra_report(document.algebra)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_TRUE


# the tags `detect` lists for discovered polymorphisms
_DETECTED_TAGS = (
    "semilattice", "maltsev", "majority", "minority", "dual_discriminator", "near_unanimity",
)


def cmd_detect(args) -> int:
    document = parse_document(_read(args.file))
    report: dict = {"operations": {}}
    for op in document.operations:
        report["operations"][op.name] = {"arity": op.arity, **dataclasses.asdict(tag_operation(op))}
    if document.relations:
        generators, caps = discovered_generators(document.language)
        tags = [tag_operation(op) for op in generators]
        report["polymorphisms"] = {
            "caps": caps,
            "count": len(generators),
            "tagged": sorted({name for t in tags for name in _DETECTED_TAGS if getattr(t, name)}),
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_TRUE


def cmd_certify(args) -> int:
    # a strategy reads the builder flags of its parameters; the planner none
    read = STRATEGIES[args.strategy].params if args.strategy != "auto" else ()
    for flag in ("element", "pair", "op"):
        if flag not in read and getattr(args, flag) is not None:
            raise StructuralError(f"--strategy {args.strategy} does not read --{flag}")
    document = parse_document(_read(args.file))
    if not document.operations:
        raise ParseError("certify needs an algebra file with op tables")
    alg = document.algebra
    params: dict = {}
    builder = None
    if args.strategy != "auto":
        if args.element is not None:
            params["element"] = alg.domain.index_of(args.element)
        if args.pair is not None:
            names = args.pair.split(",")
            if len(names) != 2:
                raise StructuralError(f"--pair needs two element names, got {args.pair!r}")
            params["pair"] = tuple(map(alg.domain.index_of, names))
            if params["pair"][0] == params["pair"][1]:
                raise StructuralError(f"--pair needs two different elements, got {args.pair!r}")
        if args.op is not None:
            named = {o.name: o for o in alg.generators}
            if args.op not in named:
                raise StructuralError(f"unknown operation {args.op!r}")
            params["op"] = named[args.op]
        builder = CertificateBuilder(args.strategy, params)
    builder, cert = certify(alg, args.n, builder)
    _emit(f"# strategy {builder.strategy}\n" + serialize_certificate(cert, alg.domain.size), args.out)
    return EXIT_TRUE


def cmd_verify(args) -> int:
    document = parse_document(_read(args.file))
    if not document.operations:
        raise ParseError("verify needs an algebra file with op tables")
    alg = document.algebra
    cert = parse_certificate(_read(args.certificate), alg)
    check = verify_certificate(cert, alg, args.n)
    if check:
        print(f"certificate ok: target {sorted(cert.target)} source {sorted(cert.source)} "
              f"width {cert.width} n {cert.n}")
        return EXIT_TRUE
    print(f"certificate rejected: {check.failure}")
    return EXIT_FALSE


def cmd_classify(args) -> int:
    document = parse_document(_read(args.file))
    language = document.language
    if args.conservative:
        verdict = classify_conservative(language)
    elif language.domain.size == 2:
        verdict = classify_two_element(language)
    elif language.domain.size == 3:
        verdict = classify_three_element(language)
    else:
        raise StructuralError(
            "classification covers two- and three-element domains, plus "
            "--conservative languages"
        )
    payload = {
        "label": verdict.label,
        "citations": list(verdict.citations),
        "caps": verdict.caps,
        "witness": verdict.witness,
    }
    if verdict.certificate is not None:
        payload["reduction"] = {
            "width": verdict.certificate.width,
            "source": sorted(verdict.certificate.source),
        }
        payload["certificate"] = serialize_certificate(
            verdict.certificate, language.domain.size
        ).splitlines()
    print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    return EXIT_TRUE


def _idempotent_binary_tables(d: int):
    cells = [c for c in itertools.product(range(d), repeat=2) if c[0] != c[1]]
    for values in itertools.product(range(d), repeat=len(cells)):
        entries = dict(zip(cells, values))
        table = tuple(
            entries.get((x, y), x) for x, y in itertools.product(range(d), repeat=2)
        )
        yield table


def cmd_sweep(args) -> int:
    rows = []
    sink_count = 0
    for d in (2, 3):
        for table in _idempotent_binary_tables(d):
            op = Operation("f", 2, d, table)
            alg = Algebra(Domain(d), (op,))
            verdict = detect_sink_candidate(alg)
            if verdict.kind == "sink_certified":
                sink_count += 1
            rows.append((d, table, verdict.kind))
    out = ["domain\ttable\tverdict"]
    for d, table, kind in rows:
        out.append(f"{d}\t{''.join(map(str, table))}\t{kind}")
    out.append(f"# sinks certified: {sink_count}")
    _emit("\n".join(out) + "\n", args.out)
    return EXIT_TRUE


_CLOSURES = {
    "none": (),
    "and": (and_op(),),
    "or": (or_op(),),
    "majority": (majority_op(),),
    "minority": (minority_op(),),
}


def cmd_gen(args) -> int:
    closure: tuple[Operation, ...]
    if args.closure == "shared":
        closure = (semilattice_to_shared(args.domain_size, args.domain_size - 1),)
    else:
        closure = _CLOSURES[args.closure]
        for op in closure:
            if op.domain_size != args.domain_size:
                raise StructuralError(
                    f"closure {args.closure} is over a {op.domain_size}-element domain"
                )
    spec = CorpusSpec(
        seed=args.seed,
        count=args.count,
        domain_size=args.domain_size,
        max_vars=args.vars,
        max_universals=args.universals,
        closure_ops=closure,
    )
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ParseError(str(err)) from None
    for i, (language, formula) in enumerate(instances(spec)):
        _write(outdir / f"inst_{i:04d}.txt", serialize_instance(language, formula))
    print(f"wrote {spec.count} instances to {outdir}")
    return EXIT_TRUE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollapse",
        description="Quantified constraint satisfaction via collapsibility",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, summary, file=True):
        p = sub.add_parser(name, help=summary)
        if file:
            p.add_argument("file", help="instance or algebra file")
        return p

    p = verb("solve", "decide via the collapse reduction")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.add_argument("--j", type=non_negative_int, default=None)
    p.add_argument("--const", default=None, help="source element name")
    p.add_argument("--source", default=None, help="'all' or an element name")
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("solve-oracle", help="decide via the game oracle")
    p.add_argument("file", help="instance file")
    p.add_argument("--node-cap", type=positive_int, default=DEFAULT_NODE_CAP, dest="node_cap")
    p.set_defaults(fn=cmd_solve_oracle)

    p = verb("collapse", "list collapsings with verdicts (TSV)")
    p.add_argument("--j", type=non_negative_int, required=True)
    p.add_argument("--const", default=None)
    p.add_argument("--source", default=None)
    p.set_defaults(fn=cmd_collapse)

    p = verb("reduce", "emit the combined CSP file")
    p.add_argument("--j", type=non_negative_int, required=True)
    p.add_argument("--const", default=None)
    p.add_argument("--source", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = verb("analyze", "algebra structural report (JSON)")
    p.set_defaults(fn=cmd_analyze)

    p = verb("detect", "operation tags and polymorphism discovery")
    p.set_defaults(fn=cmd_detect)

    p = verb("certify", "build a collapsibility certificate")
    p.add_argument("--strategy", choices=CLI_STRATEGIES, default="auto")
    p.add_argument("--n", type=positive_int, default=4)
    p.add_argument("--op", default=None, help="generator name for the chain strategies")
    p.add_argument("--element", default=None, help="source/unit element name")
    p.add_argument("--pair", default=None, help="two element names, comma separated")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = verb("verify", "replay a certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--n", type=positive_int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = verb("classify", "complexity classification verdict (JSON)")
    p.add_argument("--conservative", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = verb("sweep", "exhaustive single-binary-generator sink sweep", file=False)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = verb("gen", "seeded random instance corpus", file=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=non_negative_int, default=20)
    p.add_argument("--domain-size", type=positive_int, default=2, dest="domain_size")
    p.add_argument("--vars", type=positive_int, default=6)
    p.add_argument("--universals", type=non_negative_int, default=3)
    p.add_argument(
        "--closure",
        choices=("none", "and", "or", "majority", "minority", "shared"),
        default="none",
    )
    p.set_defaults(fn=cmd_gen)
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    """One parser per process; `parse_args` returns a fresh namespace per call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, StructuralError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except GuardrailError as err:
        print(f"guardrail: {err}", file=sys.stderr)
        return EXIT_GUARDRAIL
    except BuildError as err:
        print(f"no certificate: {err}", file=sys.stderr)
        return EXIT_FALSE
    except Exception as err:  # pragma: no cover - defensive
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
