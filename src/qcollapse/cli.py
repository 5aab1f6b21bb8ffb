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
)
from .collapse import collapse_verdicts, combine_csp, collapsing_to_csp, relevant_collapsings
from .collapsibility import (
    TERM_CONDITIONS,
    CertificateBuilder,
    build_certificate,
    detect_sink_candidate,
    parse_certificate,
    plan_certificate,
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

# `certify --strategy` choices: the planner and every builder whose parameters
# the flags can supply; extends_step, subalgebra_enlarge and combine_subsets
# nest other builders and are reached from the library only
CLI_STRATEGIES = (
    "auto", "singleton", "and_chain", *TERM_CONDITIONS,
    "strictly_simple", "pair_minimal", "two_element", "quotient_lift",
)


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
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {value}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be >= 1, got {value}")
    return value


def _certificate_for_language(document, n: int, arity_cap: int, count_cap: int):
    """Plan and verify a collapsibility certificate for the instance's
    language, from its discovered idempotent polymorphisms."""
    language = document.language
    generators, caps = discovered_generators(language, arity_cap)
    alg = Algebra(language.domain, generators)
    builder, notes = plan_certificate(alg, count_cap)
    cert = build_certificate(builder, alg, max(n, 1))
    check = verify_certificate(cert, alg, max(n, 1))
    if not check:
        raise BuildError(f"certificate failed verification: {check.failure}")
    return cert, caps, notes


def cmd_solve(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    n = len(formula.universal_vars)
    width = args.j
    source = _source(args, formula.domain)
    if not args.unsafe:
        try:
            cert, _, _ = _certificate_for_language(document, n, args.arity_cap, args.count_cap)
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
    verdict = True
    rows = []
    for col, ok in collapse_verdicts(formula, width, source, width_cap=max(width, 3)):
        verdict = verdict and ok
        rows.append((col, ok))
    if args.format == "tsv":
        out = ["index\tconstant\tkept\tverdict"]
        for i, (col, ok) in enumerate(rows):
            kept = ",".join(col.kept_universals) or "-"
            out.append(f"{i}\t{formula.domain.name_of(col.constant)}\t{kept}\t{int(ok)}")
        print("\n".join(out))
    else:
        print(f"collapse verdict: {'true' if verdict else 'false'} "
              f"({len(rows)} collapsings, width {width})")
    return EXIT_TRUE if verdict else EXIT_FALSE


def cmd_solve_oracle(args) -> int:
    result = evaluate_truth(_instance(args.file).formula, node_cap=args.node_cap)
    print("true" if result else "false")
    return EXIT_TRUE if result else EXIT_FALSE


def cmd_collapse(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    rows = collapse_verdicts(
        formula, args.j, _source(args, formula.domain), width_cap=max(args.j, 3)
    )
    out = ["index\tconstant\tkept\tverdict\tformula"]
    for i, (col, ok) in enumerate(rows):
        kept = ",".join(col.kept_universals) or "-"
        rendered = serialize_instance(document.language, col.result).strip().splitlines()[-1]
        out.append(
            f"{i}\t{formula.domain.name_of(col.constant)}\t{kept}\t{int(ok)}\t{rendered}"
        )
    print("\n".join(out))
    return EXIT_TRUE


def cmd_reduce(args) -> int:
    document = _instance(args.file)
    formula = document.formula
    collapsings = relevant_collapsings(
        formula, args.j, _source(args, formula.domain), width_cap=max(args.j, 3)
    )
    combined = combine_csp(
        [collapsing_to_csp(c.result) for c in collapsings], formula.domain
    )
    rename = {v: f"v{i}" for i, v in enumerate(combined.variables)}
    lines = [f"# combined CSP from {len(collapsings)} collapsings (width {args.j})"]
    for v in combined.variables:
        lines.append(f"# {rename[v]} = {v}")
    body = tuple(
        Constraint(c.relation, tuple(rename[a] if isinstance(a, str) else a for a in c.args))
        for c in combined.constraints
    )
    prefix = tuple((EXISTS, rename[v]) for v in combined.variables)
    csp_formula = QuantifiedFormula(formula.domain, prefix, body)
    text = "\n".join(lines) + "\n" + serialize_document(
        formula.domain, document.relations, (), csp_formula
    )
    _emit(text, args.out)
    return EXIT_TRUE


def _algebra_report(alg: Algebra, count_cap: int) -> dict:
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
        verdict = detect_sink_candidate(alg, count_cap)
        report["sink"] = {"kind": verdict.kind, "reason": verdict.reason}
    return report


def cmd_analyze(args) -> int:
    document = parse_document(_read(args.file))
    if not document.operations:
        raise ParseError("analyze needs an algebra file with op tables")
    report = _algebra_report(document.algebra, args.count_cap)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_TRUE


def cmd_detect(args) -> int:
    document = parse_document(_read(args.file))
    report: dict = {"operations": {}}
    for op in document.operations:
        tags = tag_operation(op)
        report["operations"][op.name] = {
            "arity": op.arity,
            "projection": tags.projection,
            "idempotent": tags.idempotent,
            "semilattice": tags.semilattice,
            "maltsev": tags.maltsev,
            "majority": tags.majority,
            "minority": tags.minority,
            "dual_discriminator": tags.dual_discriminator,
            "near_unanimity": tags.near_unanimity,
            "unit_element": tags.unit_element,
        }
    if document.relations:
        generators, caps = discovered_generators(document.language, args.arity_cap)
        report["polymorphisms"] = {
            "caps": {k: list(v) if isinstance(v, tuple) else v for k, v in caps.items()},
            "count": len(generators),
            "tagged": sorted(
                {
                    name
                    for op in generators
                    for name, flag in (
                        ("semilattice", tag_operation(op).semilattice),
                        ("maltsev", tag_operation(op).maltsev),
                        ("majority", tag_operation(op).majority),
                        ("minority", tag_operation(op).minority),
                        ("dual_discriminator", tag_operation(op).dual_discriminator),
                        ("near_unanimity", tag_operation(op).near_unanimity),
                    )
                    if flag
                }
            ),
        }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_TRUE


def cmd_certify(args) -> int:
    document = parse_document(_read(args.file))
    if not document.operations:
        raise ParseError("certify needs an algebra file with op tables")
    alg = document.algebra
    params: dict = {"count_cap": args.count_cap}
    if args.strategy == "auto":
        builder, notes = plan_certificate(alg, args.count_cap)
    else:
        if args.element is not None:
            params["element"] = alg.domain.index_of(args.element)
            params["source"] = params["element"]
            params["unit"] = params["element"]
        if args.pair is not None:
            names = args.pair.split(",")
            if len(names) != 2:
                raise StructuralError(f"--pair needs two element names, got {args.pair!r}")
            params["pair"] = tuple(map(alg.domain.index_of, names))
        if args.op is not None:
            named = {o.name: o for o in alg.generators}
            if args.op not in named:
                raise StructuralError(f"unknown operation {args.op!r}")
            params["op"] = named[args.op]
        builder, notes = CertificateBuilder(args.strategy, params), []
    cert = build_certificate(builder, alg, args.n)
    check = verify_certificate(cert, alg, args.n)
    if not check:
        raise BuildError(f"built certificate failed verification: {check.failure}")
    header = [f"# strategy {builder.strategy}"]
    header.extend(f"# note: {note}" for note in notes)
    _emit("\n".join(header) + "\n" + serialize_certificate(cert, alg.domain.size), args.out)
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
        verdict = classify_conservative(language, args.arity_cap)
    elif language.domain.size == 2:
        verdict = classify_two_element(language)
    elif language.domain.size == 3:
        verdict = classify_three_element(language, args.arity_cap)
    else:
        raise StructuralError(
            "classification covers two- and three-element domains, plus "
            "--conservative languages"
        )
    payload = {
        "label": verdict.label,
        "citations": list(verdict.citations),
        "caps": {k: list(v) if isinstance(v, tuple) else v for k, v in verdict.caps.items()},
        "witness": {
            k: list(v) if isinstance(v, tuple) else v for k, v in verdict.witness.items()
        },
    }
    if verdict.reduction_width is not None:
        payload["reduction"] = {
            "width": verdict.reduction_width,
            "source": sorted(verdict.reduction_source),
        }
    if verdict.certificate is not None:
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
            verdict = detect_sink_candidate(alg, args.count_cap)
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

    def verb(name, summary, file=True, arity_cap=False, count_cap=False):
        """A verb's parser, with the cap flags only where the verb reads them."""
        p = sub.add_parser(name, help=summary)
        if file:
            p.add_argument("file", help="instance or algebra file")
        if arity_cap:
            p.add_argument("--arity-cap", type=positive_int, default=3, dest="arity_cap")
        if count_cap:
            p.add_argument("--count-cap", type=int, default=2_000, dest="count_cap")
        return p

    p = verb("solve", "decide via the collapse reduction", arity_cap=True, count_cap=True)
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--const", default=None, help="source element name")
    p.add_argument("--source", default=None, help="'all' or an element name")
    p.add_argument("--unsafe", action="store_true")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("solve-oracle", help="decide via the game oracle")
    p.add_argument("file", help="instance file")
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP, dest="node_cap")
    p.set_defaults(fn=cmd_solve_oracle)

    p = verb("collapse", "list collapsings with verdicts (TSV)")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--const", default=None)
    p.add_argument("--source", default=None)
    p.set_defaults(fn=cmd_collapse)

    p = verb("reduce", "emit the combined CSP file")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--const", default=None)
    p.add_argument("--source", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reduce)

    p = verb("analyze", "algebra structural report (JSON)", count_cap=True)
    p.set_defaults(fn=cmd_analyze)

    p = verb("detect", "operation tags and polymorphism discovery", arity_cap=True)
    p.set_defaults(fn=cmd_detect)

    p = verb("certify", "build a collapsibility certificate", count_cap=True)
    p.add_argument("--strategy", choices=CLI_STRATEGIES, default="auto")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--op", default=None, help="generator name for the chain strategies")
    p.add_argument("--element", default=None, help="source/unit element name")
    p.add_argument("--pair", default=None, help="two element names, comma separated")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_certify)

    p = verb("verify", "replay a certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    p = verb("classify", "complexity classification verdict (JSON)", arity_cap=True)
    p.add_argument("--conservative", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = verb("sweep", "exhaustive single-binary-generator sink sweep", file=False, count_cap=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep)

    p = verb("gen", "seeded random instance corpus", file=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=non_negative_int, default=20)
    p.add_argument("--domain-size", type=int, default=2, dest="domain_size")
    p.add_argument("--vars", type=int, default=6)
    p.add_argument("--universals", type=int, default=3)
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
