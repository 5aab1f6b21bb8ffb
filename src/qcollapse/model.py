"""Core data model: domains, relations, operations, constraints, quantified
formulas, constraint languages and algebras, plus the line-oriented text format
used to exchange them.

Domain elements are canonical indices 0..d-1 everywhere; external element names
live only in the symbol table kept by :class:`Domain`. All model values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .errors import ParseError, StructuralError

FORALL = "forall"
EXISTS = "exists"


@dataclass(frozen=True)
class Domain:
    """A finite domain of `size` elements named via a symbol table.

    Element i is externally known as names[i]; when no names are given the
    decimal strings "0", "1", ... are used.
    """

    size: int
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.size < 1:
            raise StructuralError("domain size must be >= 1")
        if not self.names:
            object.__setattr__(self, "names", tuple(str(i) for i in range(self.size)))
        if len(self.names) != self.size:
            raise StructuralError(f"expected {self.size} element names, got {len(self.names)}")
        if len(set(self.names)) != self.size:
            raise StructuralError("element names must be distinct")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def elements(self) -> range:
        return range(self.size)

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown element name {name!r}") from None

    def name_of(self, element: int) -> str:
        return self.names[element]


@dataclass(frozen=True)
class Relation:
    """An arity-k relation: a duplicate-free set of k-tuples of elements.

    The name is a display label; equality and hashing are structural. The
    hash is computed once, in `__post_init__`: the CSP solver looks relations
    up by value once per constraint.
    """

    name: str = field(compare=False)
    arity: int
    domain_size: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1:
            raise StructuralError(f"relation {self.name}: arity must be >= 1")
        object.__setattr__(self, "tuples", frozenset(self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise StructuralError(f"relation {self.name}: tuple {t} has wrong arity")
            if any(not (0 <= v < self.domain_size) for v in t):
                raise StructuralError(f"relation {self.name}: tuple {t} out of range")
        object.__setattr__(self, "_hash", hash((self.arity, self.domain_size, self.tuples)))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, t: tuple[int, ...]) -> bool:
        return t in self.tuples

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)


@dataclass(frozen=True)
class Operation:
    """A total k-ary operation stored as a dense table.

    The table is indexed in row-major mixed radix: the entry for arguments
    (a_1, ..., a_k) sits at index a_1*d^(k-1) + ... + a_k. The name is a
    display label; equality and hashing are structural.
    """

    name: str = field(compare=False)
    arity: int
    domain_size: int
    table: tuple[int, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise StructuralError(f"operation {self.name}: arity must be >= 1")
        if self.domain_size < 1:
            raise StructuralError(f"operation {self.name}: empty domain")
        if len(self.table) != self.domain_size**self.arity:
            raise StructuralError(
                f"operation {self.name}: table has {len(self.table)} entries, "
                f"needs {self.domain_size ** self.arity}"
            )
        if any(not (0 <= v < self.domain_size) for v in self.table):
            raise StructuralError(f"operation {self.name}: table value out of range")

    @cached_property
    def _images(self) -> dict[tuple[frozenset[int], ...], frozenset[int]]:
        """`polymorph.op_image`'s memo, argument sets -> image; it lives in
        the instance `__dict__` and takes no part in equality, hash or repr."""
        return {}

    def index(self, args: Sequence[int]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.domain_size + a
        return idx

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise StructuralError(
                f"operation {self.name}: expected {self.arity} arguments, got {len(args)}"
            )
        for a in args:
            if not (0 <= a < self.domain_size):
                raise StructuralError(f"operation {self.name}: argument {a} out of range")
        return self.table[self.index(args)]

    def inputs(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(range(self.domain_size), repeat=self.arity)

    def is_idempotent(self) -> bool:
        return all(self(*(a,) * self.arity) == a for a in range(self.domain_size))


@dataclass(frozen=True)
class Constraint:
    """An application R(w_1, ..., w_k) where each w_i is a variable name or a constant."""

    relation: Relation
    args: tuple["str | int", ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.relation.arity:
            raise StructuralError(
                f"constraint on {self.relation.name}: {len(self.args)} arguments "
                f"for arity {self.relation.arity}"
            )
        for a in self.args:
            if isinstance(a, int) and not (0 <= a < self.relation.domain_size):
                raise StructuralError(f"constraint on {self.relation.name}: constant {a} out of range")

    @cached_property
    def variables(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.args:
            if isinstance(a, str):
                seen.setdefault(a)
        return tuple(seen)

    def holds(self, assignment: Mapping[str, int]) -> bool:
        """Evaluate under a (sufficiently defined) assignment."""
        return tuple(a if isinstance(a, int) else assignment[a] for a in self.args) in self.relation.tuples


@dataclass(frozen=True)
class QuantifiedFormula:
    """A prenex conjunction of constraints: Q_1 v_1 ... Q_m v_m (C_1 & ... & C_r).

    The constructor does not enforce prefix well-formedness; run
    :func:`validate` to collect violations as data.
    """

    domain: Domain
    prefix: tuple[tuple[str, str], ...]  # (quantifier, variable) pairs
    body: tuple[Constraint, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "body", tuple(self.body))
        for q, _ in self.prefix:
            if q not in (FORALL, EXISTS):
                raise StructuralError(f"unknown quantifier {q!r}")

    @cached_property
    def universal_vars(self) -> tuple[str, ...]:
        return tuple(v for q, v in self.prefix if q == FORALL)

    @cached_property
    def existential_vars(self) -> tuple[str, ...]:
        return tuple(v for q, v in self.prefix if q == EXISTS)

    @cached_property
    def universals_before(self) -> dict[str, tuple[str, ...]]:
        """For each existential variable, the universal variables quantified before it."""
        out: dict[str, tuple[str, ...]] = {}
        seen: list[str] = []
        for q, v in self.prefix:
            if q == FORALL:
                seen.append(v)
            else:
                out[v] = tuple(seen)
        return out

    @cached_property
    def body_vars(self) -> frozenset[str]:
        return frozenset(v for c in self.body for v in c.variables)


def validate(formula: QuantifiedFormula) -> list[str]:
    """Return all invariant violations; empty iff the formula is well-formed."""
    violations = []
    seen: set[str] = set()
    for _, v in formula.prefix:
        if v in seen:
            violations.append(f"duplicate prefix variable {v!r}")
        seen.add(v)
    for v in sorted(formula.body_vars):
        if v not in seen:
            violations.append(f"body variable {v!r} missing from prefix")
    for c in formula.body:
        if c.relation.domain_size != formula.domain.size:
            violations.append(f"constraint on {c.relation.name} uses a different domain size")
    return violations


@dataclass(frozen=True)
class ConstraintLanguage:
    """A finite set of named relations over one domain."""

    domain: Domain
    relations: tuple[Relation, ...]

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple(self.relations))
        names = [r.name for r in self.relations]
        if len(set(names)) != len(names):
            raise StructuralError("relation names must be distinct")
        for r in self.relations:
            if r.domain_size != self.domain.size:
                raise StructuralError(f"relation {r.name} is over a different domain")


@dataclass(frozen=True)
class Algebra:
    """A universe together with a finite set of generator operations."""

    domain: Domain
    generators: tuple[Operation, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            if g.domain_size != self.domain.size:
                raise StructuralError(f"generator {g.name} is over a different domain")

    def is_idempotent(self) -> bool:
        return all(g.is_idempotent() for g in self.generators)


# ---------------------------------------------------------------------------
# Text format
#
#   domain 3 a b c            # size, then element names in index order
#   relation R 2              # name, arity; tuple rows follow
#     a b
#     b c
#   op f 2                    # name, arity; one row per input tuple
#     a a -> a
#     ...
#   formula forall y1 exists x1 : R(y1, x1) & R(x1, b)
#
# '#' begins a comment; lines are whitespace-insensitive.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Document:
    """Everything a file may declare; formula and operations are optional."""

    domain: Domain
    relations: tuple[Relation, ...]
    operations: tuple[Operation, ...]
    formula: QuantifiedFormula | None

    @property
    def language(self) -> ConstraintLanguage:
        return ConstraintLanguage(self.domain, self.relations)

    @property
    def algebra(self) -> Algebra:
        return Algebra(self.domain, self.operations)


def _formula_tokens(text: str) -> list[str]:
    for ch in "(),&:":
        text = text.replace(ch, f" {ch} ")
    return text.split()


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.domain: Domain | None = None
        self.relations: list[Relation] = []
        self.operations: list[Operation] = []
        self.formula: QuantifiedFormula | None = None
        # current relation/op block being filled
        self._block: tuple[str, str, int, int] | None = None  # kind, name, arity, start line
        self._rows: list[tuple[int, ...]] = []
        self._op_rows: dict[int, int] = {}

    def fail(self, msg: str, lineno: int):
        raise ParseError(msg, lineno)

    def need_domain(self, lineno: int) -> Domain:
        if self.domain is None:
            self.fail("domain must be declared first", lineno)
        return self.domain

    def element(self, token: str, lineno: int) -> int:
        dom = self.need_domain(lineno)
        if token not in dom._index:
            self.fail(f"unknown element {token!r}", lineno)
        return dom.index_of(token)

    def close_block(self, lineno: int):
        if self._block is None:
            return
        kind, name, arity, start = self._block
        dom = self.need_domain(start)
        if kind == "relation":
            self.relations.append(Relation(name, arity, dom.size, frozenset(self._rows)))
        else:
            total = dom.size**arity
            if len(self._op_rows) != total:
                self.fail(
                    f"op {name}: {len(self._op_rows)} of {total} rows given", lineno
                )
            table = tuple(self._op_rows[i] for i in range(total))
            self.operations.append(Operation(name, arity, dom.size, table))
        self._block = None
        self._rows = []
        self._op_rows = {}

    def parse(self) -> Document:
        for lineno, raw in enumerate(self.lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            head = tokens[0]
            if head in ("domain", "relation", "op", "formula"):
                self.close_block(lineno)
                getattr(self, f"_kw_{head}")(tokens, line, lineno)
            else:
                self._data_row(tokens, lineno)
        self.close_block(len(self.lines) + 1)
        if self.domain is None:
            raise ParseError("no domain declaration found")
        return Document(self.domain, tuple(self.relations), tuple(self.operations), self.formula)

    def _kw_domain(self, tokens, line, lineno):
        if self.domain is not None:
            self.fail("duplicate domain declaration", lineno)
        if len(tokens) < 2:
            self.fail("domain needs a size", lineno)
        try:
            size = int(tokens[1])
        except ValueError:
            self.fail(f"bad domain size {tokens[1]!r}", lineno)
        names = tuple(tokens[2:])
        if names and len(names) != size:
            self.fail(f"domain of size {size} got {len(names)} names", lineno)
        try:
            self.domain = Domain(size, names)
        except StructuralError as e:
            self.fail(str(e), lineno)

    def _kw_block(self, tokens, line, lineno):
        """Open a `relation` or `op` block: `KIND NAME ARITY`."""
        kind = tokens[0]
        if len(tokens) != 3:
            self.fail(f"expected: {kind} NAME ARITY", lineno)
        self.need_domain(lineno)
        name = tokens[1]
        declared = self.relations if kind == "relation" else self.operations
        if any(d.name == name for d in declared):
            self.fail(f"duplicate {kind} {name!r}", lineno)
        try:
            arity = int(tokens[2])
        except ValueError:
            self.fail(f"bad arity {tokens[2]!r}", lineno)
        if arity < 1:
            self.fail(f"{kind} arity must be >= 1", lineno)
        self._block = (kind, name, arity, lineno)

    _kw_relation = _kw_op = _kw_block

    def _data_row(self, tokens, lineno):
        if self._block is None:
            self.fail(f"unexpected line {' '.join(tokens)!r}", lineno)
        kind, name, arity, _ = self._block
        if kind == "relation":
            if len(tokens) != arity:
                self.fail(f"relation {name}: row needs {arity} elements", lineno)
            self._rows.append(tuple(self.element(t, lineno) for t in tokens))
        else:
            if "->" not in tokens:
                self.fail(f"op {name}: row needs '->'", lineno)
            sep = tokens.index("->")
            ins, outs = tokens[:sep], tokens[sep + 1 :]
            if len(ins) != arity or len(outs) != 1:
                self.fail(f"op {name}: row needs {arity} inputs and one output", lineno)
            args = tuple(self.element(t, lineno) for t in ins)
            idx = 0
            for a in args:
                idx = idx * self.domain.size + a
            if idx in self._op_rows:
                self.fail(f"op {name}: duplicate row for {' '.join(ins)}", lineno)
            self._op_rows[idx] = self.element(outs[0], lineno)

    def _kw_formula(self, tokens, line, lineno):
        if self.formula is not None:
            self.fail("duplicate formula declaration", lineno)
        dom = self.need_domain(lineno)
        toks = _formula_tokens(line)[1:]  # drop 'formula'
        prefix: list[tuple[str, str]] = []
        i = 0
        while i < len(toks) and toks[i] in (FORALL, EXISTS):
            if i + 1 >= len(toks) or toks[i + 1] in (":", "(", ")", ",", "&"):
                self.fail(f"{toks[i]} needs a variable", lineno)
            var = toks[i + 1]
            if var in dom._index:
                self.fail(f"prefix variable {var!r} shadows an element name", lineno)
            prefix.append((toks[i], var))
            i += 2
        if i >= len(toks) or toks[i] != ":":
            self.fail("expected ':' after quantifier prefix", lineno)
        i += 1
        prefix_vars = {v for _, v in prefix}
        body: list[Constraint] = []
        while i < len(toks):
            rname = toks[i]
            rel = next((r for r in self.relations if r.name == rname), None)
            if rel is None:
                self.fail(f"undeclared relation {rname!r}", lineno)
            if i + 1 >= len(toks) or toks[i + 1] != "(":
                self.fail(f"expected '(' after {rname}", lineno)
            i += 2
            args: list[str | int] = []
            expect_arg = True
            while i < len(toks) and toks[i] != ")":
                t = toks[i]
                if t == ",":
                    if expect_arg:
                        self.fail("misplaced ','", lineno)
                    expect_arg = True
                elif expect_arg:
                    if t in prefix_vars:
                        args.append(t)
                    elif t in dom._index:
                        args.append(dom.index_of(t))
                    else:
                        self.fail(f"undeclared variable {t!r}", lineno)
                    expect_arg = False
                else:
                    self.fail(f"expected ',' or ')', got {t!r}", lineno)
                i += 1
            if i >= len(toks):
                self.fail("unclosed constraint argument list", lineno)
            i += 1  # skip ')'
            if len(args) != rel.arity:
                self.fail(
                    f"constraint on {rname}: {len(args)} arguments for arity {rel.arity}", lineno
                )
            body.append(Constraint(rel, tuple(args)))
            if i < len(toks):
                if toks[i] != "&":
                    self.fail(f"expected '&' between constraints, got {toks[i]!r}", lineno)
                i += 1
                if i >= len(toks):
                    self.fail("dangling '&'", lineno)
        formula = QuantifiedFormula(dom, tuple(prefix), tuple(body))
        problems = validate(formula)
        if problems:
            self.fail("; ".join(problems), lineno)
        self.formula = formula


def parse_document(text: str) -> Document:
    return _Parser(text).parse()


def serialize_document(
    domain: Domain,
    relations: Sequence[Relation] = (),
    operations: Sequence[Operation] = (),
    formula: QuantifiedFormula | None = None,
) -> str:
    out = [f"domain {domain.size} " + " ".join(domain.names)]
    for r in relations:
        out.append(f"relation {r.name} {r.arity}")
        for t in r.sorted_tuples():
            out.append("  " + " ".join(domain.name_of(v) for v in t))
    for op in operations:
        out.append(f"op {op.name} {op.arity}")
        for args in op.inputs():
            ins = " ".join(domain.name_of(a) for a in args)
            out.append(f"  {ins} -> {domain.name_of(op.table[op.index(args)])}")
    if formula is not None:
        parts = [f"{q} {v}" for q, v in formula.prefix]
        rendered = []
        for c in formula.body:
            args = ", ".join(a if isinstance(a, str) else domain.name_of(a) for a in c.args)
            rendered.append(f"{c.relation.name}({args})")
        out.append("formula " + " ".join(parts) + " : " + " & ".join(rendered))
    return "\n".join(out) + "\n"


def serialize_instance(language: ConstraintLanguage, formula: QuantifiedFormula) -> str:
    return serialize_document(language.domain, language.relations, (), formula)
