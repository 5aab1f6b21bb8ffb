"""Adversary algebra and the collapsibility certificate engine.

A certificate is a concrete per-n derivation list: each step asserts that one
adversary is composable, via the term operation its construction trace builds
from the generators, from previously derived adversaries or axioms. Axioms are
exactly the members of the single-source families Adv(n, {a}, w, A) for a in
the source set. Builders emit the instantiated chain for the requested n, and
`power_certificate` decides one n, source and width exactly; verification is
pure finite replay.

Every strategy is one entry of `STRATEGIES`. A term condition's builder takes
a generator that satisfies its identity (`_find_term`, which tries the
conditions of `TERM_CONDITIONS` in priority order: unit element, Mal'tsev,
dual discriminator, near-unanimity), or an operation given with its trace.
`power_lift` grafts one exact search at n = width + 1 up to every n. No
strategy runs a term closure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import (
    disjoint_maximal_congruence,
    enumerate_subalgebras,
    generated_subalgebra,
    has_gset_factor,
    is_enclosed,
    is_fully_connected,
    is_pair_minimal,
    quotient,
    restrict,
)
from .errors import BuildError, GuardrailError, ParseError, StructuralError
from .game import Adversary, constant_adversary
from .model import Algebra, Operation
from .ops import projection_op, semilattice_to_shared
from .polymorph import (
    ReplayBudget,
    Trace,
    close_vectors,
    op_image,
    parse_trace,
    replay_trace,
    satisfies,
    trace_to_str,
    unit_element,
)

# the largest power P(A)^n whose vectors `power_certificate` searches
POWER_VECTOR_CAP = 10_000


# ---------------------------------------------------------------------------
# Adversary families, domination, composability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdversaryFamily:
    """The length-n adversaries equal to `wide` on at most `width` coordinates
    and to `base` everywhere else."""

    n: int
    base: frozenset[int]
    width: int
    wide: frozenset[int]

    def __post_init__(self):
        if not self.base or not self.wide:
            raise StructuralError("adversary coordinates must be nonempty")
        if self.n < 1 or self.width < 0:
            raise StructuralError("family needs n >= 1 and width >= 0")

    def member(self, positions: Iterable[int]) -> Adversary:
        chosen = set(positions)
        return Adversary(
            tuple(self.wide if i in chosen else self.base for i in range(self.n))
        )

    def members(self) -> list[Adversary]:
        """Enumerated by |S| ascending then lexicographic position set."""
        if self.base == self.wide:
            return [self.member(())]
        out = []
        for size in range(min(self.width, self.n) + 1):
            for positions in itertools.combinations(range(self.n), size):
                out.append(self.member(positions))
        return out

    def __contains__(self, adv: Adversary) -> bool:
        if len(adv) != self.n:
            return False
        base, wide = self.base, self.wide
        widened = 0
        for c in adv.coords:
            if c != base:
                if c != wide:
                    return False
                widened += 1
        return widened <= self.width


def adv_family(n: int, base: Iterable[int], width: int, wide: Iterable[int]) -> AdversaryFamily:
    return AdversaryFamily(n, frozenset(base), width, frozenset(wide))


def dominated(a: Adversary, b: Adversary) -> bool:
    """True iff every coordinate of `a` is contained in the matching one of `b`."""
    if len(a) != len(b):
        raise StructuralError("adversaries of different length")
    return all(x <= y for x, y in zip(a.coords, b.coords))


def _column_images(
    op: Operation, sources: Sequence[Adversary], n: int, budget: ReplayBudget | None = None
) -> list[frozenset[int]]:
    """The element-wise image of the sources' coordinates at each of the n
    positions, read from the operation's image memo (`op_image`). An image
    the memo lacks is charged to `budget`, when one is given, before it is
    computed."""
    for s in sources:
        if len(s) != n:
            raise StructuralError("adversaries of different length")
    memo = op._images
    images = []
    for column in zip(*(s.coords for s in sources)):
        image = memo.get(column)
        if image is None:
            if budget is not None:
                budget.charge_image(op, column)
            image = op_image(op, column)
        images.append(image)
    return images


def composable(
    target: Adversary, op: Operation, sources: Sequence[Adversary],
    budget: ReplayBudget | None = None,
) -> bool:
    """target <| op(sources): every coordinate of the target is inside the
    element-wise image of the sources' matching coordinates. The images the
    operation's memo lacks are charged to `budget`, when one is given."""
    if len(sources) != op.arity:
        raise StructuralError(f"operation {op.name}: expected {op.arity} source adversaries")
    images = _column_images(op, sources, len(target), budget)
    return all(goal <= image for goal, image in zip(target.coords, images))


def _image_adversary(op: Operation, sources: Sequence[Adversary]) -> Adversary:
    return Adversary(tuple(_column_images(op, sources, len(sources[0]))))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertEntry:
    """An axiom (trace is None) or a derivation step: the term operation the
    trace builds, applied to the inputs' adversaries."""

    adversary: Adversary
    trace: Trace | None = None
    inputs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Certificate:
    """Derivation showing target^n is composable from the width-bounded
    single-source adversary families of `source`."""

    target: frozenset[int]
    source: frozenset[int]
    width: int
    n: int
    entries: tuple[CertEntry, ...]
    result: int


@dataclass
class VerificationResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _axiom_families(
    n: int, source: frozenset[int], width: int, domain_size: int
) -> list[AdversaryFamily]:
    """The families Adv(n, {a}, width, A), a in the source, whose members are
    a certificate's axioms; none when n < 1 or width < 0."""
    full = frozenset(range(domain_size))
    try:
        return [adv_family(n, (a,), width, full) for a in sorted(source)]
    except StructuralError:
        return []


def verify_certificate(
    certificate: Certificate, algebra: Algebra, n: int | None = None
) -> VerificationResult:
    """Replay every step's trace, check its containment, check the axioms
    belong to the declared families, and check the final adversary dominates
    target^n. Returns the first failure as a diagnostic.

    Each distinct trace is replayed once per call. The replays share one
    `ReplayBudget`, and the set images the containment checks compute are
    charged to it too: past it, GuardrailError."""
    d = algebra.domain.size
    if n is not None and certificate.n != n:
        return VerificationResult(False, f"certificate is for n={certificate.n}, not n={n}")
    n = certificate.n
    if not certificate.source:
        return VerificationResult(False, "empty source set")
    if not certificate.source <= frozenset(range(d)):
        return VerificationResult(False, "source set leaves the universe")
    if not certificate.target or not certificate.target <= frozenset(range(d)):
        return VerificationResult(False, "target is not a nonempty subset of the universe")
    families = _axiom_families(n, certificate.source, certificate.width, d)
    replayed: dict[Trace, Operation] = {}
    budget = ReplayBudget()
    for idx, e in enumerate(certificate.entries):
        if len(e.adversary) != n:
            return VerificationResult(False, f"entry {idx}: adversary length != n")
        if e.trace is None:
            if not any(e.adversary in family for family in families):
                return VerificationResult(
                    False,
                    f"axiom {idx}: not a member of the declared source/width families",
                )
            continue
        bad = [i for i in e.inputs if not 0 <= i < idx]
        if bad:
            return VerificationResult(
                False, f"step {idx}: input {bad[0]} is a forward or negative reference"
            )
        op = replayed.get(e.trace)
        if op is None:
            try:
                op = replayed[e.trace] = replay_trace(algebra, e.trace, budget)
            except (StructuralError, IndexError) as err:
                return VerificationResult(False, f"step {idx}: trace replay failed: {err}")
        if len(e.inputs) != op.arity:
            return VerificationResult(
                False, f"step {idx}: {len(e.inputs)} inputs for an arity-{op.arity} operation"
            )
        sources = [certificate.entries[i].adversary for i in e.inputs]
        try:
            if not composable(e.adversary, op, sources, budget):
                return VerificationResult(False, f"step {idx}: coordinate containment fails")
        except StructuralError as err:
            return VerificationResult(False, f"step {idx}: {err}")
    if not (0 <= certificate.result < len(certificate.entries)):
        return VerificationResult(False, "result id out of range")
    final = certificate.entries[certificate.result].adversary
    goal = constant_adversary(n, certificate.target)
    if not dominated(goal, final):
        return VerificationResult(False, "final adversary does not dominate target^n")
    return VerificationResult(True)


class _Assembler:
    """Accumulates certificate entries, deduplicating by derived adversary and
    recording each step's adversary as the exact image of its inputs. Each
    distinct trace is replayed once on the algebra; a generator's replay is
    the generator itself, whose image memo is kept."""

    def __init__(self, algebra: Algebra, n: int, source: frozenset[int], width: int):
        self.algebra = algebra
        self.ops: dict[Trace, Operation] = {}
        self.n = n
        self.source = source
        self.width = width
        self.entries: list[CertEntry] = []
        self.index: dict[Adversary, int] = {}
        self.families = _axiom_families(n, source, width, algebra.domain.size)

    def adversary_of(self, ref: int) -> Adversary:
        return self.entries[ref].adversary

    def axiom(self, adv: Adversary) -> int:
        if not any(adv in family for family in self.families):
            raise BuildError(
                f"internal: {adv.coords} is outside the declared axiom families"
            )
        existing = self.index.get(adv)
        if existing is not None:
            return existing
        self.entries.append(CertEntry(adv))
        self.index[adv] = len(self.entries) - 1
        return len(self.entries) - 1

    def step(self, trace: Trace, inputs: Sequence[int]) -> int:
        op = self.ops.get(trace)
        if op is None:
            op = self.ops[trace] = replay_trace(self.algebra, trace)
        if len(inputs) != op.arity:
            raise BuildError(f"internal: {op.name} needs {op.arity} inputs")
        sources = [self.entries[i].adversary for i in inputs]
        image = _image_adversary(op, sources)
        existing = self.index.get(image)
        if existing is not None:
            return existing
        self.entries.append(CertEntry(image, trace, tuple(inputs)))
        self.index[image] = len(self.entries) - 1
        return len(self.entries) - 1

    def finish(self, target: frozenset[int], result: int) -> Certificate:
        return Certificate(target, self.source, self.width, self.n, tuple(self.entries), result)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@dataclass
class CertificateBuilder:
    """A strategy of `STRATEGIES`, by name, with its parameters. A term
    condition's builder takes its operation from the `op` and `trace`
    parameters, or else from `_find_term`; `power_lift` grafts the certificate
    `seed`, or else searches; `quotient_lift` takes the quotient's builder from
    `inner`, or else from the planner.
    """

    strategy: str
    params: dict = field(default_factory=dict)


def _require_idempotent(algebra: Algebra):
    if not algebra.is_idempotent():
        raise BuildError("certificate builders require an idempotent algebra")


def _require_n(n: int):
    if n < 1:
        raise BuildError("certificates are built per n >= 1")


def _full_set(algebra: Algebra) -> frozenset[int]:
    return frozenset(range(algebra.domain.size))


def _build_singleton(algebra: Algebra, n: int, element: int) -> Certificate:
    if not (0 <= element < algebra.domain.size):
        raise BuildError(f"element {element} out of range")
    asm = _Assembler(algebra, n, frozenset((element,)), 0)
    ref = asm.axiom(constant_adversary(n, frozenset((element,))))
    return asm.finish(frozenset((element,)), ref)


def _build_unit_chain(algebra: Algebra, n: int, trace: Trace, unit: int) -> Certificate:
    """Width-1 chain for a binary operation with a unit element: at each step
    the next coordinate is released to the full domain."""
    full = _full_set(algebra)
    asm = _Assembler(algebra, n, frozenset((unit,)), 1)
    fam = adv_family(n, (unit,), 1, full)
    prev = asm.axiom(fam.member((0,)))
    for i in range(1, n):
        prev = asm.step(trace, (prev, asm.axiom(fam.member((i,)))))
    return asm.finish(full, prev)


def _build_maltsev_chain(algebra: Algebra, n: int, trace: Trace, source: int) -> Certificate:
    full = _full_set(algebra)
    asm = _Assembler(algebra, n, frozenset((source,)), 1)
    fam = adv_family(n, (source,), 1, full)
    base = asm.axiom(fam.member(()))
    prev = asm.axiom(fam.member((0,)))
    for i in range(1, n):
        prev = asm.step(trace, (prev, base, asm.axiom(fam.member((i,)))))
    return asm.finish(full, prev)


def _build_dualdisc_chain(algebra: Algebra, n: int, trace: Trace, b: int, c: int) -> Certificate:
    """Two width-1 chains advanced in lockstep, one per tracked source element."""
    full = _full_set(algebra)
    if b == c:
        raise BuildError("the two tracked source elements must differ")
    asm = _Assembler(algebra, n, frozenset((b, c)), 1)
    fam_b = adv_family(n, (b,), 1, full)
    fam_c = adv_family(n, (c,), 1, full)
    prev_b = asm.axiom(fam_b.member((0,)))
    prev_c = asm.axiom(fam_c.member((0,)))
    for i in range(1, n):
        next_b = asm.step(trace, (prev_b, prev_c, asm.axiom(fam_b.member((i,)))))
        next_c = asm.step(trace, (prev_c, prev_b, asm.axiom(fam_c.member((i,)))))
        prev_b, prev_c = next_b, next_c
    return asm.finish(full, prev_b)


def _widen(adv: Adversary, positions: frozenset[int], full: frozenset[int]) -> Adversary:
    return Adversary(
        tuple(full if i in positions else c for i, c in enumerate(adv.coords))
    )


def _reachable(root, inputs_of: Callable) -> set:
    """`root` and everything it is derived from, following `inputs_of`."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(inputs_of(node))
    return seen


def _graft(asm: _Assembler, cert: Certificate, resolve_axiom: Callable[[Adversary], int]) -> int:
    """Re-emit the ancestry of the certificate's result into the assembler,
    mapping axioms through `resolve_axiom`, replaying every step's trace on
    the assembler's algebra and recomputing its adversary as the exact image
    of its (possibly enlarged) inputs."""
    local: dict[int, int] = {}
    for idx in sorted(_reachable(cert.result, lambda i: cert.entries[i].inputs)):
        e = cert.entries[idx]
        if e.trace is None:
            local[idx] = resolve_axiom(e.adversary)
        else:
            local[idx] = asm.step(e.trace, tuple(local[i] for i in e.inputs))
    return local[cert.result]


def _derive_by_positions(asm: _Assembler, axioms: AdversaryFamily, split: Callable) -> int:
    """The entry of the adversary wide on all n positions, by recursion on
    the set of wide positions: a member of `axioms` for at most its width of
    them; otherwise `split(positions)` gives the smaller sets it needs and a
    function that makes it from their entries. Each set is derived once,
    after the sets it needs, depth first and in their order, on an explicit
    stack, as the depth grows with n."""
    n = axioms.n
    made: dict[frozenset[int], int] = {}
    stack = [frozenset(range(n))]
    while stack:
        positions = stack[-1]
        if positions in made:
            stack.pop()
        elif len(positions) <= axioms.width:
            made[stack.pop()] = asm.axiom(axioms.member(positions))
        else:
            needed, make = split(positions)
            missing = [p for p in needed if p not in made]
            if missing:
                stack.extend(reversed(missing))
            else:
                made[stack.pop()] = make([made[p] for p in needed])
    return made[frozenset(range(n))]


def _lift_cert(algebra: Algebra, n: int, seed: Certificate) -> Certificate:
    """Graft a certificate of A^(k+1) from Adv(k+1, {b}, k) up to A^n (the
    argument is `plan_certificate`'s). The adversary wide on a set X of more
    than k positions is the seed replayed with its first coordinate standing
    for X less its last k positions and each other coordinate for one of
    those: each seed axiom becomes the adversary wide on the positions its
    wide coordinates stand for, fewer than |X|. At width 1 the sets derived
    are the prefixes, so the certificate grows linearly in n."""
    full = _full_set(algebra)
    base, k = seed.source, seed.width
    asm = _Assembler(algebra, n, base, k)
    axioms = adv_family(n, base, k, full)
    seed_axioms = [e.adversary for e in seed.entries if e.trace is None]

    def split(positions: frozenset[int]) -> tuple[list, Callable]:
        ordered = sorted(positions)
        blocks = [ordered[:-k]] + [[p] for p in ordered[-k:]]
        wide = {adv: frozenset(p for block, c in zip(blocks, adv.coords) if c != base
                               for p in block)
                for adv in seed_axioms}
        needed = list(wide.values())

        def make(refs: list[int]) -> int:
            ref_of = dict(zip(needed, refs))
            return _graft(asm, seed, lambda adv: ref_of[wide[adv]])

        return needed, make

    return asm.finish(full, _derive_by_positions(asm, axioms, split))


def _enlarge_cert(algebra: Algebra, n: int, inner: Certificate) -> Certificate:
    """Close every coordinate of the inner result to its generated subalgebra
    by repeatedly applying escaping generators to the whole adversary."""
    asm = _Assembler(algebra, n, inner.source, inner.width)
    ref = _graft(asm, inner, lambda adv: asm.axiom(adv))
    while True:
        adv = asm.adversary_of(ref)
        escaping = None
        for gi, g in enumerate(algebra.generators):
            if any(
                not op_image(g, [c] * g.arity) <= c for c in set(adv.coords)
            ):
                escaping = (gi, g)
                break
        if escaping is None:
            break
        gi, g = escaping
        ref = asm.step(("gen", gi), (ref,) * g.arity)
    target = generated_subalgebra(algebra, sorted(inner.target))
    return asm.finish(target, ref)


def _combine_certs(
    algebra: Algebra, n: int, first: Certificate, second: Certificate
) -> Certificate:
    """Union of two collapsible subsets; the second's source must sit inside
    the first's target set, and widths add. Each axiom of the second is
    replaced by the first's derivation widened at the axiom's full
    coordinates."""
    full = _full_set(algebra)
    if not second.source <= first.target:
        raise BuildError("the second source must be contained in the first target set")
    width = first.width + second.width
    asm = _Assembler(algebra, n, first.source, width)
    widened: dict[frozenset[int], int] = {}

    def resolve(adv: Adversary) -> int:
        wide = frozenset(i for i, c in enumerate(adv.coords) if c == full)
        ref = widened.get(wide)
        if ref is None:
            ref = _graft(asm, first, lambda a: asm.axiom(_widen(a, wide, full)))
            widened[wide] = ref
        return ref

    result = _graft(asm, second, resolve)
    return asm.finish(first.target | second.target, result)


def _relabel_cert(algebra: Algebra, cert: Certificate, label: Sequence[int]) -> Certificate:
    """Replay a certificate of an algebra on at least two elements (a
    subalgebra or a quotient, which keeps the generator order) inside
    `algebra`, inner element e standing for `label[e]`: in each axiom the
    inner universe becomes `algebra`'s and {e} becomes {label[e]}, and every
    step replays its trace on `algebra`'s generators, so every image only
    grows."""
    inner_full = frozenset(range(len(label)))
    full = _full_set(algebra)
    asm = _Assembler(algebra, cert.n, frozenset(label[s] for s in cert.source), cert.width)

    def resolve(adv: Adversary) -> int:
        return asm.axiom(Adversary(tuple(
            full if c == inner_full else frozenset(label[e] for e in c) for c in adv.coords
        )))

    target = frozenset(label[t] for t in cert.target)
    return asm.finish(target, _graft(asm, cert, resolve))


def _build_near_unanimity(
    algebra: Algebra, n: int, trace: Trace, k: int, source: int
) -> Certificate:
    """Width k - 1 from {source}: the adversary wide on more positions is the
    k-ary near-unanimity operation applied to those wide on the same
    positions less each of the first k ones."""
    full = _full_set(algebra)
    asm = _Assembler(algebra, n, frozenset((source,)), k - 1)
    axioms = adv_family(n, (source,), k - 1, full)

    def split(positions: frozenset[int]) -> tuple[list, Callable]:
        needed = [positions - {a} for a in sorted(positions)[:k]]
        return needed, lambda refs: asm.step(trace, refs)

    return asm.finish(full, _derive_by_positions(asm, axioms, split))


@dataclass(frozen=True)
class TermCondition:
    """An identity of `polymorph.identity_cells` that one term operation
    satisfies and a chain builder turns into a certificate. `build` takes the
    parameters merged over `defaults`; every caller tests `holds` before
    `build`, so the chain builders do not test the identity again."""

    identity: str
    defaults: dict
    build: Callable[[Algebra, int, Operation, Trace, dict], Certificate]

    def holds(self, op: Operation, params: dict) -> bool:
        """The operation satisfies the identity, with the unit that
        `params["element"]` names, if any. Idempotence is not tested: the
        builders accept only idempotent algebras, whose term operations all
        are."""
        if self.identity != "unit":
            return satisfies(op, self.identity)
        unit = params.get("element")
        return unit_element(op) is not None if unit is None else satisfies(op, "unit", unit)


def _find_term(
    algebra: Algebra, conditions: Sequence[tuple[str, dict]]
) -> tuple[str, Operation, Trace] | None:
    """The first generator that satisfies one of the named term conditions,
    each with its parameters and tried in the order given, as (condition
    name, generator, trace), or None. A term operation that is no generator
    is not searched for: the power lift certifies without naming one."""
    for name, params in conditions:
        kind = TERM_CONDITIONS[name]
        for gi, g in enumerate(algebra.generators):
            if kind.holds(g, params):
                return name, g, ("gen", gi)
    return None


def _resolve_op(algebra: Algebra, name: str, params: dict) -> tuple[Operation, Trace]:
    """Pin down (operation, trace) for the named term condition: use the
    explicit `op` and `trace` parameters when given (an operation without a
    trace must be a generator), else `_find_term`."""
    op, trace = params.get("op"), params.get("trace")
    if trace is None and op is None:
        found = _find_term(algebra, [(name, params)])
        if found is None:
            raise BuildError(f"{name}: no generator satisfies the identity")
        return found[1], found[2]
    if trace is None:
        if op not in algebra.generators:
            raise BuildError(f"{name}: the operation is not a generator")
        trace = ("gen", algebra.generators.index(op))
    rebuilt = replay_trace(algebra, trace)
    if op is not None and rebuilt != op:
        raise BuildError(f"{name}: trace does not rebuild the given operation")
    if not TERM_CONDITIONS[name].holds(rebuilt, params):
        raise BuildError(f"{name}: the supplied operation fails the identity checks")
    return rebuilt, trace


def _find_lift(algebra: Algebra) -> tuple[Certificate | None, str | None]:
    """The first certificate of A^(k+1) from Adv(k+1, {b}, k), for the width
    k = 1 then 2 and b ascending, or None; and the first refusal at
    POWER_VECTOR_CAP, which depends on k alone. A None proves nothing when a
    search was refused."""
    refusal = None
    for k in (1, 2):
        for b in range(algebra.domain.size):
            try:
                seed = power_certificate(algebra, k + 1, (b,), k)
            except GuardrailError as err:
                refusal = refusal or str(err)
                break
            if seed is not None:
                return seed, refusal
    return None, refusal


def _no_lift(refusal: str | None) -> str:
    """Why `_find_lift` found nothing: exact unless a search was refused."""
    return (f"the lift search was refused: {refusal}" if refusal
            else "no certificate of width <= 2 from one element at any n >= 3")


def _build_power_lift(algebra: Algebra, n: int, builder: CertificateBuilder) -> Certificate:
    """The planner's `seed`, or else the first certificate `_find_lift`
    finds, grafted up to n."""
    seed = builder.params.get("seed")
    if seed is None:
        seed, refusal = _find_lift(algebra)
        if seed is None:
            raise BuildError(_no_lift(refusal))
    return _lift_cert(algebra, n, seed)


def _build_pair_minimal(algebra: Algebra, n: int) -> Certificate:
    """Grow a collapsible subset one element at a time: each new element joins
    the current source inside a strictly simple generated subalgebra, which
    the power lift certifies from one element, and the union step reroots
    the source there."""
    if not is_pair_minimal(algebra):
        raise BuildError("the algebra is not pair minimal")
    d = algebra.domain.size
    current = _build_singleton(algebra, n, 0)
    covered = {0}
    source_element = 0
    while covered != set(range(d)):
        fresh = min(set(range(d)) - covered)
        pair_universe = generated_subalgebra(algebra, (source_element, fresh))
        sub, elements = restrict(algebra, pair_universe)
        if sub.domain.size == 1:
            covered.add(fresh)
            continue
        seed, refusal = _find_lift(sub)
        if seed is None:
            raise BuildError(
                f"the subalgebra on {sorted(pair_universe)} has {_no_lift(refusal)}"
            )
        lifted = _relabel_cert(algebra, _lift_cert(sub, n, seed), elements)
        current = _combine_certs(algebra, n, lifted, current)
        covered |= set(pair_universe) | set(current.target)
        source_element = next(iter(lifted.source))
    if current.target != frozenset(range(d)):
        current = _enlarge_cert(algebra, n, current)
        if current.target != frozenset(range(d)):
            raise BuildError("pair-minimal induction did not reach the full universe")
    return current


def _build_quotient_lift(algebra: Algebra, n: int, builder: CertificateBuilder) -> Certificate:
    """Certify the quotient by the disjoint maximal congruence, relabel each
    block to its least element, and enlarge: each lifted coordinate meets
    every block its quotient coordinate holds, so the enlargement closes it
    to the universe."""
    congruence = disjoint_maximal_congruence(algebra)
    if congruence is None:
        raise BuildError(
            "quotient_lift needs an enclosed algebra whose maximal proper "
            "subalgebras are disjoint and covering"
        )
    q_alg = quotient(algebra, congruence)
    q_builder = builder.params.get("inner") or plan_certificate(q_alg)
    q_cert = build_certificate(q_builder, q_alg, n)
    lifted = _relabel_cert(algebra, q_cert, [min(block) for block in congruence.blocks])
    return _enlarge_cert(algebra, n, lifted)


def _build_term(algebra: Algebra, n: int, builder: CertificateBuilder) -> Certificate:
    """A term condition's chain, on the operation `_resolve_op` pins down."""
    kind = TERM_CONDITIONS[builder.strategy]
    params = {**kind.defaults, **builder.params}
    op, trace = _resolve_op(algebra, builder.strategy, params)
    return kind.build(algebra, n, op, trace, params)


@dataclass(frozen=True)
class Strategy:
    """A certificate construction: the builder parameters among `element`,
    `pair` and `op` that a caller may set, the build function, and for a
    chain on a term operation its `TermCondition`."""

    params: tuple[str, ...]
    build: Callable[[Algebra, int, CertificateBuilder], Certificate]
    condition: TermCondition | None = None


# every strategy, in `certify --strategy` order, which is the planner's: the
# term conditions in priority order, the power lift, the structural builders
STRATEGIES: dict[str, Strategy] = {
    "singleton": Strategy(
        ("element",), lambda alg, n, b: _build_singleton(alg, n, b.params.get("element", 0))
    ),
    "unit_element": Strategy(("element", "op"), _build_term, TermCondition(
        "unit", {},
        lambda alg, n, op, trace, p: _build_unit_chain(alg, n, trace, unit_element(op)),
    )),
    "maltsev_chain": Strategy(("element", "op"), _build_term, TermCondition(
        "maltsev", {"element": 0},
        lambda alg, n, op, trace, p: _build_maltsev_chain(alg, n, trace, p["element"]),
    )),
    "dualdisc_chain": Strategy(("pair", "op"), _build_term, TermCondition(
        "dual_discriminator", {"pair": (0, 1)},
        lambda alg, n, op, trace, p: _build_dualdisc_chain(alg, n, trace, *p["pair"]),
    )),
    "near_unanimity": Strategy(("element", "op"), _build_term, TermCondition(
        "near_unanimity", {"element": 0},
        lambda alg, n, op, trace, p: _build_near_unanimity(alg, n, trace, op.arity, p["element"]),
    )),
    "power_lift": Strategy((), _build_power_lift),
    "pair_minimal": Strategy((), lambda alg, n, b: _build_pair_minimal(alg, n)),
    "quotient_lift": Strategy((), _build_quotient_lift),
}

TERM_CONDITIONS: dict[str, TermCondition] = {
    name: s.condition for name, s in STRATEGIES.items() if s.condition is not None
}


def build_certificate(builder: CertificateBuilder, algebra: Algebra, n: int) -> Certificate:
    """Run a strategy of `STRATEGIES`; raises BuildError with the reason when
    the strategy does not apply."""
    _require_idempotent(algebra)
    _require_n(n)
    strategy = STRATEGIES.get(builder.strategy)
    if strategy is None:
        raise BuildError(f"unknown strategy {builder.strategy!r}")
    return strategy.build(algebra, n, builder)


def plan_certificate(algebra: Algebra) -> CertificateBuilder:
    """Choose a construction strategy; BuildError when none applies (which is
    exactly the sink/G-set territory). The order:

    1. The first term condition of `TERM_CONDITIONS` that a generator
       satisfies under its default parameters: a chain of O(n) entries.
    2. `power_lift`: the first certificate of A^(k+1) from Adv(k+1, {b}, k),
       for k = 1 then 2 and b ascending, grafted up to any n (`_lift_cert`).
       For a target wide (A) on a set X of more than k positions and {b}
       elsewhere, let the seed's first coordinate stand for the block B of X
       less its last k positions, and each other coordinate for one of
       those. Replayed so, every input is constant on B, so each image there
       is the seed's first coordinate's, and off X every input is {b}, which
       an idempotent term maps to {b}. Each input is wide on at most k of
       the last k positions, or on B and at most k - 1 of them: fewer than
       |X|, so the recursion ends in axioms. Conversely, a certificate at
       any n >= k + 1, restricted to k + 1 positions, is one at k + 1: a
       search that finds none refutes width k from {b} at every n >= k + 1.
       A source of several elements does not lift: its axioms fix different
       constants off X, and the grafted inputs would mix them into tuples
       that are no axioms. A search over POWER_VECTOR_CAP does not apply.
    3. On two elements a lift refuted under the cap means a G-set: any other
       idempotent clone on {0,1} holds AND, OR, minority or majority (Post's
       lattice), each with a one-element certificate of width at most 2.
       Else `pair_minimal` on a pair-minimal algebra without a G-set factor,
       then `quotient_lift` through a quotient with a block of two or more.
    """
    _require_idempotent(algebra)
    d = algebra.domain.size
    if d == 1:
        return CertificateBuilder("singleton", {"element": 0})
    found = _find_term(
        algebra, [(name, kind.defaults) for name, kind in TERM_CONDITIONS.items()]
    )
    if found is not None:
        name, op, trace = found
        return CertificateBuilder(
            name, {"op": op, "trace": trace, **TERM_CONDITIONS[name].defaults}
        )
    seed, refusal = _find_lift(algebra)
    if seed is not None:
        return CertificateBuilder("power_lift", {"seed": seed})
    if d == 2 and refusal is None:
        raise BuildError(f"{_no_lift(None)}: the algebra is a G-set")
    gset, _ = has_gset_factor(algebra)
    if not gset and is_pair_minimal(algebra):
        return CertificateBuilder("pair_minimal")
    congruence = disjoint_maximal_congruence(algebra)
    if congruence is not None and any(len(b) > 1 for b in congruence.blocks):
        q_builder = plan_certificate(quotient(algebra, congruence))
        return CertificateBuilder("quotient_lift", {"inner": q_builder})
    raise BuildError(f"no certificate strategy applies: {_no_lift(refusal)}")


def certify(
    algebra: Algebra,
    n: int,
    builder: CertificateBuilder | None = None,
) -> tuple[CertificateBuilder, Certificate]:
    """The builder and a verified certificate for `n`: plan unless a builder
    is given, build, and verify. BuildError when no strategy applies, the
    build fails, or the verifier rejects what was built; no certificate
    leaves the library unverified."""
    if builder is None:
        builder = plan_certificate(algebra)
    cert = build_certificate(builder, algebra, n)
    check = verify_certificate(cert, algebra, n)
    if not check:
        raise BuildError(f"certificate failed verification: {check.failure}")
    return builder, cert


# ---------------------------------------------------------------------------
# Exact power-algebra certificate search
# ---------------------------------------------------------------------------


def _essential_positions(op: Operation) -> list[int]:
    """The argument positions the operation depends on, or [0] if none."""
    d, table = op.domain_size, op.table
    strides = [d ** (op.arity - 1 - i) for i in range(op.arity)]
    return [i for i, s in enumerate(strides)
            if any(v != table[x - x // s % d * s] for x, v in enumerate(table))] or [0]


class _OnSubsets(dict):
    """A generator acting on the nonempty subsets at the argument positions
    it depends on, which `close_vectors` reads as an operation whose table is
    itself: keyed by the row-major index of those arguments' subset numbers,
    each entry computed on first read, through `op_image`'s memo. The image
    does not depend on the other arguments, which get the first subset."""

    def __init__(self, op: Operation, subsets: list[frozenset[int]], value: dict):
        super().__init__()
        self.op, self.subsets, self.value, self.table = op, subsets, value, self
        self.positions = _essential_positions(op)
        self.arity, self.domain_size = len(self.positions), len(subsets)

    def __missing__(self, index: int) -> int:
        args, rest = [self.subsets[0]] * self.op.arity, index
        for p in reversed(self.positions):
            rest, v = divmod(rest, self.domain_size)
            args[p] = self.subsets[v]
        image = self[index] = self.value[op_image(self.op, args)]
        return image


def power_certificate(
    algebra: Algebra, n: int, source: Iterable[int], width: int
) -> Certificate | None:
    """A certificate that A^n is composable from Adv(n, {a}, width, A), a in
    `source`, or None when there is none.

    Such certificates derive the subuniverse of P(A)^n that the axioms
    generate under the generators acting on subsets (`op_image`): a term with
    distinct variables composes generators, and one that repeats a variable
    has an image inside that of the same term with its variables made
    distinct. The kernel's provenance of (A, ..., A), pruned to what it needs,
    is the certificate; each step applies one generator. A generator acts at
    the arguments it depends on, its table on subsets filled as the closure
    reads it, so no arity bounds the search. GuardrailError when P(A)^n
    exceeds POWER_VECTOR_CAP; the closure is never cut.
    """
    _require_n(n)
    full = _full_set(algebra)
    source = frozenset(source)
    if not source or not source <= full:
        raise BuildError("the source must be a nonempty subset of the universe")
    subsets = [frozenset(a for a in full if mask >> a & 1) for mask in range(1, 2 ** len(full))]
    if len(subsets) ** n > POWER_VECTOR_CAP:
        raise GuardrailError(
            f"the power search needs {len(subsets) ** n} vectors, "
            f"above the cap of {POWER_VECTOR_CAP}"
        )
    value = {subset: v for v, subset in enumerate(subsets)}
    lifted = [_OnSubsets(g, subsets, value) for g in algebra.generators]
    seeds = [
        tuple(value[c] for c in adv.coords)
        for a in sorted(source)
        for adv in adv_family(n, (a,), width, full).members()
    ]
    goal = (value[full],) * n
    closure = close_vectors(lifted, seeds, len(subsets) ** n, stop=goal)
    if goal not in closure.provenance:
        return None
    needed = _reachable(goal, lambda v: (closure.provenance[v] or (None, ()))[1])
    asm = _Assembler(algebra, n, source, width)
    ref: dict[tuple[int, ...], int] = {}
    for vector in filter(needed.__contains__, closure.vectors):
        made = closure.provenance[vector]
        if made is None:
            ref[vector] = asm.axiom(Adversary(tuple(subsets[v] for v in vector)))
        else:
            gi, combo = made
            at = dict(zip(lifted[gi].positions, combo))
            inputs = [ref[at.get(p, combo[0])] for p in range(lifted[gi].op.arity)]
            ref[vector] = asm.step(("gen", gi), inputs)
    return asm.finish(full, ref[goal])


# ---------------------------------------------------------------------------
# Three-element sink detection
# ---------------------------------------------------------------------------


def is_alphabeta_projective(
    op: Operation, alpha: frozenset[int], beta: frozenset[int]
) -> bool:
    """The operation acts, at the level of the two maximal proper subalgebras,
    as a projection: some coordinate i has image inside the i-th argument's
    subalgebra for every argument pattern."""
    for i in range(op.arity):
        if all(
            op_image(op, pattern) <= pattern[i]
            for pattern in itertools.product((alpha, beta), repeat=op.arity)
        ):
            return True
    return False


@dataclass
class SinkVerdict:
    kind: str  # sink_certified | not_sink | inconclusive
    reason: str


def detect_sink_candidate(algebra: Algebra) -> SinkVerdict:
    """Certified sink verdicts for idempotent algebras on at most 3 elements.

    A sink must be enclosed, fully connected, have no G-set factor, and admit
    no collapsibility certificate; on three elements the certification route
    is: exactly two two-element subalgebras sharing one element, the
    semilattice collapsing unequal pairs to the shared element among the binary
    term operations, and every generator projective at the level of the two
    subalgebras. Otherwise a planned certificate that verifies at n = 1, 2
    and 3 makes it not a sink.
    """
    if not algebra.is_idempotent():
        raise StructuralError("sink detection assumes an idempotent algebra")
    d = algebra.domain.size
    if d <= 2:
        return SinkVerdict("not_sink", "no one- or two-element algebra is a sink")
    if d > 3:
        return SinkVerdict(
            "inconclusive", f"certified verdicts cover universes up to 3 elements, not {d}"
        )
    if not is_enclosed(algebra):
        return SinkVerdict("not_sink", "not enclosed")
    if not is_fully_connected(algebra):
        return SinkVerdict("not_sink", "not fully connected")
    gset, factor = has_gset_factor(algebra)
    if gset:
        return SinkVerdict(
            "not_sink",
            f"has a G-set factor on universe {sorted(factor.universe)}",
        )
    two_element_subs = [
        u for u in enumerate_subalgebras(algebra).universes() if len(u) == 2
    ]
    if len(two_element_subs) == 2:
        alpha, beta = two_element_subs
        common = alpha & beta
        if len(common) == 1:
            meet = semilattice_to_shared(d, next(iter(common))).table
            # the binary term operations: the tables the generators make from
            # the two projections, at most the d^(d*d - d) idempotent ones
            projections = [projection_op(d, 2, i).table for i in (1, 2)]
            projective = all(
                is_alphabeta_projective(g, alpha, beta) for g in algebra.generators
            )
            if projective and meet in close_vectors(
                algebra.generators, projections, d ** (d * d - d), stop=meet
            ).provenance:
                return SinkVerdict(
                    "sink_certified",
                    "two overlapping two-element subalgebras, the collapsing "
                    "semilattice is a term operation, and all generators are "
                    "projective over them",
                )
    try:
        builder, _ = certify(algebra, 1)
        for n in (2, 3):
            certify(algebra, n, builder)
    except BuildError as err:
        return SinkVerdict("inconclusive", f"no builder applies: {err}")
    return SinkVerdict("not_sink", "collapsible: a certificate builder succeeds")


# ---------------------------------------------------------------------------
# Certificate text format
# ---------------------------------------------------------------------------


def _format_coord(coord: frozenset[int], domain_size: int) -> str:
    if len(coord) == domain_size:
        return "*"
    return "{" + ",".join(str(v) for v in sorted(coord)) + "}"


def serialize_certificate(cert: Certificate, domain_size: int) -> str:
    lines = [
        "certificate"
        f" n={cert.n}"
        f" width={cert.width}"
        f" source={','.join(str(s) for s in sorted(cert.source))}"
        f" target={','.join(str(t) for t in sorted(cert.target))}"
        f" domain={domain_size}"
    ]
    for idx, e in enumerate(cert.entries):
        adv = " ".join(_format_coord(c, domain_size) for c in e.adversary.coords)
        if e.trace is None:
            lines.append(f"axiom {idx}: {adv}")
        else:
            ids = ", ".join(str(i) for i in e.inputs)
            lines.append(f"step {idx}: {adv} <= {trace_to_str(e.trace)}({ids})")
    lines.append(f"result {cert.result}")
    return "\n".join(lines) + "\n"


def _trace_generators(trace: Trace) -> Iterator[int]:
    if trace[0] == "gen":
        yield trace[1]
    elif trace[0] == "comp":
        for part in (trace[1],) + trace[2]:
            yield from _trace_generators(part)


def parse_certificate(text: str, algebra: Algebra) -> Certificate:
    """Read the text `serialize_certificate` writes. Malformed text raises
    ParseError naming its line, and so does what the writer never writes: a
    first word that is no line kind, a second header or result line, an
    unknown or repeated header key, tokens after the result index, a trace
    nested too deep or naming a generator the algebra lacks. No trace is
    replayed: whether the derivation holds is left to `verify_certificate`."""
    header: dict[str, str] = {}
    header_line = 0
    entries: list[CertEntry] = []
    result: int | None = None
    d = algebra.domain.size
    full = frozenset(range(d))

    def coord(tok: str) -> frozenset[int]:
        if tok == "*":
            return full
        if not (tok.startswith("{") and tok.endswith("}")):
            raise ValueError(f"bad adversary coordinate {tok!r}")
        return frozenset(int(v) for v in tok[1:-1].split(",") if v)

    def input_id(tok: str) -> int:
        if not tok.strip():
            raise ValueError("empty step input id")
        return int(tok)

    def body(line: str) -> str:
        kind, colon, rest = line.partition(":")
        if not colon:
            raise ValueError(f"{kind.split()[0]} line has no ':'")
        return rest

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            word, *rest = line.split()
            if word == "certificate":
                if header_line:
                    raise ValueError("second certificate header")
                header_line = lineno
                for part in rest:
                    key, _, value = part.partition("=")
                    if key not in ("n", "width", "source", "target", "domain"):
                        raise ValueError(f"unknown header key {key!r}")
                    if key in header:
                        raise ValueError(f"repeated header key {key!r}")
                    header[key] = value
            elif word == "axiom":
                entries.append(CertEntry(Adversary(tuple(coord(t) for t in body(line).split()))))
            elif word == "step":
                adv_text, _, deriv = body(line).partition("<=")
                adv = Adversary(tuple(coord(t) for t in adv_text.split()))
                trace_text, _, ids_text = deriv.strip().rpartition("(")
                trace = parse_trace(trace_text.strip())
                for gi in _trace_generators(trace):
                    if not 0 <= gi < len(algebra.generators):
                        raise ValueError(
                            f"trace names g{gi}, but the algebra has "
                            f"{len(algebra.generators)} generators"
                        )
                if not ids_text.endswith(")"):
                    raise ValueError("step input list has no closing ')'")
                inner = ids_text[:-1]
                ids = tuple(map(input_id, inner.split(","))) if inner.strip() else ()
                entries.append(CertEntry(adv, trace, ids))
            elif word == "result":
                if result is not None:
                    raise ValueError("second result line")
                if len(rest) != 1:
                    raise ValueError(f"bad result line {line!r}")
                result = int(rest[0])
            else:
                raise ValueError(f"unrecognized certificate line {line!r}")
        except (ValueError, IndexError) as err:
            raise ParseError(str(err), lineno) from None
    if not header_line or result is None:
        raise ParseError("certificate text is missing its header or result")
    missing = [key for key in ("n", "width", "source", "target") if key not in header]
    if missing:
        raise ParseError(f"certificate header lacks {missing[0]}=", header_line)
    try:
        if "domain" in header and int(header["domain"]) != d:
            raise ValueError(
                f"certificate is over a {header['domain']}-element domain, "
                f"the algebra over {d}"
            )
        return Certificate(
            target=frozenset(int(v) for v in header["target"].split(",") if v),
            source=frozenset(int(v) for v in header["source"].split(",") if v),
            width=int(header["width"]),
            n=int(header["n"]),
            entries=tuple(entries),
            result=result,
        )
    except ValueError as err:
        raise ParseError(str(err), header_line) from None
