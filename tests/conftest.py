"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import sys
from collections import deque

import pytest

from qcollapse import polymorph
from qcollapse.algebra import (
    enumerate_factors,
    enumerate_subalgebras,
    generated_subalgebra,
    is_gset,
    restrict,
)
from qcollapse.cspsolve import CspInstance, solve_csp
from qcollapse.errors import GuardrailError, StructuralError
from qcollapse.model import (
    Algebra,
    ConstraintLanguage,
    Domain,
    EXISTS,
    FORALL,
    Operation,
    QuantifiedFormula,
    Relation,
)
from qcollapse.ops import and_op, from_function, majority_op, minority_op, or_op, projection_op
from qcollapse.polymorph import (
    TermOperationSet,
    _frontier_images,
    is_polymorphism_of_language,
    relation_cells,
)


DISPATCH_OPS = (
    and_op(),
    or_op(),
    majority_op(),
    minority_op(),
    from_function("x&(y|z)", 3, 2, lambda x, y, z: x & (y | z)),
    from_function("x|(y&z)", 3, 2, lambda x, y, z: x | (y & z)),
)


def dispatch_algebras() -> list[Algebra]:
    """One two-element algebra per nonempty subset of the dispatch operations."""
    return [
        Algebra(Domain(2), subset)
        for size in range(1, len(DISPATCH_OPS) + 1)
        for subset in itertools.combinations(DISPATCH_OPS, size)
    ]


def record_closure_caps(monkeypatch) -> list[int]:
    """Record the arity cap of every term closure run through any loaded
    `qcollapse` module that holds `generate_term_operations`."""
    caps: list[int] = []
    real = polymorph.generate_term_operations

    def recording(algebra, arity_cap):
        caps.append(arity_cap)
        return real(algebra, arity_cap)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "qcollapse" and (
            getattr(module, "generate_term_operations", None) is real
        ):
            monkeypatch.setattr(module, "generate_term_operations", recording)
    return caps


def rel(name: str, arity: int, domain_size: int, rows) -> Relation:
    return Relation(name, arity, domain_size, frozenset(tuple(r) for r in rows))


def eq_rel(domain_size: int = 2) -> Relation:
    return rel("Eq", 2, domain_size, [(v, v) for v in range(domain_size)])


def nae_rel() -> Relation:
    rows = set(itertools.product(range(2), repeat=3)) - {(0, 0, 0), (1, 1, 1)}
    return rel("NAE", 3, 2, rows)


def impl_rel() -> Relation:
    return rel("Impl", 2, 2, [(0, 0), (0, 1), (1, 1)])


def affine_rel() -> Relation:
    rows = [t for t in itertools.product(range(2), repeat=3) if sum(t) % 2 == 0]
    return rel("Aff", 3, 2, rows)


def brute_force_tables(language: ConstraintLanguage, k: int, forced):
    """Reference sweep: every arity-k table that takes the forced values, in
    `itertools.product` order of the free cells, checked against every row
    choice of every relation, under the library's `CHECK_CAP`."""
    d = language.domain.size
    cells = [args for args in itertools.product(range(d), repeat=k) if args not in forced]
    for values in itertools.product(range(d), repeat=len(cells)):
        entries = dict(zip(cells, values))
        entries.update(forced)
        table = tuple(entries[args] for args in itertools.product(range(d), repeat=k))
        if is_polymorphism_of_language(Operation("t", k, d, table), language):
            yield table


def brute_force_discovery(language: ConstraintLanguage, arity_cap: int, candidate_cap: int):
    """Reference discovery, yielding the operations of each arity in turn:
    the idempotent tables of `brute_force_tables`, with the guardrails and
    names of the discovery kernel."""
    d = language.domain.size
    out: list[Operation] = []
    for k in range(1, arity_cap + 1):
        lower = len(out)
        free_cells = d**k - d
        if d**free_cells > candidate_cap:
            raise GuardrailError(
                f"{d}^{free_cells} idempotent arity-{k} candidates exceed the cap; "
                "use a targeted detector"
            )
        diagonal = {tuple([a] * k): a for a in range(d)}
        for table in brute_force_tables(language, k, diagonal):
            out.append(Operation(f"f{k}_{len(out)}", k, d, table))
        yield tuple(out[lower:])


def random_language(rng, d: int) -> ConstraintLanguage:
    """One to three relations of arity 1-3 over d elements, up to 8 rows each."""
    relations = []
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        rows = list(itertools.product(range(d), repeat=arity))
        chosen = rng.sample(rows, rng.randint(0, min(8, len(rows))))
        relations.append(rel(f"R{i}", arity, d, chosen))
    return ConstraintLanguage(Domain(d), tuple(relations))


def random_algebra(rng, d: int, idempotent: bool, generators: tuple[int, int] = (1, 3)) -> Algebra:
    """Between `generators[0]` and `generators[1]` generators (one to three by
    default) of arity 1-3 over d elements, with random tables (the diagonal
    fixed when idempotent)."""
    ops = []
    for i in range(rng.randint(*generators)):
        k = rng.randint(1, 3)
        table = [rng.randrange(d) for _ in range(d**k)]
        if idempotent:
            for a in range(d):
                table[a * sum(d**j for j in range(k))] = a
        ops.append(Operation(f"g{i}", k, d, tuple(table)))
    return Algebra(Domain(d), tuple(ops))


def idempotent_binary_tables(d: int):
    """Every idempotent binary table over d elements, row-major, in the
    lexicographic order of their off-diagonal cells (729 for d = 3)."""
    cells = [c for c in itertools.product(range(d), repeat=2) if c[0] != c[1]]
    for values in itertools.product(range(d), repeat=len(cells)):
        entries = dict(zip(cells, values))
        yield tuple(
            entries.get((x, y), x) for x, y in itertools.product(range(d), repeat=2)
        )


def all_partitions(d: int) -> list[tuple[frozenset[int], ...]]:
    """Every partition of 0..d-1, blocks ordered by least element, in the
    lexicographic order of restricted-growth labelings."""
    out = []
    for labels in itertools.product(range(d), repeat=d):
        if all(labels[i] <= max(labels[:i], default=-1) + 1 for i in range(d)):
            out.append(tuple(
                frozenset(v for v in range(d) if labels[v] == b) for b in range(max(labels) + 1)
            ))
    return out


def brute_force_congruences(algebra: Algebra) -> list[tuple[frozenset[int], ...]]:
    """Reference: the partitions of `all_partitions` whose equivalence
    relation every generator preserves on all pairs of related argument
    tuples (the definition, not single-coordinate moves)."""
    d = algebra.domain.size
    out = []
    for blocks in all_partitions(d):
        label = {v: i for i, b in enumerate(blocks) for v in b}
        related = [(a, b) for a in range(d) for b in range(d) if label[a] == label[b]]
        if all(
            label[g(*(x for x, _ in pairs))] == label[g(*(y for _, y in pairs))]
            for g in algebra.generators
            for pairs in itertools.product(related, repeat=g.arity)
        ):
            out.append(blocks)
    return out


def reference_gset_factor(algebra: Algebra):
    """The replaced G-set search: the first factor of `enumerate_factors`
    whose quotient is a G-set, or (False, None)."""
    for factor in enumerate_factors(algebra):
        if is_gset(factor.quotient):
            return True, factor
    return False, None


def reference_pair_minimal(algebra: Algebra) -> bool:
    """The replaced pair-minimality check: restrict to the subalgebra each
    pair generates and enumerate that restriction's subalgebras again."""
    for pair in itertools.combinations(range(algebra.domain.size), 2):
        sub, _ = restrict(algebra, generated_subalgebra(algebra, pair))
        if any(info.proper and info.nontrivial for info in enumerate_subalgebras(sub).entries):
            return False
    return True


def reference_op_image(op: Operation, sets) -> frozenset[int]:
    """The element-wise image f(B_1, ..., B_k), computed afresh on every call,
    as `polymorph.op_image` did before it kept images per operation."""
    if len(sets) != op.arity:
        raise StructuralError(f"operation {op.name}: expected {op.arity} argument sets")
    d = op.domain_size
    out = set()
    for combo in itertools.product(*[sorted(set(s)) for s in sets]):
        idx = 0
        for a in combo:
            idx = idx * d + a
        out.add(op.table[idx])
    return frozenset(out)


def reference_column_images(op: Operation, sources, n: int) -> list[frozenset[int]]:
    """The replaced `collapsibility._column_images`: a set of the distinct
    columns, each imaged by `reference_op_image`, read back per position."""
    for s in sources:
        if len(s) != n:
            raise StructuralError("adversaries of different length")
    columns = list(zip(*(s.coords for s in sources)))
    images = {column: reference_op_image(op, column) for column in set(columns)}
    return [images[column] for column in columns]


def csp_satisfied(instance: CspInstance, values) -> bool:
    """Whether the values, one per variable index, satisfy every constraint."""
    return all(
        tuple(values[a] if a >= 0 else ~a for a in args) in relation.tuples
        for relation, args in instance.constraints
    )


def enumerate_solutions(instance: CspInstance, limit: int | None = None) -> list[list[int]]:
    """Every satisfying assignment by plain enumeration; exponential."""
    out = []
    for combo in itertools.product(range(instance.domain_size), repeat=instance.variable_count):
        if csp_satisfied(instance, combo):
            out.append(list(combo))
            if limit is not None and len(out) >= limit:
                break
    return out


def reference_solve_csp(instance: CspInstance, node_cap: int) -> list[int] | None:
    """The solver's search on set domains: every constraint revised by
    rescanning its relation, every domain copied at each search node. Same
    variable order (smallest domain, ties by index), value order and node
    count as `solve_csp`, so it must return the identical assignment."""
    variables = range(instance.variable_count)
    domains = {v: set(range(instance.domain_size)) for v in variables}
    watch: dict[int, list[int]] = {v: [] for v in variables}
    for idx, (_, args) in enumerate(instance.constraints):
        for v in sorted({a for a in args if a >= 0}):
            watch[v].append(idx)

    def revise(relation, args) -> tuple[set[int], bool]:
        scope = {a for a in args if a >= 0}
        if not scope:
            return set(), tuple(~a for a in args) in relation.tuples
        supported: dict[int, set[int]] = {v: set() for v in scope}
        for t in relation.tuples:
            row: dict[int, int] = {}
            for pos, a in enumerate(args):
                if a < 0:
                    if t[pos] != ~a:
                        break
                elif a not in row:
                    if t[pos] not in domains[a]:
                        break
                    row[a] = t[pos]
                elif row[a] != t[pos]:
                    break
            else:
                for v, val in row.items():
                    supported[v].add(val)
        changed = set()
        for v in sorted(scope):
            if not domains[v] <= supported[v]:
                domains[v] &= supported[v]
                changed.add(v)
                if not domains[v]:
                    return changed, False
        return changed, True

    def propagate(seed) -> bool:
        queue = deque(seed)
        queued = set(queue)
        while queue:
            cidx = queue.popleft()
            queued.discard(cidx)
            changed, ok = revise(*instance.constraints[cidx])
            if not ok:
                return False
            for v in changed:
                for other in watch[v]:
                    if other != cidx and other not in queued:
                        queue.append(other)
                        queued.add(other)
        return True

    if not propagate(range(len(instance.constraints))):
        return None
    nodes = 0

    def search() -> list[int] | None:
        nonlocal domains, nodes
        nodes += 1
        if nodes > node_cap:
            raise GuardrailError(f"CSP search exceeded {node_cap} nodes")
        pending = [(len(dom), v) for v, dom in domains.items() if len(dom) > 1]
        if not pending:
            return [next(iter(dom)) for dom in domains.values()]
        _, var = min(pending)
        for val in sorted(domains[var]):
            snapshot = {v: set(dom) for v, dom in domains.items()}
            domains[var] = {val}
            if propagate(watch[var]):
                found = search()
                if found is not None:
                    return found
            domains = snapshot
        return None

    return search()


class _ReferenceGame:
    """The recursive game evaluator the oracle replaced: constraints checked
    by `Constraint.holds` once all their variables are assigned, every node
    memoized on (depth, values of the assigned variables still needed), with
    the same branch order. With an adversary, each universal ranges over its
    coordinate set. It keeps its own up-front guardrail on the product of the
    branch counts; the oracle counts the nodes it opens instead."""

    def __init__(self, phi: QuantifiedFormula, adversary, node_cap: int):
        if adversary is not None and len(adversary) != len(phi.universal_vars):
            raise StructuralError(
                f"adversary length {len(adversary)} != {len(phi.universal_vars)} universals"
            )
        self.formula = phi
        prefix = phi.prefix
        pos = {v: i for i, (_, v) in enumerate(prefix)}
        m = len(prefix)
        self.checks_at: list[list] = [[] for _ in range(m + 1)]
        for c in phi.body:
            close = max((pos[v] + 1 for v in c.variables), default=0)
            self.checks_at[close].append(c)
        needed: list[frozenset[str]] = [frozenset()] * (m + 1)
        acc: set[str] = set()
        for d in range(m - 1, -1, -1):
            acc |= {v for c in self.checks_at[d + 1] for v in c.variables}
            needed[d] = frozenset(acc)
        self.live_at = [
            tuple(v for _, v in prefix[:d] if v in needed[d]) for d in range(m + 1)
        ]
        self.branches = []
        u = 0
        for q, _ in prefix:
            if q == FORALL and adversary is not None:
                self.branches.append(sorted(adversary.coords[u]))
                u += 1
            else:
                self.branches.append(list(range(phi.domain.size)))
        est = math.prod(len(b) for b in self.branches) if self.branches else 1
        if est > node_cap:
            raise GuardrailError(
                f"estimated game tree of {est} assignments exceeds the cap of {node_cap}"
            )
        self.memo: dict = {}
        self.env: dict[str, int] = {}

    def closed_ok(self, depth: int) -> bool:
        return all(c.holds(self.env) for c in self.checks_at[depth])

    def wins(self, depth: int) -> bool:
        prefix = self.formula.prefix
        if depth == len(prefix):
            return True
        key = (depth, tuple(self.env[v] for v in self.live_at[depth]))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        q, var = prefix[depth]
        result = q == FORALL
        for val in self.branches[depth]:
            self.env[var] = val
            ok = self.closed_ok(depth + 1) and self.wins(depth + 1)
            del self.env[var]
            if q == EXISTS and ok:
                result = True
                break
            if q == FORALL and not ok:
                result = False
                break
        self.memo[key] = result
        return result

    def run(self) -> bool:
        return self.closed_ok(0) and self.wins(0)


def reference_game(phi: QuantifiedFormula, adversary=None, node_cap: int = 10_000_000) -> bool:
    """Truth (no adversary) or winnability by the replaced recursive evaluator."""
    return _ReferenceGame(phi, adversary, node_cap).run()


def reference_strategy(phi: QuantifiedFormula, adversary, node_cap: int = 10_000_000):
    """The replaced evaluator's strategy walk: the responses dict of the
    smallest-value winning strategy, or None when the game is lost."""
    ev = _ReferenceGame(phi, adversary, node_cap)
    if not ev.run():
        return None
    responses: dict = {x: {} for x in phi.existential_vars}
    prefix = phi.prefix
    ubefore = phi.universals_before

    def walk(depth: int, env: dict):
        if depth == len(prefix):
            return
        q, var = prefix[depth]
        if q == FORALL:
            for val in sorted(adversary.coords[phi.universal_vars.index(var)]):
                env[var] = val
                walk(depth + 1, env)
                del env[var]
            return
        context = tuple(env[u] for u in ubefore[var])
        known = responses[var].get(context)
        if known is None:
            ev.env = env
            for val in range(phi.domain.size):
                env[var] = val
                ok = ev.closed_ok(depth + 1) and ev.wins(depth + 1)
                del env[var]
                if ok:
                    known = val
                    break
            responses[var][context] = known
        env[var] = known
        walk(depth + 1, env)
        del env[var]

    walk(0, {})
    return responses


def reference_shape_search(
    language: ConstraintLanguage,
    arity: int,
    forced,
    name: str = "shaped",
) -> Operation | None:
    """The shape search the table sweep replaced: a CSP whose variables are
    the free table cells, with one constraint per relation and cell tuple
    that a choice of rows reads, solved by `solve_csp`."""
    d = language.domain.size
    cells = list(itertools.product(range(d), repeat=arity))
    for cell, value in forced.items():
        if len(cell) != arity or not (0 <= value < d):
            raise StructuralError("forced entry out of range")
    free = [c for c in cells if c not in forced]
    index = {c: i for i, c in enumerate(free)}
    constraints = [
        (r, tuple(~forced[c] if c in forced else index[c] for c in (cells[i] for i in indices)))
        for r in language.relations
        for indices in relation_cells(r, arity)
    ]
    solution = solve_csp(CspInstance(d, len(free), constraints))
    if solution is None:
        return None
    table = tuple(forced[c] if c in forced else solution[index[c]] for c in cells)
    op = Operation(name, arity, d, table)
    assert is_polymorphism_of_language(op, language)
    return op


def reference_term_operations(
    algebra: Algebra, arity_cap: int, count_cap: int
) -> TermOperationSet:
    """The term closure the closure kernel replaced: per arity, a fixed point
    of its own over the projections and generators of that arity, with names,
    traces, count cap and early stop of its own."""
    d = algebra.domain.size
    found: dict = {}
    order: list[Operation] = []
    truncated = False
    idempotent = all(g.is_idempotent() for g in algebra.generators)

    def add(op: Operation, trace) -> bool:
        nonlocal truncated
        if op in found:
            return False
        if len(found) >= count_cap:
            truncated = True
            return False
        found[op] = trace
        order.append(op)
        return True

    for m in range(1, arity_cap + 1):
        for i in range(1, m + 1):
            add(projection_op(d, m, i), ("proj", m, i))
        for gi, g in enumerate(algebra.generators):
            if g.arity == m:
                add(g, ("gen", gi))
        traces = {op.table: found[op] for op in order if op.arity == m}
        current = list(traces)
        frontier = list(current)
        room = d ** (d**m - d) if idempotent else d ** (d**m)
        while frontier and not truncated and len(traces) < room:
            frontier_set = set(frontier)
            old = [t for t in current if t not in frontier_set]
            new_tables: list = []
            for gi, g in enumerate(algebra.generators):
                if truncated or len(traces) >= room:
                    break
                for combo, key in _frontier_images(g, old, frontier, current):
                    if key in traces:
                        continue
                    trace = ("comp", ("gen", gi), tuple(traces[t] for t in combo))
                    if not add(Operation(f"t{m}.{len(found)}", m, d, key), trace):
                        break
                    traces[key] = trace
                    new_tables.append(key)
                    if len(traces) >= room:
                        break
            current = current + new_tables
            frontier = new_tables
    return TermOperationSet(tuple(order), dict(found), truncated)


# derives * * from the axiom {1} {1} through the binary AND generator g0, which
# maps {1} only to {1}; input -1 would resolve to the step itself
NEGATIVE_REFERENCE_CERT = """\
certificate n=2 width=0 source=1 target=0,1 domain=2
axiom 0: {1} {1}
step 1: * * <= g0(-1, -1)
result 1
"""


def formula(domain_size: int, prefix_spec: str, body) -> QuantifiedFormula:
    """prefix_spec like "Ay Ex" builds (forall y, exists x)."""
    prefix = []
    for token in prefix_spec.split():
        q = FORALL if token[0] == "A" else EXISTS
        prefix.append((q, token[1:]))
    return QuantifiedFormula(Domain(domain_size), tuple(prefix), tuple(body))


def naive_truth(phi: QuantifiedFormula) -> bool:
    """Plain recursive first-order evaluation; the independent truth oracle."""

    def rec(i: int, env: dict) -> bool:
        if i == len(phi.prefix):
            return all(c.holds(env) for c in phi.body)
        q, v = phi.prefix[i]
        values = range(phi.domain.size)
        if q == FORALL:
            return all(rec(i + 1, {**env, v: val}) for val in values)
        return any(rec(i + 1, {**env, v: val}) for val in values)

    return rec(0, {})


def naive_winnable(phi: QuantifiedFormula, adversary) -> bool:
    """Memoization-free winnability recursion; the independent game oracle."""

    def rec(i: int, env: dict, u: int) -> bool:
        if i == len(phi.prefix):
            return all(c.holds(env) for c in phi.body)
        q, v = phi.prefix[i]
        if q == FORALL:
            return all(
                rec(i + 1, {**env, v: val}, u + 1)
                for val in sorted(adversary.coords[u])
            )
        return any(rec(i + 1, {**env, v: val}, u) for val in range(phi.domain.size))

    return rec(0, {}, 0)


def enumerate_strategies(phi: QuantifiedFormula):
    """All total strategies in the universal-dependence sense; tiny inputs only."""
    ubefore = phi.universals_before
    d = phi.domain.size
    per_var = []
    for x in phi.existential_vars:
        contexts = list(itertools.product(range(d), repeat=len(ubefore[x])))
        tables = itertools.product(range(d), repeat=len(contexts))
        per_var.append([(x, dict(zip(contexts, t))) for t in tables])
    if not per_var:
        yield {}
        return
    for combo in itertools.product(*per_var):
        yield {x: table for x, table in combo}


def strategy_wins(phi: QuantifiedFormula, tables: dict, coords) -> bool:
    """Replays a raw strategy table against every universal assignment the
    coordinate sets allow."""
    uvars = phi.universal_vars
    ubefore = phi.universals_before
    for combo in itertools.product(*[sorted(c) for c in coords]):
        tau = dict(zip(uvars, combo))
        env = dict(tau)
        for x in phi.existential_vars:
            env[x] = tables[x][tuple(tau[u] for u in ubefore[x])]
        if not all(c.holds(env) for c in phi.body):
            return False
    return True


@pytest.fixture
def two_domain() -> Domain:
    return Domain(2)


@pytest.fixture
def abc_domain() -> Domain:
    return Domain(3, ("a", "b", "c"))
