"""Builders for the operation tables that come up again and again."""

from __future__ import annotations

import itertools

from .errors import StructuralError
from .model import Operation


def projection_op(domain_size: int, arity: int, coord: int, name: str | None = None) -> Operation:
    """The projection onto `coord` (1-based)."""
    if not (1 <= coord <= arity):
        raise StructuralError(f"projection coordinate {coord} out of range for arity {arity}")
    table = tuple(
        args[coord - 1] for args in itertools.product(range(domain_size), repeat=arity)
    )
    return Operation(name or f"p{arity}.{coord}", arity, domain_size, table)


def from_function(name: str, arity: int, domain_size: int, fn) -> Operation:
    table = tuple(fn(*args) for args in itertools.product(range(domain_size), repeat=arity))
    return Operation(name, arity, domain_size, table)


def and_op() -> Operation:
    return from_function("and", 2, 2, lambda x, y: x & y)


def or_op() -> Operation:
    return from_function("or", 2, 2, lambda x, y: x | y)


def majority_op() -> Operation:
    """Ternary majority over {0,1}: the value occurring at least twice."""
    return from_function("majority", 3, 2, lambda x, y, z: (x + y + z) // 2)


def minority_op() -> Operation:
    """Ternary minority over {0,1}: xor of the three arguments."""
    return from_function("minority", 3, 2, lambda x, y, z: x ^ y ^ z)


def dual_discriminator(domain_size: int) -> Operation:
    """d(x, y, z) = x when x = y, else z."""
    return from_function("dualdisc", 3, domain_size, lambda x, y, z: x if x == y else z)


def semilattice_to_shared(domain_size: int, shared: int, name: str | None = None) -> Operation:
    """The binary semilattice sending every pair of distinct elements to `shared`."""
    if not (0 <= shared < domain_size):
        raise StructuralError(f"shared element {shared} out of range")
    return from_function(
        name or f"meet{shared}", 2, domain_size, lambda x, y: x if x == y else shared
    )
