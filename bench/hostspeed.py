"""Host-speed reference for the benchmark's timings.

The benchmark's host is a share of a machine whose speed swings by up to
1.7x and holds a state for seconds to minutes, so raw wall times of the same
code differ between runs by more than any useful bound. Every timed call is
therefore bracketed by a fixed pure-Python kernel, and the call's time is
scaled to the reference speed at which the kernel takes `REF_SECONDS`:

    time at reference speed = raw time * REF_SECONDS / kernel time around it

The kernel is the benchmark's own code and never calls the program, so a
change to the program moves the scaled time exactly as it moves the raw one.
The kernel mixes the three kinds of work the program does (integer and dict
arithmetic, a recursive game over tuples, and operation tables checked
against relations), because the swing slows these by different amounts.

Importing a package into a fresh interpreter hardly follows the swing (a
1.7x slower kernel came with about 1.3x slower imports), and a reference
import of standard-library modules varied on its own, so set-up time scales
only its in-process part by the kernel and reports import time unscaled.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

import reference

# kernel time (seconds) that defines the reference speed; about the kernel's
# median on the measuring host in a slow spell
REF_SECONDS = 0.004


def _star(n: int) -> tuple[list, list]:
    ys = [f"y{i}" for i in range(n)]
    body = [("H", (a, b, "x")) for a, b in zip(ys, ys[1:])]
    return [("forall", y) for y in ys] + [("exists", "x")], body


_HORN = {"H": (3, frozenset(
    t for t in itertools.product((0, 1), repeat=3) if not (t[0] and t[1]) or t[2]
))}
_STAR = _star(7)
_rng = random.Random("hostspeed")
_TABLES = [tuple(_rng.randrange(3) for _ in range(9)) for _ in range(40)]
_LANGUAGE3 = {"R": (2, frozenset(
    t for t in itertools.product(range(3), repeat=2) if _rng.random() < 0.6
))}
del _rng


def _arith() -> int:
    total, seen = 0, {}
    for i in range(6000):
        total += i * i % 7
        seen[i % 500] = total
    return total


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel."""
    start = time.perf_counter()
    _arith()
    reference.evaluate(2, _HORN, *_STAR)
    for table in _TABLES:
        reference.preserves_language(3, 2, table, _LANGUAGE3)
    reference.closed_subsets(3, [(2, t) for t in _TABLES[:3]])
    return time.perf_counter() - start


def warm_up() -> None:
    for _ in range(20):
        kernel_seconds()


def at_reference_speed(seconds: float, *kernel_times: float) -> float:
    """`seconds` measured between the given kernel passes, scaled to the
    reference speed."""
    return seconds * REF_SECONDS / statistics.fmean(kernel_times)
