"""qcollapse benchmark.

    python3 bench/run.py --workload solve|scale|classify|all --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory and driven in-process through `qcollapse.cli.main(argv)`,
as a user runs a verb, on files this benchmark generates from `--seed`.

A run repeats whole rounds of its workload (every round has the same item
make-up, see inputs.py) until `--seconds` have passed and at least
`MIN_ROUNDS` rounds are done, then prints one JSON line: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`. The traced
run does exactly `MIN_ROUNDS` rounds, so its per-run totals compare across
commits. Every output is checked against the independent computations in
reference.py; a wrong answer or a program error counts as a failed item.
`--workload all` runs the three workloads one after another, each in a fresh
process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("solve", "scale", "classify")
# rounds that give every run at least ten primary items beyond its p90
MIN_ROUNDS = {"solve": 6, "scale": 10, "classify": 3}
SETUP_REPEATS = 9


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing program, broken generator)."""


class Harness:
    def __init__(self, root: Path, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
        # primary verbs, seconds at the reference speed (hostspeed.py)
        self.latencies: list[float] = []
        self.raw_seconds = 0.0  # the same calls' summed wall time
        self.raw_kernel = 0.0  # summed kernel time around them
        self.oracle_times: list[float] = []
        # per round: (primary items, their seconds, oracle calls, their seconds)
        self.round_totals: list[tuple[int, float, int, float]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []
        self.tracer = None
        self.by_class: dict[str, list] = {}

    # -- calling the program -------------------------------------------------

    def call(self, argv: list[str], timed: bool = True) -> tuple[int, str, str, float]:
        """Run one verb in-process; returns (exit code, stdout, stderr,
        seconds at the reference speed). A timed call is bracketed by the
        host-speed kernel."""
        from qcollapse import cli

        before = hostspeed.kernel_seconds() if timed else 0.0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        if timed:
            after = hostspeed.kernel_seconds()
            if argv[0] != "solve-oracle":
                self.raw_seconds += elapsed
                self.raw_kernel += (before + after) / 2
            elapsed = hostspeed.at_reference_speed(elapsed, before, after)
        return code, out.getvalue(), err.getvalue(), elapsed

    def untraced(self, argv: list[str]):
        """A call made only to check an answer: untimed and kept out of
        the trace."""
        if self.tracer is None:
            return self.call(argv, timed=False)
        self.tracer.enabled = False
        try:
            return self.call(argv, timed=False)
        finally:
            self.tracer.enabled = True

    # -- one item -------------------------------------------------------------

    def run_item(self, item: inputs.Item, path: Path):
        if self.tracer is not None:
            self.tracer.item = self.attempted
        self.attempted += 1
        try:
            code, out, err, elapsed = self.call([item.verb, str(path)])
            self.latencies.append(elapsed)
            self.by_class.setdefault(item.cls, []).append(elapsed)
            problem = check(self, item, path, code, out, err)
        except BenchError:
            raise
        except Exception as exc:  # the item fails; the run goes on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = f"error: {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
        if problem is not None:
            self.failed += 1
            if not problem.startswith(("error:", "exit ")):
                self.wrong += 1
            if len(self.notes) < 20:
                self.notes.append(f"{item.cls}: {problem}")

    def oracle(self, path: Path, want: bool) -> str | None:
        """Decide a formula file with solve-oracle (timed); None when the
        answer matches the reference verdict."""
        code, out, err, elapsed = self.call(["solve-oracle", str(path)])
        self.oracle_times.append(elapsed)
        if code not in (0, 1):
            return f"exit {code} from solve-oracle: {err.strip()[:200]}"
        said = out.strip()
        if said not in ("true", "false") or (said == "true") != (code == 0):
            return f"solve-oracle printed {said!r} with exit {code}"
        if (code == 0) != want:
            return f"solve-oracle says {said}, reference says {str(want).lower()}"
        return None

    def run_round(self, items: list[inputs.Item], round_no: int):
        folder = self.work / f"r{round_no}"
        folder.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, item in enumerate(items):
            path = folder / f"item{i:03d}.txt"
            path.write_text(item.text, encoding="utf-8")
            paths.append(path)
        first, first_oracle = len(self.latencies), len(self.oracle_times)
        for item, path in zip(items, paths):
            self.run_item(item, path)
        shutil.rmtree(folder)
        self.round_totals.append((
            len(self.latencies) - first, sum(self.latencies[first:]),
            len(self.oracle_times) - first_oracle, sum(self.oracle_times[first_oracle:]),
        ))

    def rate(self, count_at: int) -> float:
        """Median over rounds of calls per second of the calls' own time;
        the median keeps a slow spell of a shared machine in one round from
        moving the run's figure."""
        return statistics.median(
            totals[count_at] / totals[count_at + 1] for totals in self.round_totals
        )


# ---------------------------------------------------------------------------
# Checks against the independent computations
# ---------------------------------------------------------------------------


def check(h: Harness, item: inputs.Item, path: Path, code: int, out: str, err: str):
    """None when the program's answer is right, else what is wrong."""
    if item.verb == "solve":
        return check_solve(h, item, path, code, out, err)
    if code != 0:
        return f"exit {code} from {item.verb}: {err.strip()[:200]}"
    report = json.loads(out)
    if item.verb == "analyze":
        return check_analyze(item, report)
    if item.cls.startswith("classify2"):
        return check_classify2(item, report)
    return check_classify3(h, item, report)


def check_solve(h, item, path, code, out, err):
    prefix, body = item.formulas[0]
    want = reference.evaluate(2, item.info["language"], prefix, body)
    if "intended" in item.info and item.info["intended"] != want:
        raise BenchError(f"{item.cls}: generator built a formula of the wrong verdict")
    if code not in (0, 1):
        return f"exit {code} from solve: {err.strip()[:200]}"
    first = out.split("\n", 1)[0]
    if not first.startswith("collapse verdict: ") or (" true " in first) != (code == 0):
        return f"solve printed {first!r} with exit {code}"
    if (code == 0) != want:
        return f"solve says {'true' if code == 0 else 'false'}, reference says {str(want).lower()}"
    return h.oracle(path, want)


def check_classify2(item, report):
    language = item.info["language"]
    hits = reference.dispatch_hits(language)
    label = report["label"]
    expected = "P_certified" if hits else "PSPACE_complete_cited"
    if label != expected:
        return f"label {label}, expected {expected} (dispatch operations {hits})"
    if label == "P_certified":
        generators = [reference.BOOLEAN_DISPATCH[h] for h in hits]
        try:
            header = reference.replay_certificate(report["certificate"], 2, generators)
        except (ValueError, KeyError, IndexError) as exc:
            return f"certificate does not replay: {exc}"
        reduction = report["reduction"]
        if (header["width"], header["source"]) != (reduction["width"], reduction["source"]):
            return "certificate width/source differ from the reported reduction"
    return None


def check_classify3(h, item, report):
    language = item.info["language"]
    label = report["label"]
    semilattice = bool(reference.semilattice_elements(3, language))
    if (label == "unresolved") != semilattice:
        return f"label {label} but shared-element semilattice preserves: {semilattice}"
    folder = h.work / "checks"
    folder.mkdir(parents=True, exist_ok=True)
    for k, (prefix, body) in enumerate(item.formulas):
        want = reference.evaluate(3, language, prefix, body)
        path = folder / f"formula{k}.txt"
        path.write_text(inputs.render(3, language, prefix, body), encoding="utf-8")
        problem = h.oracle(path, want)
        if problem is not None:
            return problem
        if label != "P_certified":
            continue
        width = report["reduction"]["width"]
        source = report["reduction"]["source"]
        argv = ["solve", str(path), "--unsafe", "--j", str(width)]
        argv += ["--const", str(source[0])] if len(source) == 1 else ["--source", "all"]
        code, out, err, _ = h.untraced(argv)
        if code not in (0, 1):
            return f"exit {code} from certified solve: {err.strip()[:200]}"
        if (code == 0) != want:
            return f"certified width {width} source {source} decides a formula wrongly"
    return None


def check_analyze(item, report):
    generators = item.info["generators"]
    closed = reference.closed_subsets(3, generators)
    reported = [frozenset(e["universe"]) for e in report["subalgebras"]]
    if sorted(map(sorted, reported)) != sorted(map(sorted, closed)):
        return f"subalgebras {sorted(map(sorted, reported))}, brute force {sorted(map(sorted, closed))}"
    if report["sink"]["kind"] == "sink_certified":
        closure = reference.binary_closure(3, generators)
        if not any(reference.shared_semilattice(3, s) in closure for s in range(3)):
            return "sink_certified without a shared semilattice among binary term operations"
    return None


# ---------------------------------------------------------------------------
# Set-up and the run
# ---------------------------------------------------------------------------

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qcollapse.cli; print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Median time to import the program in a fresh interpreter. It is not
    scaled to the reference speed: see hostspeed.py."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(src)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise BenchError(f"importing qcollapse failed: {done.stderr.strip()[-300:]}")
        times.append(float(done.stdout.strip()))
    return statistics.median(times)


def generation_seconds(h: Harness) -> float:
    """Median time to generate and write the first round's input files, at
    the reference speed."""
    times = []
    for rep in range(SETUP_REPEATS):
        before = hostspeed.kernel_seconds()
        start = time.perf_counter()
        items = next(inputs.workload_rounds(h.workload, h.seed))
        folder = h.work / f"setup{rep}"
        folder.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(items):
            (folder / f"item{i:03d}.txt").write_text(item.text, encoding="utf-8")
        elapsed = time.perf_counter() - start
        times.append(hostspeed.at_reference_speed(elapsed, before, hostspeed.kernel_seconds()))
        shutil.rmtree(folder)
    return statistics.median(times)


def find_program(root: Path) -> Path:
    src = root / "src"
    if not (src / "qcollapse" / "cli.py").is_file():
        raise BenchError(f"no qcollapse sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import qcollapse

    if Path(qcollapse.__file__).resolve().parent != (src / "qcollapse").resolve():
        raise BenchError(f"imported qcollapse from {qcollapse.__file__}, not from {src}")
    return src


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src = find_program(root)
    import qcollapse.cli  # noqa: F401  (every module the verbs use)

    h = Harness(root, workload, seed)
    h.work.mkdir(parents=True, exist_ok=True)
    hostspeed.warm_up()
    try:
        setup = import_seconds(src) + generation_seconds(h)
        if trace:
            from tracing import Tracer

            h.tracer = Tracer()
            h.tracer.install()
            h.tracer.enabled = True
        rounds = inputs.workload_rounds(workload, seed)
        start = time.perf_counter()
        done = 0
        for round_no, items in enumerate(rounds):
            if done >= MIN_ROUNDS[workload] and (trace or time.perf_counter() - start >= seconds):
                break
            h.run_round(items, round_no)
            done += 1
        wall = time.perf_counter() - start
        if h.tracer is not None:
            h.tracer.enabled = False
            h.tracer.uninstall()
    finally:
        shutil.rmtree(h.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            h.work.parent.rmdir()

    primary = len(h.latencies)
    items_per_s = h.rate(0)
    for cls, times in sorted(h.by_class.items()):
        print(f"  {cls:32s} n={len(times):4d} median_ms {statistics.median(times) * 1000:9.2f}",
              file=sys.stderr)
    for note in h.notes:
        print(f"failed item: {note}", file=sys.stderr)
    print(
        f"{workload}: {done} rounds, {primary} items, {len(h.oracle_times)} oracle calls, "
        f"{wall:.1f} s wall, items_per_s {items_per_s:.4f}; unscaled: "
        f"{primary / h.raw_seconds:.4f} items per second of call time, "
        f"kernel {h.raw_kernel / primary * 1000:.3f} ms", file=sys.stderr,
    )
    if trace:
        metrics = h.tracer.metrics(primary)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        h.tracer.write_spans(out_dir / f"spans-{workload}-{seed}.tsv")
    else:
        deciles = statistics.quantiles(h.latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": (setup, "s"),
            "items_per_s": (items_per_s, "1/s"),
            "item_p50_ms": (deciles[4] * 1000.0, "ms"),
            "item_p90_ms": (deciles[8] * 1000.0, "ms"),
            "oracle_items_per_s": (h.rate(2), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": h.wrong == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.workload == "all":
        for workload in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": workload, **result}), flush=True)
        return 0
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
