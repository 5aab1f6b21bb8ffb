"""The output ledger: one line per run of the `qcollapse` command that
`manifest.txt` lists, holding the run's exit code and the sha256 of its
stdout, of its stderr and of every file it writes with `--out`.

Each manifest line is one argv, split as a shell splits it; blank lines and
`#` comments are skipped. The runs go in manifest order through
`qcollapse.cli.main`, in process, inside a fresh copy of `inputs/` that is
the working directory, so every path is relative and a `gen` line can write a
corpus that later lines read. argparse wraps its usage lines at COLUMNS,
which is set to 80 for the runs.

    python tests/ledger/record.py              # rewrite ledger.txt for an intended change
    python tests/ledger/record.py --print solve classify
        # print, without writing, the ledger lines of those verbs and of every
        # gen line (the corpora they may read)

`tests/test_ledger.py` compares a fresh run of every line with ledger.txt.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shlex
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Sequence

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.txt"
INPUTS = HERE / "inputs"
LEDGER = HERE / "ledger.txt"

# argv, exit code, stdout, stderr, and the bytes of each `--out` file by path
Run = tuple[list[str], int, str, str, dict[str, bytes]]


def read_manifest() -> list[list[str]]:
    argvs = []
    for line in MANIFEST.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            argvs.append(shlex.split(line))
    return argvs


def read_ledger() -> list[str]:
    return LEDGER.read_text(encoding="utf-8").splitlines()


def with_verbs(argvs: Sequence[list[str]], verbs: Sequence[str]) -> list[list[str]]:
    """The argvs of the given verbs, and every `gen` argv."""
    return [argv for argv in argvs if argv[0] in verbs or argv[0] == "gen"]


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def ledger_line(argv: Sequence[str], code: int, stdout: str, stderr: str,
                outs: dict[str, bytes]) -> str:
    """The argv, the exit code and the digests of what the run printed and
    wrote, tab-separated; written files in path order."""
    fields = [shlex.join(argv), f"exit={code}", f"stdout={_sha256(stdout)}",
              f"stderr={_sha256(stderr)}"]
    fields += [f"{path}={_sha256(data)}" for path, data in sorted(outs.items())]
    return "\t".join(fields)


def _out_files(argv: Sequence[str]) -> dict[str, bytes]:
    """What the run wrote with `--out`: the file, or every file under the
    directory (`gen`), by relative path."""
    if "--out" not in argv:
        return {}
    target = Path(argv[argv.index("--out") + 1])
    paths = sorted(p for p in target.rglob("*") if p.is_file()) if target.is_dir() else (
        [target] if target.is_file() else []
    )
    return {p.as_posix(): p.read_bytes() for p in paths}


@contextlib.contextmanager
def _in_copy_of_inputs() -> Iterator[None]:
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "inputs"
        shutil.copytree(INPUTS, work)
        os.chdir(work)
        os.environ["COLUMNS"] = "80"
        try:
            yield
        finally:
            os.chdir(cwd)
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns


def runs(argvs: Sequence[list[str]]) -> list[Run]:
    """Run each argv in order, in one copy of `inputs/`."""
    from qcollapse.cli import main

    out = []
    with _in_copy_of_inputs():
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(list(argv))
            out.append((list(argv), code, stdout.getvalue(), stderr.getvalue(), _out_files(argv)))
    return out


def lines(argvs: Sequence[list[str]]) -> list[str]:
    return [ledger_line(*run) for run in runs(argvs)]


def first_difference(expected: Sequence[str], actual: Sequence[str]) -> str | None:
    """A message naming the first run whose line differs, or None."""
    for want, got in zip(expected, actual):
        if want != got:
            return f"{got.split(chr(9))[0]}:\n  ledger: {want}\n  run:    {got}"
    if len(expected) != len(actual):
        return f"the ledger has {len(expected)} lines, the manifest {len(actual)} runs"
    return None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or print the output ledger.")
    parser.add_argument("--print", nargs="+", metavar="VERB", dest="verbs",
                        help="print the lines of these verbs (and of gen) instead of writing")
    args = parser.parse_args(argv)
    argvs = read_manifest()
    if args.verbs:
        print("\n".join(lines(with_verbs(argvs, args.verbs))))
        return 0
    LEDGER.write_text("\n".join(lines(argvs)) + "\n", encoding="utf-8")
    print(f"wrote {len(argvs)} lines to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
