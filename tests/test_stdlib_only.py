"""The package has no runtime dependency: every module imports only the
standard library and the package itself."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qcollapse").glob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_absolute_import_is_stdlib_or_the_package():
    assert SOURCES
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in SOURCES
        for line, module in _absolute_imports(path)
        if module.split(".")[0] not in sys.stdlib_module_names | {"qcollapse"}
    ]
    assert not foreign, foreign
