"""A guardrail that callers can set is set by one: every `*_cap` parameter of
a function the package calls is set by some call in the package. A cap that
every caller leaves at its default has one value, which belongs in a module
constant."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qcollapse").glob("*.py"))


def _definitions(node: ast.AST, prefix: str, cls: str | None = None):
    """(names calls use, label, parameters in binding order, the def) for
    every function under the node. A method drops its first parameter, and
    `__init__` is also called by its class's name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.", child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            params = [a.arg for a in args.posonlyargs + args.args]
            static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
            if cls and not static:
                params = params[1:]
            names = {child.name} | ({cls} if cls and child.name == "__init__" else set())
            label = f"{prefix}{child.name}"
            yield names, label, params + [a.arg for a in args.kwonlyargs], child
            yield from _definitions(child, f"{label}.")
        else:
            yield from _definitions(child, prefix, cls)


def _calls(function: ast.AST):
    """The calls in the function's own body, nested definitions left out."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def unset_caps() -> list[str]:
    """The `*_cap` parameters of called functions that no call sets. A call
    sets a parameter when it passes a value for it; passing on a parameter of
    the calling function sets it only when that parameter is set."""
    definitions = [
        (names, f"{path.stem}.{label}", params, node)
        for path in SOURCES
        for names, label, params, node in _definitions(
            ast.parse(path.read_text(encoding="utf-8"), str(path)), ""
        )
    ]
    by_name: dict[str, list] = {}
    for names, label, params, _ in definitions:
        for name in names:
            by_name.setdefault(name, []).append((label, params))
    edges = []  # (callee, parameter, None or the (caller, parameter) passed on)
    called = set()
    for _, caller, own, node in definitions:
        for call in _calls(node):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for callee, params in by_name.get(name, ()):
                called.add(callee)
                bound = []
                for param, arg in zip(params, call.args):
                    if isinstance(arg, ast.Starred):
                        break
                    bound.append((param, arg))
                bound += [(kw.arg, kw.value) for kw in call.keywords if kw.arg is not None]
                for param, value in bound:
                    passed_on = isinstance(value, ast.Name) and value.id in own
                    edges.append((callee, param, (caller, value.id) if passed_on else None))
    is_set: set = set()
    grew = True
    while grew:
        grew = False
        for callee, param, source in edges:
            if (callee, param) not in is_set and (source is None or source in is_set):
                is_set.add((callee, param))
                grew = True
    return sorted(
        f"{label}({param})"
        for _, label, params, _ in definitions
        if label in called
        for param in params
        if param.endswith("_cap") and (label, param) not in is_set
    )


def test_every_called_cap_is_set_by_some_call():
    assert SOURCES
    unset = unset_caps()
    assert not unset, unset
