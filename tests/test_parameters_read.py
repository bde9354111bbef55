"""Every public function and method of equirep reads each of its parameters.

A parameter that nothing reads is a knob that does nothing: callers set it
and nothing changes.  Only reads count; forwarding a parameter to another
call is a read.
"""

import ast
from pathlib import Path

import equirep

SRC = Path(equirep.__file__).parent


def _public_functions(tree: ast.Module):
    """Module-level functions and methods of module-level classes, public names only."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("_") and item.name != "__init__")):
                    yield f"{node.name}.{item.name}", item


def _unread(fn: ast.FunctionDef) -> list[str]:
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {n.id for stmt in fn.body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [p for p in params if p not in ("self", "cls") and p not in read]


def test_every_public_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, fn in _public_functions(tree):
            unread += [f"{path.stem}.{name}({p})" for p in _unread(fn)]
    assert unread == []
