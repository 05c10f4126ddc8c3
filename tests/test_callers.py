"""Every module-level function or class in the package has a caller in the
package: code only tests reach does not belong in ``src/``."""

import ast
from pathlib import Path

import secondguess

PACKAGE = Path(secondguess.__file__).parent


def _is_command(node) -> bool:
    """A function registered as a command on ``main`` (``@main.command``)."""
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command"
        and isinstance(d.func.value, ast.Name)
        and d.func.value.id == "main"
        for d in node.decorator_list
    )


def _uncalled(wanted) -> list:
    """"file:line name" of each module-level function or class for which
    ``wanted(node)`` holds and whose name no code in the package reads."""
    defined = {}  # name -> "file:line" of its def/class
    used = set()  # names read anywhere, as a name or an attribute
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node):
                defined[node.name] = f"{path.name}:{node.lineno}"
        # Code only: an import, a comment or a docstring is no caller.
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items() if name not in used)


def test_every_public_name_has_a_caller():
    uncalled = _uncalled(lambda node: not node.name.startswith("_") and not _is_command(node))
    assert not uncalled, "no caller in the package: " + ", ".join(uncalled)


def test_every_private_name_has_a_caller():
    """A private helper that only tests call, such as rules a test reference
    reader shares, belongs in the tests."""
    uncalled = _uncalled(
        lambda node: node.name.startswith("_") and not node.name.startswith("__")
    )
    assert not uncalled, "no caller in the package: " + ", ".join(uncalled)
