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


def _opens_for_reading(call) -> bool:
    """An ``open(...)`` or ``x.open(...)`` call with no mode, or with a mode
    that is not a string constant holding "w", "a" or "x"."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name != "open":
        return False
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > 1:
        mode = call.args[1]
    writes = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
    return not (writes and any(c in mode.value for c in "wax"))


def test_only_dataset_opens_files_for_reading():
    """Every input file is read through ``dataset.read_chunks``, so a check
    of input bytes has one place to live."""
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.name != "dataset.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _opens_for_reading(node)
    )
    assert not readers, "opens a file for reading: " + ", ".join(readers)


# The names through which json builds a parser of its own, and orjson.
PARSER_NAMES = {"JSONDecoder", "scan_once", "raw_decode", "orjson"}


def test_only_dataset_builds_a_json_parser():
    """JSONL input is parsed by ``dataset.parse_chunk`` alone, so line
    numbers, the parse and its errors have one place to live. Whole-value
    ``json.loads`` calls (a response body, a cache's ids) are no JSONL
    parse."""
    parsers = sorted({
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.name != "dataset.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        in PARSER_NAMES
    })
    assert not parsers, "builds a JSON parser: " + ", ".join(parsers)
