"""Every module-level function or class in the package has a caller in the
package: code only tests reach does not belong in ``src/``."""

import ast
import json
import os
import subprocess
import sys
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


# A cold process of each offline command: metrics with no cache, sweep on a
# cache hit, then simulate. Prints the numpy.ma modules loaded.
OFFLINE_COMMANDS = """
import sys
from secondguess.cli import main
log, out = sys.argv[1:]
for args in (["metrics", "--log", log, "--out", out],
             ["sweep", "--log", log, "--out", out],
             ["simulate", "--acc", "0.6", "--ecr", "0.3", "--eic", "0.1", "--trials", "3000",
              "--out", out]):
    main(args, standalone_mode=False)
print(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
"""


def test_offline_commands_do_not_import_numpy_ma(tmp_path):
    """``numpy.ma``, which ``np.unique`` and some other numpy functions
    import on first use, costs a cold process about 15 ms: metrics, sweep
    and simulate never load it."""
    log = tmp_path / "episodes.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"e{i}", "initial": {"text": "", "confidence": (i + 1) / 8},
                    "gate": "second_guessed", "correct_before": i % 2 == 0,
                    "correct_after": i % 3 == 0}) + "\n"
        for i in range(8)
    ))
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", OFFLINE_COMMANDS, str(log), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


# Messages of rules a backend response must keep, HTTP or mock script alike.
RESPONSE_RULES = (
    "token log-probability above zero",
    "generated text must be a non-empty string",
    "log-probability beyond float range",
)


def _literal_holders(message: str) -> list:
    """"file:function" of each innermost function in the package, or "file"
    outside any, that holds a string literal containing ``message``."""
    holders = set()

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition(':')[0]}:{node.name}"
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and message in node.value:
            holders.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    return sorted(holders)


def test_one_function_holds_each_response_rule():
    """A generation is valid by one rule set, ``backend._responses``, for the
    HTTP client and the mock script: a second copy of a rule, which could
    drift from the first, puts its message in a second function."""
    for message in RESPONSE_RULES:
        holders = _literal_holders(message)
        assert len(holders) == 1 and holders[0].startswith("backend.py:"), (message, holders)
