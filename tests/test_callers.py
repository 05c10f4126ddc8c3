"""Every module-level function or class in the package has a caller in the
package: code only tests reach does not belong in ``src/``."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import secondguess
from conftest import FOUR_EPISODE_SPECS, spec_questions, write_script
from secondguess.dataset import save_dataset

PACKAGE = Path(secondguess.__file__).parent
REPO = Path(__file__).parents[1]


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


def test_every_python_file_parses_at_the_oldest_supported_version():
    """Every ``.py`` file of the package, the tests and the benchmark parses
    with the grammar of pyproject's ``requires-python`` floor, so that a CI
    leg on that version meets no newer syntax, such as ``except*``."""
    pyproject = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject)
    version = (int(floor[1]), int(floor[2]))
    paths = [path for top in ("src", "tests", "perfbench") for path in (REPO / top).rglob("*.py")]
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)


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
    """Every input file is read through ``dataset``, JSONL by
    ``dataset.read_jsonl``, so a check of input bytes has one place to
    live."""
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
# The names through which json builds an encoder of its own.
ENCODER_NAMES = {"JSONEncoder", "c_make_encoder"}
# The names through which a reader sees how a file is chunked.
CHUNK_NAMES = {"read_chunks", "parse_chunk", "Chunk"}


def _named_outside(names, exempt="dataset.py") -> list:
    """"file:line" of each name or attribute outside the module ``exempt``,
    read or imported, that is one of ``names``."""
    return sorted({
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        if path.name != exempt
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) in names
        or (isinstance(node, ast.alias) and node.name in names)
    })


def _writes_a_file(node) -> bool:
    """A call that opens a file for writing, writes one whole
    (``write_text``, ``write_bytes``) or moves one onto a path
    (``os.replace``, ``os.rename``)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name == "open":
        return not _opens_for_reading(node)
    on_os = getattr(getattr(func, "value", None), "id", None) == "os"
    return name in ("write_text", "write_bytes") or (on_os and name in ("replace", "rename"))


def test_one_function_replaces_output_files():
    """Every output is replaced whole through ``dataset.replacing``, so a
    crash leaves the old file or the new one; the one other opener of a
    file for writing is ``pipeline.run``'s append to the episode log."""
    assert _holders(_writes_a_file) == ["dataset.py:replacing", "pipeline.py:run"]


def test_only_dataset_builds_a_json_parser():
    """JSONL input is parsed inside ``dataset`` alone, by the
    ``read_jsonl`` that every reader calls, so line numbers, the parse and
    its errors have one place to live. Whole-value ``json.loads`` calls (a
    response body, a cache's ids) are no JSONL parse."""
    parsers = _named_outside(PARSER_NAMES)
    assert not parsers, "builds a JSON parser: " + ", ".join(parsers)


def test_no_module_builds_a_json_encoder():
    """Episode log lines are written by ``pipeline._line`` alone, from the
    record's fixed layout, so no second line encoder, with its own idea of
    the line's bytes, can come back. A whole-value ``json.dumps`` call (a
    request body, a report) builds no encoder of its own."""
    encoders = _named_outside(ENCODER_NAMES, exempt=None)
    assert not encoders, "builds a JSON encoder: " + ", ".join(encoders)


def test_only_dataset_knows_how_a_file_is_chunked():
    """Readers outside ``dataset`` take ``read_jsonl``'s per-chunk results
    and never a chunk, so how a file is split, and into how many lines a
    chunk, has one place to live."""
    readers = _named_outside(CHUNK_NAMES)
    assert not readers, "sees a file's chunks: " + ", ".join(readers)


def test_only_cli_touches_the_collector():
    """The command group alone sets the cyclic garbage collector's policy,
    as only a command knows that what it loads lives to its end; the
    library leaves the collector as Python runs it."""
    users = _named_outside({"gc"}, exempt="cli.py")
    assert not users, "names gc: " + ", ".join(users)


# A cold process of each command but one over a backend: metrics with no
# cache, sweep on a cache hit, a run on a mock script, fit, stats and
# convert, then simulate. Prints whether numpy is loaded before simulate,
# then whether it is after, with the numpy.ma modules loaded, then the HTTP
# stack's modules.
OFFLINE_COMMANDS = """
import contextlib
import io
import sys
from secondguess.cli import main
log, out, data, script, winoground = sys.argv[1:]


def invoke(*args):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(list(args), standalone_mode=False)
    except SystemExit as exc:  # run ends with sys.exit
        if exc.code:
            raise


invoke("metrics", "--log", log, "--out", out)
invoke("sweep", "--log", log, "--out", out)
invoke("run", "--dataset", data, "--mock-script", script, "--mode", "selective", "--tau", "0.5",
       "--out", out + "/run")
invoke("fit", out + "/fit0", out + "/fit1")
invoke("stats", "--dataset", data)
invoke("convert", "--input", winoground, "--output", out + "/converted.jsonl")
print("numpy" in sys.modules)
invoke("simulate", "--acc", "0.6", "--ecr", "0.3", "--eic", "0.1", "--trials", "3000",
       "--out", out)
print("numpy" in sys.modules,
      sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma.")))
print(sorted({"http.client", "ssl", "email", "socket"} & set(sys.modules)))
"""


@pytest.fixture(scope="module")
def offline_modules(tmp_path_factory) -> list:
    """The lines OFFLINE_COMMANDS prints, from one cold process."""
    tmp = tmp_path_factory.mktemp("offline")
    log = tmp / "episodes.jsonl"
    log.write_text("".join(
        json.dumps({"id": f"e{i}", "initial": {"text": "", "confidence": (i + 1) / 8},
                    "gate": "second_guessed", "correct_before": i % 2 == 0,
                    "correct_after": i % 3 == 0}) + "\n"
        for i in range(8)
    ))
    save_dataset(spec_questions(FOUR_EPISODE_SPECS), tmp / "data.jsonl")
    write_script(FOUR_EPISODE_SPECS, tmp / "script.jsonl")
    for i in range(2):
        (tmp / "out" / f"fit{i}").mkdir(parents=True)
        (tmp / "out" / f"fit{i}" / "metrics.json").write_text(
            json.dumps({"surprisal": i + 1.0, "net_gain": 2.0 * i})
        )
    (tmp / "winoground.jsonl").write_text(json.dumps(
        {"id": "w0", "image_0": "a.png", "image_1": "b.png", "caption_0": "x", "caption_1": "y"}
    ) + "\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    args = [log, tmp / "out", tmp / "data.jsonl", tmp / "script.jsonl", tmp / "winoground.jsonl"]
    result = subprocess.run(
        [sys.executable, "-c", OFFLINE_COMMANDS, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_offline_commands_do_not_import_numpy_ma(offline_modules):
    """numpy costs a cold process 140-160 ms and 12.5 MiB, and ``numpy.ma``,
    which ``np.unique`` and some other numpy functions import on first use,
    about 15 ms more. ``import secondguess.cli``, metrics, sweep, a run on a
    mock script, fit, stats and convert never load numpy; simulate, the one
    command that draws with it, loads it, but never ``numpy.ma``."""
    assert offline_modules[:2] == ["False", "True []"]


def test_offline_commands_and_mock_run_load_no_http_stack(offline_modules):
    """``http.client`` brings ``ssl`` and ``email``, about 25 ms and 2.7 MiB
    in a cold process: the package never loads it, and only a run that
    builds an HTTPBackend loads ``socket``."""
    assert offline_modules[2] == "[]"


# A cold process of one run against an HTTP backend, given the run's
# arguments; prints the HTTP stack's modules loaded.
HTTP_RUN = """
import sys
from secondguess.cli import main
try:
    main(["run", *sys.argv[1:]], standalone_mode=False)
except SystemExit as exc:
    if exc.code:
        raise
print(sorted({"http.client", "ssl", "email", "socket"} & set(sys.modules)))
"""


def test_http_run_loads_socket_and_no_http_client(tmp_path, loopback):
    """A run over plain HTTP speaks it on a socket: it loads neither
    ``http.client`` with its ``email`` header parser nor ``ssl``."""
    payload = {"text": "is it?", "token_logprobs": [-0.1], "cumulative_logprob": -0.1}
    server = loopback(respond=lambda body: payload)
    save_dataset(spec_questions(FOUR_EPISODE_SPECS), tmp_path / "data.jsonl")
    args = ["--dataset", tmp_path / "data.jsonl", "--recomposer-url", server.url,
            "--mode", "decompose_all", "--out", tmp_path / "out"]
    result = subprocess.run(
        [sys.executable, "-c", HTTP_RUN, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert len(server.received) == 4 * 4
    assert result.stdout.splitlines()[-1] == "['socket']"


# Messages of rules a backend response must keep, HTTP or mock script alike.
RESPONSE_RULES = (
    "token log-probability above zero",
    "generated text must be a non-empty string",
    "log-probability beyond float range",
)


def _holders(match) -> list:
    """"file:function" of each innermost function in the package, or "file"
    outside any, that holds a node for which ``match(node)`` holds."""
    holders = set()

    def visit(node, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.partition(':')[0]}:{node.name}"
        if match(node):
            holders.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    return sorted(holders)


def _literal_holders(message: str) -> list:
    """The holders of a string literal containing ``message``."""
    return _holders(lambda node: isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and message in node.value)


def test_one_function_holds_each_response_rule():
    """A generation is valid by one rule set, ``backend._responses``, for the
    HTTP client and the mock script: a second copy of a rule, which could
    drift from the first, puts its message in a second function."""
    for message in RESPONSE_RULES:
        holders = _literal_holders(message)
        assert len(holders) == 1 and holders[0].startswith("backend.py:"), (message, holders)


def test_one_function_holds_the_repeated_id_rule():
    """Dataset rows, caption-matching records and episode records are
    refused a repeated id by one rule, ``dataset.repeated_id``."""
    assert _literal_holders("duplicate id") == ["dataset.py:repeated_id"]


# Each rule's message and the functions that hold it: the one that owns the
# rule, where its input enters or its output is written, or none for a copy
# of a rule that an earlier layer checks on the same input.
RULE_HOLDERS = {
    "cannot write": ["cli.py:invoke"],
    "must not be empty": ["dataset.py:_question_from_obj"],
    "winoground record missing field": ["dataset.py:winoground_records"],
    # tau_percentile's range, which PipelineConfig owns.
    "percentile must be in [0, 100]": ["pipeline.py:__post_init__"],
    "question must be non-empty": [],
    "not a decompose prompt kind": [],
    "unknown mode": [],
    "unknown scoring": [],
    "answers must be non-empty": [],
    "tau must be in (0, 1]": [],
    "confidences must be non-empty": [],
    "tau grid must be non-empty": [],
}


@pytest.mark.parametrize("message", RULE_HOLDERS)
def test_each_rule_has_one_owner(message):
    """An input is checked once, where it enters, and an output that cannot
    be written exits 2 in one handler: a second copy of a rule, which no
    command can reach, puts its message in a second function."""
    assert _literal_holders(message) == RULE_HOLDERS[message]
