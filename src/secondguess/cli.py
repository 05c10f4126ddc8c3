"""Command-line entry point wiring datasets, backends, pipeline, metrics,
and simulator into reproducible runs.

`run` is the one command that runs the chain and writes an episode log, in
any of the seven modes; `metrics` and `sweep` only read a log, whose columns
``pipeline.read_episode_log`` caches next to it. Exit codes: 0 success, 1
completed with failed episodes in the whole log (no metrics.json if all
failed) or stopped by Ctrl-C, 2 a usage error or config validation (a
ConfigError, or an output directory or file that cannot be written), 3
dataset error (a DatasetError, a log with no episode, or a tau the log
cannot answer). All outputs go under --out; every run directory gets a
manifest recording the resolved config, its hash, the seed and the start
time, written before the first backend call, then rewritten whole at the
end with the finish time, the whole log's episode and failure counts, and
this invocation's backend calls and transport retries. A run onto a log
that is not empty resumes it only under the config its manifest records,
its place, concurrency, retry budget and dataset file aside.

Start-up: every command pays the package import before it does any work,
and a reproduction runs many short commands, so ``import secondguess.cli``
loads only the standard library's ``argparse``, orjson and the modules that
the timed commands (``run``, ``metrics``, ``sweep``) use, and a command
builds the parser of that command alone (CHANGES.md's "Cold start without
click" line holds the times). What only some commands use is imported where
it is used: numpy by ``simulate``, ``statistics`` by ``fit``, ``socket``
and ``ssl`` by an HTTP backend, and ``logging`` by ``convert``'s caption
warning. The record types are named tuples, not dataclasses, whose module
every command would load and whose decorator builds each class at import.
No import that a timed command uses is made lazy: that would only move its
cost from start-up into the command.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import gc
import hashlib
import itertools
import json
# gettext imports it for argparse's first message, which every command's
# parser builds: imported here, at start-up, as the rule above asks.
import locale  # noqa: F401
import math
import os
import sys
from pathlib import Path
from typing import Optional

# numpy, which only `simulate` loads, starts OpenBLAS threads that busy-wait;
# no command does BLAS work.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__, dataset, evaluation, pipeline, prompts, simulator
from .backend import DEFAULT_RETRY_ATTEMPTS, HTTPBackend, MockBackend
from .dataset import DatasetError
from .pipeline import ConfigError, Engine, PipelineConfig

EXIT_CONFIG = 2
EXIT_DATASET = 3

# Every run option, written once: (config key, type, default, whether `run`
# takes it as --key-with-dashes; if not, it is config-file only). A type is
# int, float, str, or a tuple of the allowed strings; a key the chain reads is
# a PipelineConfig field and takes its default. Flags win over --config file
# values, which win over the defaults; file values are checked against the
# same types.
_DEFAULTS = PipelineConfig._field_defaults
OPTIONS = (
    ("dataset", str, None, True),
    ("recomposer_url", str, None, True),
    ("decomposer_url", str, None, True),
    ("mock_script", str, None, True),
    ("mode", pipeline.MODES, "direct", True),
    ("tau", float, _DEFAULTS["tau"], True),
    ("tau_percentile", float, _DEFAULTS["tau_percentile"], True),
    ("seed", int, _DEFAULTS["seed"], True),
    ("concurrency", int, _DEFAULTS["concurrency"], True),
    ("retry_budget", int, DEFAULT_RETRY_ATTEMPTS, False),
    ("out", str, "out", True),
    ("scoring", pipeline.SCORINGS, _DEFAULTS["scoring"], True),
    ("decomposer_prompt_style", prompts.DECOMPOSE_STYLES,
     _DEFAULTS["decomposer_prompt_style"], False),
)

DEFAULT_PERCENTILES = [float(p) for p in range(0, 101, 5)]


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    sys.exit(code)


def _numbers(text: Optional[str], name: str, high: float, default: list) -> list:
    """Comma-separated numbers, each in [0, high], or exit 2; default if the
    flag is absent."""
    if text is None:
        return default
    try:
        values = [float(v) for v in text.split(",")]
        if not all(0.0 <= v <= high for v in values):
            raise ValueError
    except ValueError:
        _fail(EXIT_CONFIG, f"{name} must be comma-separated numbers in [0, {high:g}]")
    return values


def _existing(path: str) -> str:
    """An option's path, which must exist and be readable: a usage error if not."""
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"path {path!r} does not exist or cannot be read")
    return path


def _joined(argv: list, options) -> list:
    """``argv`` with each flag of ``options`` joined to the word after it, as
    ``--flag=word``: an option's value may start with a dash (``-0.1,0.5``)."""
    flags = {flag for flag, _ in options if flag.startswith("-")}
    joined, words = [], iter(argv)
    for word in words:
        value = next(words, None) if word in flags else None
        joined.append(word if value is None else f"{word}={value}")
    return joined


def _checked(key: str, kind, value):
    """A config-file value of the option's type, or exit 2."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        _fail(EXIT_CONFIG, f"config key {key!r} must be one of {list(kind)}, got {value!r}")
    # bool is an int subclass, but true/false is no number.
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or isinstance(value, bool):
        _fail(EXIT_CONFIG, f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _read_setting(read, path, what: str):
    """``read(path)`` for a file that configures a run; its DatasetError is
    raised again as a ConfigError that says the ``what`` cannot be read."""
    try:
        return read(path)
    except DatasetError as exc:
        raise ConfigError(f"cannot read {what}: {exc}") from exc


def _load_config(config_path, flags: dict) -> dict:
    """Resolve every option from flags, the --config file and the defaults."""
    file_cfg = {}
    if config_path:
        file_cfg = _read_setting(dataset.read_json, config_path, "config file")
        if not isinstance(file_cfg, dict):
            _fail(EXIT_CONFIG, "config file must hold a JSON object")
        unknown = set(file_cfg) - {key for key, *_ in OPTIONS}
        if unknown:
            _fail(EXIT_CONFIG, f"unknown config keys: {sorted(unknown)}")
    cfg = {}
    for key, kind, default, _ in OPTIONS:
        value = flags.get(key)
        if value is None and file_cfg.get(key) is not None:
            value = _checked(key, kind, file_cfg[key])
        if value is None:
            value = default
        if value is not None:
            cfg[key] = value
    if cfg["retry_budget"] < 1:
        _fail(EXIT_CONFIG, "retry_budget must be at least 1")
    return cfg


def _build_engine(cfg: dict) -> Engine:
    if cfg.get("mock_script"):
        mock = _read_setting(MockBackend.from_script, cfg["mock_script"], "mock script")
        return Engine(recomposer=mock, decomposer=mock)
    if not cfg.get("recomposer_url"):
        _fail(EXIT_CONFIG, "one of mock_script / recomposer_url is required")
    try:
        recomposer = HTTPBackend(cfg["recomposer_url"], attempts=cfg["retry_budget"])
        decomposer = recomposer
        if cfg.get("decomposer_url"):
            decomposer = HTTPBackend(cfg["decomposer_url"], attempts=cfg["retry_budget"])
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))
    return Engine(recomposer=recomposer, decomposer=decomposer)


def _load_questions(path):
    if not path:
        _fail(EXIT_CONFIG, "dataset path is required")
    return dataset.load_dataset(path)


def _from_log(log_path, compute):
    """``compute`` of the columns of the log at ``log_path``; exit 3 if it is
    missing or ``compute`` raises ValueError (no episode, or an unanswered tau)."""
    # False, where Path.exists raises, on a directory that cannot be searched.
    if not os.path.exists(log_path):
        _fail(EXIT_DATASET, f"episode log not found: {log_path}")
    log = pipeline.read_episode_log(log_path)
    try:
        return compute(log)
    except ValueError as exc:
        _fail(EXIT_DATASET, str(exc))


# The config keys a resume may change: where the log is, the calls in flight
# (no byte of a log depends on them), the retry budget, which only decides
# whether a transient fault fails a call, and the dataset file, which a
# resume may grow.
_RESUME_FREE_KEYS = {"out", "concurrency", "retry_budget", "dataset"}


def _check_resume(out_dir: Path, cfg: dict) -> None:
    """One log holds the records of one config: a run onto a log that is not
    empty raises ConfigError, naming the keys, when the config its manifest
    records differs from ``cfg`` in a key a resume may not change, and when
    that manifest cannot be read or holds no config object. A log with no
    manifest resumes."""
    log, manifest_path = out_dir / "episodes.jsonl", out_dir / "manifest.json"
    try:
        if not log.stat().st_size or not manifest_path.exists():
            return
    except OSError:  # no log, or one the run's own read reports on
        return
    manifest = _read_setting(dataset.read_json, manifest_path, f"the manifest {manifest_path}")
    recorded = manifest.get("config") if isinstance(manifest, dict) else None
    if not isinstance(recorded, dict):
        raise ConfigError(f"{manifest_path} holds no config object")
    changed = sorted(key for key in (recorded.keys() | cfg.keys()) - _RESUME_FREE_KEYS
                     if recorded.get(key) != cfg.get(key))
    if changed:
        raise ConfigError(
            f"{log} holds episodes of another config: {', '.join(changed)} differ from "
            f"{manifest_path}; use another --out, or remove the log to run every question again"
        )


def _write_manifest(out_dir: Path, cfg: dict, started: str, summary=None) -> None:
    """The run's manifest; given the run's summary, with when it finished
    and its counts."""
    canonical = json.dumps(cfg, sort_keys=True)
    manifest = {
        "tool_version": __version__,
        "config": cfg,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg["seed"],
        "started_at": started,
    }
    if summary is not None:
        manifest["finished_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        manifest.update(summary._asdict())
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with dataset.replacing(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class _Main:
    """The ``secondguess`` command: ``main(args, prog_name)`` or
    ``main.main(args=..., prog_name=...)``."""

    name = "secondguess"
    commands = {}  # name -> (function, its (flag, add_argument keywords) pairs)

    def command(self, name: str, *options):
        def register(fn):
            self.commands[name] = (fn, options)
            return fn
        return register

    def main(self, args=None, prog_name: Optional[str] = None) -> None:
        """Parses ``args`` (default ``sys.argv[1:]``) with the parser of the
        command they name, the only one built, runs it through ``invoke`` and
        exits 0 when it returns. A usage error exits 2, ``--help`` 0."""
        argv = sys.argv[1:] if args is None else list(args)
        prog = prog_name or self.name
        if not argv or argv[0] not in self.commands:
            parser = argparse.ArgumentParser(prog=prog, description=__doc__.partition("\n\n")[0],
                                             allow_abbrev=False)
            parser.add_argument("--version", action="version",
                                version=f"%(prog)s, version {__version__}")
            commands = parser.add_subparsers(metavar="COMMAND", required=True)
            for name, (fn, _) in self.commands.items():
                commands.add_parser(name, help=" ".join(fn.__doc__.split()).partition(". ")[0])
            parser.parse_args(argv[:1])  # help, the version or a usage error: each exits
        name, *words = argv
        fn, options = self.commands[name]
        parser = argparse.ArgumentParser(prog=f"{prog} {name}", description=fn.__doc__,
                                         allow_abbrev=False)
        for flag, keywords in options:
            parser.add_argument(flag, **keywords)
        self.invoke(fn, vars(parser.parse_args(_joined(words, options))))
        sys.exit(0)

    __call__ = main

    def invoke(self, command, kwargs: dict) -> None:
        """Runs ``command(**kwargs)``. A ConfigError exits 2, a DatasetError
        3, and an OSError 2: every input is read through ``dataset``, which
        raises its OSError as a DatasetError, so an OSError comes from an
        output, named by ``dataset.replacing``, or from standard output,
        such as a closed pipe, if it names no file. Ctrl-C exits 1.

        The command runs with the cyclic garbage collector disabled, enabled
        again on the way out, whatever the exit, only if it was on entry: a
        command makes a fixed number of reference cycles, none per item
        (``test_a_command_makes_no_cycles_per_item``), while each full
        collection would walk all it has loaded, which lives to its end
        (CHANGES.md's "One owner of the garbage collector" line has the
        times). A library caller keeps Python's own collector behaviour."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            command(**kwargs)
        except (ConfigError, DatasetError) as exc:
            _fail(EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DATASET, str(exc))
        except OSError as exc:
            _fail(EXIT_CONFIG, f"cannot write {exc.filename or 'standard output'}: {exc.strerror}")
        except KeyboardInterrupt:
            print("\nAborted!", file=sys.stderr, flush=True)
            sys.exit(1)
        finally:
            if enabled:
                gc.enable()


main = _Main()


@main.command("run", ("--config", dict(dest="config_path", type=_existing)), *(
    ("--" + key.replace("_", "-"),
     {"dest": key, "choices" if isinstance(kind, tuple) else "type": kind})
    for key, kind, _, is_flag in OPTIONS if is_flag))
def cmd_run(config_path, **flags) -> None:
    """Execute a pipeline run and write episodes, metrics, and a manifest."""
    cfg = _load_config(config_path, flags)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    questions = _load_questions(cfg.get("dataset"))
    pcfg = PipelineConfig(**{key: cfg.get(key) for key in PipelineConfig._fields})
    if pcfg.mode in pipeline.ORACLE_MODES and not any(q.sub_qas for q in questions):
        _fail(EXIT_DATASET, "dataset carries no sub_qas; oracle modes need them")
    out_dir = Path(cfg["out"])
    _check_resume(out_dir, cfg)
    # Built before out/ exists, so a bad backend config writes nothing.
    engine = _build_engine(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.json"
    if metrics_path.is_dir():  # written after the calls, so refused before them
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(metrics_path))
    episodes_path = out_dir / "episodes.jsonl"
    try:
        # The manifest, written once the log has been read and before the
        # first call, finds an out/ that cannot be written at no call's cost.
        summary, log = pipeline.run(questions, pcfg, engine, episodes_path,
                                    before_calls=lambda: _write_manifest(out_dir, cfg, started))
    finally:
        for backend in (engine.recomposer, engine.decomposer):
            if isinstance(backend, HTTPBackend):
                backend.close()
    _write_manifest(out_dir, cfg, started, summary)
    qtype_map = {q.id: q.qtype for q in questions}
    try:
        report = evaluation.compute_report(
            log, tau=summary.resolved_tau, qtype_map=qtype_map
        )
    except ValueError as exc:  # every episode failed, none ran, or the log cannot answer tau
        _fail(1 if 0 < summary.failures == summary.episodes else EXIT_DATASET, str(exc))
    _write_json(metrics_path, report._asdict())
    print(
        f"run complete: {summary.episodes} episodes "
        f"({summary.failures} failures) -> {episodes_path}",
        flush=True,
    )
    sys.exit(0 if summary.failures == 0 else 1)


@main.command("sweep", ("--log", dict(dest="log_path", required=True)),
              ("--percentiles", dict(help="comma-separated percentiles")),
              ("--out", dict(default="out")))
def cmd_sweep(log_path, percentiles, out) -> None:
    """Offline threshold sweep over an episode log; no model calls. Writes
    the points whose tau the log answers, and exits 3 if none is left."""
    grid = _numbers(percentiles, "percentiles", 100.0, DEFAULT_PERCENTILES)
    points = _from_log(log_path, lambda log: evaluation.sweep(log, grid))
    csv_path = Path(out) / "sweep.csv"
    with dataset.replacing(csv_path) as fh:
        evaluation.write_sweep_csv(points, fh)
    print(f"wrote {len(points)} sweep points -> {csv_path}", flush=True)


@main.command("convert", ("--input", dict(dest="input_path", type=_existing, required=True)),
              ("--output", dict(dest="output_path", required=True)))
def cmd_convert(input_path, output_path) -> None:
    """Convert winoground-style records into the canonical VQA schema. The
    whole input is checked before any caption warning or output."""
    seen = set()
    records = list(itertools.chain.from_iterable(
        dataset.read_jsonl(input_path, lambda values: dataset.winoground_records(values, seen))
    ))
    questions, warnings = dataset.convert_winoground(records)
    dataset.save_dataset(questions, output_path)
    print(
        f"converted {len(records)} records into {len(questions)} questions "
        f"({warnings} caption warnings) -> {output_path}",
        flush=True,
    )


@main.command("stats", ("--dataset", dict(dest="dataset_path", type=_existing, required=True)))
def cmd_stats(dataset_path) -> None:
    """Print item count and average question length for a dataset."""
    stats = dataset.stats(_load_questions(dataset_path))
    print(json.dumps({"name": dataset_path, **stats}, indent=2), flush=True)


@main.command("simulate", ("--acc", dict(type=float, required=True)),
              ("--ecr", dict(type=float, required=True)),
              ("--eic", dict(type=float, required=True)),
              ("--trials", dict(type=int, default=simulator.SimConfig._field_defaults["trials"])),
              ("--seed", dict(type=int, default=simulator.SimConfig._field_defaults["seed"])),
              ("--tau-grid", dict(help="comma-separated thresholds")),
              ("--out", dict(default="out")))
def cmd_simulate(acc, ecr, eic, trials, seed, tau_grid, out) -> None:
    """Simulate the accuracy-vs-threshold curve and write the sweep CSV."""
    taus = _numbers(tau_grid, "tau-grid", 1.0, [i / 20 for i in range(21)])
    try:
        cfg = simulator.SimConfig(
            base_accuracy=acc, e_cr=ecr, e_ic=eic, trials=trials, seed=seed
        )
    except ValueError as exc:
        _fail(EXIT_CONFIG, str(exc))
    curve = simulator.simulate(cfg, taus)
    csv_path = Path(out) / "simulated_sweep.csv"
    with dataset.replacing(csv_path) as fh:
        evaluation.write_sweep_csv(curve.points, fh)
    print(
        f"decompose-all accuracy {curve.decompose_all_accuracy:.4f} "
        f"(closed form {simulator.closed_form_decompose_all(cfg):.4f}), "
        f"optimal tau {curve.optimal_tau} "
        f"(accuracy {curve.optimal_accuracy:.4f}) -> {csv_path}",
        flush=True,
    )


@main.command("fit", ("run_dirs", dict(nargs="+")))
def cmd_fit(run_dirs) -> None:
    """Regress net gain on threshold surprisal across runs' metrics.json.

    Runs without a surprisal (no tau, or tau 0) are left out; fewer than two
    runs with one, or all at one surprisal, exit 3.
    """
    points = []
    for run_dir in run_dirs:
        path = Path(run_dir) / "metrics.json"
        try:
            metrics = dataset.read_json(path)
            point = (metrics["surprisal"], metrics["net_gain"])
        except (DatasetError, KeyError, TypeError) as exc:
            # str(KeyError("k")) is the key's repr.
            problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            _fail(EXIT_DATASET, f"cannot read surprisal and net_gain from {path}: {problem}")
        if point[0] is None:
            continue
        # bool is an int subclass, but true/false is no number.
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in point):
            _fail(EXIT_DATASET, f"{path}: surprisal and net_gain must be finite numbers")
        points.append(point)
    try:
        fit = evaluation.linear_fit(points)
    except ValueError as exc:
        _fail(EXIT_DATASET, f"{len(points)} runs with a surprisal: {exc}")
    print(json.dumps({"runs": len(points), **fit}, indent=2), flush=True)


@main.command("metrics", ("--log", dict(dest="log_path", required=True)),
              ("--dataset", dict(dest="dataset_path", type=_existing)),
              ("--tau", dict(type=float)),
              ("--out", dict(default="out")))
def cmd_metrics(log_path, dataset_path, tau, out) -> None:
    """Recompute the metrics report (and sweep CSV) from an episode log. With
    --tau, replay the gate at tau; a log that cannot answer tau exits 3."""
    if tau is not None and not 0.0 <= tau <= 1.0:
        _fail(EXIT_CONFIG, "tau must be in [0, 1]")
    qtype_map = None
    if dataset_path:
        qtype_map = {q.id: q.qtype for q in _load_questions(dataset_path)}
    report, points = _from_log(log_path, lambda log: (
        evaluation.compute_report(log, tau=tau, qtype_map=qtype_map),
        evaluation.sweep(log, DEFAULT_PERCENTILES),
    ))
    out_dir = Path(out)
    _write_json(out_dir / "metrics.json", report._asdict())
    with dataset.replacing(out_dir / "sweep.csv") as fh:
        evaluation.write_sweep_csv(points, fh)
    print(f"wrote metrics.json and sweep.csv -> {out_dir}", flush=True)


if __name__ == "__main__":
    main()
