"""Command-line entry point wiring datasets, backends, pipeline, metrics,
and simulator into reproducible runs.

`run` is the one command that runs the chain and writes an episode log, in
any of the seven modes; `metrics` and `sweep` only read a log, whose columns
``pipeline.read_episode_log`` caches next to it. Exit codes: 0 success, 1
completed with failed episodes in the whole log (no metrics.json if all
failed), 2 config validation (a ConfigError, or an output directory or file
that cannot be written), 3 dataset error (a DatasetError, a log with no
episode, or a tau the log cannot answer). All outputs go under --out; every
run directory gets a manifest recording the resolved config, its hash, the
seed, timestamps, the whole log's episode and failure counts, and this
invocation's backend calls and transport retries.

Start-up: every command pays the package import before it does any work,
and a reproduction runs many short commands. ``import secondguess.cli``
loads click, orjson and the modules that the timed commands (``run``,
``metrics``, ``sweep``) use, such as hashlib, csv and json. What only some
commands use is imported where it is used: numpy by ``simulate``, ``socket``
and ``ssl`` by an HTTP backend, ``concurrent.futures`` by a run at
concurrency above 1, and ``logging`` by ``convert``'s caption warning. The
record types are named tuples, not dataclasses, whose module every command
would load and whose decorator builds each class at import. No import that
a timed command uses is made lazy: that would only move its cost from
start-up into the command. Under ``python -X importtime`` (2-vCPU VM,
Python 3.11, bytecode compiled, json, statistics and traceback already
loaded, median of 12 processes) ``secondguess.cli`` took 37.3 ms with
dataclasses, logging and concurrent.futures loaded at import, and 28.7 ms
without them.
"""

from __future__ import annotations

import datetime
import errno
import gc
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional

# numpy, which only `simulate` loads, starts OpenBLAS threads that busy-wait;
# no command does BLAS work.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click

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
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _numbers(text: Optional[str], name: str, high: float, default: list) -> list:
    """Comma-separated numbers, each in [0, high], or exit 2; default if unset."""
    if not text:
        return default
    try:
        values = [float(v) for v in text.split(",")]
        if not all(0.0 <= v <= high for v in values):
            raise ValueError
    except ValueError:
        _fail(EXIT_CONFIG, f"{name} must be comma-separated numbers in [0, {high:g}]")
    return values


def _run_options(fn):
    """Decorate `run` with --config and its flags from OPTIONS."""
    for key, kind, _, is_flag in reversed(OPTIONS):
        if is_flag:
            click_type = click.Choice(kind) if isinstance(kind, tuple) else kind
            flag = "--" + key.replace("_", "-")
            fn = click.option(flag, key, type=click_type, default=None)(fn)
    return click.option("--config", "config_path", type=click.Path(exists=True))(fn)


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


def _write_manifest(out_dir: Path, cfg: dict, started: str, extra: dict) -> None:
    canonical = json.dumps(cfg, sort_keys=True)
    manifest = {
        "tool_version": __version__,
        "config": cfg,
        "config_hash": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": cfg["seed"],
        "started_at": started,
        "finished_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with dataset.replacing(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class _Group(click.Group):
    """Maps a ConfigError of any command to exit 2, a DatasetError to 3, and
    an OSError to 2: every input is read through ``dataset``, which raises
    its OSError as a DatasetError, so one that leaves a command comes from
    an output that cannot be written, named by ``dataset.replacing``, or
    from standard output, such as a closed pipe, if it names no file.

    It also owns the cyclic garbage collector: a command runs with it
    disabled, and it is enabled again on the way out, whatever the exit,
    only if it was enabled on entry. A command makes a fixed number of
    reference cycles, none per item (``test_a_command_makes_no_cycles_per_item``
    pins this), but reading its input allocates dicts and tuples by the
    million at 10^6 episodes, and each full collection would walk every
    object the command has kept so far: at 10^6 episodes (a 327 MB log,
    2-vCPU VM, Python 3.11, 4 alternating child processes) a cold
    ``metrics`` took a median 4.8 s with the collector paused and 5.8 s
    without it. Only the command knows that what it loads lives to its end;
    a library caller keeps Python's own collector behaviour."""

    def invoke(self, ctx):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return super().invoke(ctx)
        except (ConfigError, DatasetError) as exc:
            _fail(EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_DATASET, str(exc))
        except OSError as exc:
            _fail(EXIT_CONFIG, f"cannot write {exc.filename or 'standard output'}: {exc.strerror}")
        finally:
            if enabled:
                gc.enable()


@click.group(cls=_Group)
@click.version_option(version=__version__)
def main() -> None:
    """Selective question decomposition runner and evaluation harness."""


@main.command("run")
@_run_options
def cmd_run(config_path, **flags) -> None:
    """Execute a pipeline run and write episodes, metrics, and a manifest."""
    cfg = _load_config(config_path, flags)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    questions = _load_questions(cfg.get("dataset"))
    pcfg = PipelineConfig(**{key: cfg.get(key) for key in PipelineConfig._fields})
    if pcfg.mode in pipeline.ORACLE_MODES and not any(q.sub_qas for q in questions):
        _fail(EXIT_DATASET, "dataset carries no sub_qas; oracle modes need them")
    # Built before out/ exists, so a bad backend config writes nothing.
    engine = _build_engine(cfg)
    out_dir = Path(cfg["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in (out_dir / "manifest.json", out_dir / "metrics.json"):
        if path.is_dir():  # written after the calls, so refused before them
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    episodes_path = out_dir / "episodes.jsonl"
    try:
        summary, log = pipeline.run(questions, pcfg, engine, episodes_path)
    finally:
        for backend in (engine.recomposer, engine.decomposer):
            if isinstance(backend, HTTPBackend):
                backend.close()
    _write_manifest(out_dir, cfg, started, summary._asdict())
    qtype_map = {q.id: q.qtype for q in questions}
    try:
        report = evaluation.compute_report(
            log, tau=summary.resolved_tau, qtype_map=qtype_map
        )
    except ValueError as exc:  # every episode failed, none ran, or the log cannot answer tau
        _fail(1 if 0 < summary.failures == summary.episodes else EXIT_DATASET, str(exc))
    _write_json(out_dir / "metrics.json", report._asdict())
    click.echo(
        f"run complete: {summary.episodes} episodes "
        f"({summary.failures} failures) -> {episodes_path}"
    )
    sys.exit(0 if summary.failures == 0 else 1)


@main.command("sweep")
@click.option("--log", "log_path", type=click.Path(), required=True)
@click.option("--percentiles", default=None, help="comma-separated percentiles")
@click.option("--out", type=click.Path(), default="out")
def cmd_sweep(log_path, percentiles, out) -> None:
    """Offline threshold sweep over an episode log; no model calls. Writes
    the points whose tau the log answers, and exits 3 if none is left."""
    grid = _numbers(percentiles, "percentiles", 100.0, DEFAULT_PERCENTILES)
    points = _from_log(log_path, lambda log: evaluation.sweep(log, grid))
    csv_path = Path(out) / "sweep.csv"
    with dataset.replacing(csv_path) as fh:
        evaluation.write_sweep_csv(points, fh)
    click.echo(f"wrote {len(points)} sweep points -> {csv_path}")


@main.command("convert")
@click.option("--input", "input_path", type=click.Path(exists=True), required=True)
@click.option("--output", "output_path", type=click.Path(), required=True)
def cmd_convert(input_path, output_path) -> None:
    """Convert winoground-style records into the canonical VQA schema. The
    whole input is checked before any caption warning or output."""
    seen = set()
    records = list(itertools.chain.from_iterable(
        dataset.read_jsonl(input_path, lambda values: dataset.winoground_records(values, seen))
    ))
    questions, warnings = dataset.convert_winoground(records)
    dataset.save_dataset(questions, output_path)
    click.echo(
        f"converted {len(records)} records into {len(questions)} questions "
        f"({warnings} caption warnings) -> {output_path}"
    )


@main.command("stats")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), required=True)
def cmd_stats(dataset_path) -> None:
    """Print item count and average question length for a dataset."""
    stats = dataset.stats(_load_questions(dataset_path))
    click.echo(json.dumps({"name": dataset_path, **stats}, indent=2))


@main.command("simulate")
@click.option("--acc", type=float, required=True)
@click.option("--ecr", type=float, required=True)
@click.option("--eic", type=float, required=True)
@click.option("--trials", type=int, default=simulator.SimConfig._field_defaults["trials"])
@click.option("--seed", type=int, default=simulator.SimConfig._field_defaults["seed"])
@click.option("--tau-grid", default=None, help="comma-separated thresholds")
@click.option("--out", type=click.Path(), default="out")
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
    click.echo(
        f"decompose-all accuracy {curve.decompose_all_accuracy:.4f} "
        f"(closed form {simulator.closed_form_decompose_all(cfg):.4f}), "
        f"optimal tau {curve.optimal_tau} "
        f"(accuracy {curve.optimal_accuracy:.4f}) -> {csv_path}"
    )


@main.command("fit")
@click.argument("run_dirs", nargs=-1, required=True, type=click.Path())
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
    click.echo(json.dumps({"runs": len(points), **fit}, indent=2))


@main.command("metrics")
@click.option("--log", "log_path", type=click.Path(), required=True)
@click.option("--dataset", "dataset_path", type=click.Path(exists=True), default=None)
@click.option("--tau", type=float, default=None)
@click.option("--out", type=click.Path(), default="out")
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
    click.echo(f"wrote metrics.json and sweep.csv -> {out_dir}")


if __name__ == "__main__":
    main()
