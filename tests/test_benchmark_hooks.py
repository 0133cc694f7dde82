"""Every function the benchmark's tracer hooks by name still exists, and the
library calls that the benchmark makes directly still bind."""

import configparser
import contextlib
import importlib
import importlib.util
import inspect
import io
import itertools
import math
from pathlib import Path

import numpy as np

import elcov
import elcov.cli
from elcov.harness import _CONFIG_SCHEMA

ROOT = Path(__file__).resolve().parent.parent


def test_every_hooked_name_is_callable():
    # a renamed or deleted hook would silently drop out of the traced metrics
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.HOOKS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"elcov.{layer}"), name, None))
    ]
    assert missing == []


def test_direct_library_calls_bind(tmp_path):
    # the calls that perfbench/workloads.py makes, in the form it makes them
    table = str(tmp_path / "t.txt")
    for fn, args, kwargs in [
        (elcov.select_rank_sigma, range(6), {}),
        (elcov.lr0_reference, (4, 8), {"trials": 500, "seed": 1}),
        (elcov.lr0_store, ("ref", table), {}),
        (elcov.lr0_load, (4, 8, table), {}),
        (elcov.generate_training, ("r_true", 8, None, "rng"), {}),
        (elcov.SampleStats, (), {"n": 4, "k": 8, "s_eig": "eig", "sigma2": 1.0}),
    ]:
        inspect.signature(fn).bind(*args, **kwargs)
    ref = elcov.lr0_reference(4, 8, trials=500, seed=1)
    elcov.lr0_store(ref, table)
    assert elcov.lr0_load(4, 8, table).lr0 == ref.lr0
    rng = elcov.derive_rng(1, "joint", 8, 0)
    assert elcov.generate_training(np.eye(4, dtype=complex), 8, None, rng).z.shape == (4, 8)


def test_joint_select_reads_the_exp_of_the_log_median(tmp_path):
    # joint-select hands select_rank_sigma lr0_load(...).lr0: the exp of the
    # computed log median, the float a table of linear medians held before
    table = tmp_path / "t.txt"
    for k in (20, 30, 40):
        elcov.lr0_store(elcov.lr0_reference(20, k), table)
    for k in (20, 30, 40):
        assert elcov.lr0_load(20, k, table).lr0 == math.exp(elcov.lr0_reference(20, k).log_lr0)


def test_benchmark_configs_use_only_known_keys(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for w in workloads.WORKLOADS.values():
        runner = workloads.Runner(w, 1, tmp_path / w.name, tiny=True)
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        parser.read(runner.config_path(0))
        unknown = [f"[{section}] {key}" for section in parser.sections() for key in parser[section]
                   if key not in _CONFIG_SCHEMA.get(section, {})]
        assert parser.has_section("experiment") and unknown == [], w.name


def test_sweep_records_are_what_the_benchmark_reads(tmp_path, monkeypatch):
    # perfbench wraps elcov.cli.run_experiment, runs `elcov simulate` and
    # reads the record count and each record's wall_time
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    for w in workloads.WORKLOADS.values():
        if not w.estimators:
            continue
        runner = workloads.Runner(w, 1, tmp_path / w.name, tiny=True)
        for k in w.k_list:
            elcov.lr0_store(elcov.lr0_reference(w.n, k), runner.table)
        records = []
        inner = elcov.cli.run_experiment

        def capture(cfg):
            result = inner(cfg)
            records.extend(result)
            return result

        monkeypatch.setattr(elcov.cli, "run_experiment", capture)
        with contextlib.redirect_stdout(io.StringIO()):
            assert elcov.cli.cli(["simulate", "--config", str(runner.config_path(0))]) == 0
        monkeypatch.setattr(elcov.cli, "run_experiment", inner)
        cells = sorted((r.k, r.trial_index, r.estimator) for r in records)
        names = sorted(str(elcov.EstimatorSpec.parse(t)) for t in w.estimators)
        assert cells == list(itertools.product(w.k_list, range(runner.chunk_size), names)), w.name
        assert all(type(r.wall_time) is float and 0 <= r.wall_time < math.inf
                   for r in records), w.name
