"""Harness orchestration: seeding, determinism, aggregation, persistence."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ddrbench import datagen, harness, models
from ddrbench.datagen import CLASSIFICATION, REGRESSION
from ddrbench.errors import ConfigError, DomainError
from ddrbench.evaluation import CurvePoint, PerformanceReport
from ddrbench.harness import (
    ExperimentConfig,
    _grid_key,
    curve_csv_lines,
    default_grid,
    report_payload,
    resolve_models,
    run_experiment,
    seed_derivation,
    write_summary_csv,
)
from ddrbench.rng import make_rng

SMALL = dict(
    n_samples=120,
    n_features=4,
    ddr_grid=(0.0, 0.5, 1.0),
    tuples_per_grid_point=2,
)

REGRESSORS = ("olsr", "lsvr", "dtr", "knnr")
# friedman1 needs five features
FOUR_REGRESSORS = dict(task=REGRESSION, models=REGRESSORS, **{**SMALL, "n_features": 5})


class TestSeedDerivation:
    def test_stable(self):
        assert seed_derivation(1, 2, 3, "datagen") == seed_derivation(1, 2, 3, "datagen")

    def test_stage_tags_separate_streams(self):
        seeds = {seed_derivation(1, 2, 3, tag) for tag in ("datagen", "sampler", "model", "split")}
        assert len(seeds) == 4

    def test_replicate_collision_scan(self):
        # one-field variation is injective by construction; scan 10^6 values
        seeds = {seed_derivation(99, 7, i, "datagen") for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_all_fields_matter(self):
        base = seed_derivation(1, 2, 3, "x")
        assert seed_derivation(2, 2, 3, "x") != base
        assert seed_derivation(1, 3, 3, "x") != base
        assert seed_derivation(1, 2, 4, "x") != base
        assert seed_derivation(1, 2, 3, "y") != base


class TestConfigValidation:
    def test_grid_must_span_unit_interval(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task=REGRESSION, models=("olsr",), ddr_grid=(0.0, 0.5))
        with pytest.raises(ConfigError):
            ExperimentConfig(task=REGRESSION, models=("olsr",), ddr_grid=(0.2, 1.0))

    def test_nan_grid_point_rejected(self):
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentConfig(
                task=REGRESSION, models=("olsr",), ddr_grid=(0.0, float("nan"), 1.0)
            )

    @pytest.mark.parametrize(
        "grid",
        [(0.0, 0.3, 0.3000001, 1.0), (0.0, 1e-10, 1.0), (0.0, 0.3000004999, 0.3000005001, 1.0)],
        ids=["same-csv-ddr", "same-seed-key-and-csv-ddr", "same-seed-key"],
    )
    def test_grid_points_too_close_rejected(self, grid):
        # The last pair prints as 0.300000 and 0.300001 but shares a seed key.
        with pytest.raises(ConfigError, match="too close"):
            ExperimentConfig(task=REGRESSION, models=("olsr",), ddr_grid=grid)

    @pytest.mark.parametrize("grid", [(0.0, 0.25, 0.5, 1.0), default_grid(21)])
    def test_distinct_grid_points_accepted(self, grid):
        config = ExperimentConfig(task=REGRESSION, models=("olsr",), ddr_grid=grid)
        assert config.ddr_grid == tuple(grid)

    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task=REGRESSION, models=("olsr", "gbm"))

    def test_task_model_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task=REGRESSION, models=("blrc",))

    def test_duplicate_model_rejected(self):
        # A repeated kind would write the same curve and report files twice.
        with pytest.raises(ConfigError, match="'olsr' is listed more than once"):
            ExperimentConfig(task=REGRESSION, models=("olsr", "dtr", "OLSR"))

    def test_generator_task_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(task=REGRESSION, models=("olsr",), generator="two_class")

    def test_resolve_models(self):
        assert resolve_models(REGRESSION, "all") == ("olsr", "dtr", "knnr", "lsvr")
        assert resolve_models(CLASSIFICATION, "all") == ("blrc", "dtc", "knnc", "lsvc", "mlpc")
        assert models.MODEL_KINDS == resolve_models(REGRESSION, "all") + resolve_models(
            CLASSIFICATION, "all"
        )
        assert resolve_models(REGRESSION, "olsr, dtr") == ("olsr", "dtr")

    @pytest.mark.parametrize(
        "task, kind, size, message",
        [
            (REGRESSION, "dtr", dict(n_features=4), "needs >= 5 features"),
            (REGRESSION, "olsr", dict(n_samples=30, n_features=16), "n_samples >= 2"),
            (CLASSIFICATION, "dtc", dict(n_samples=101), "even n_samples"),
        ],
    )
    def test_generator_size_checks(self, task, kind, size, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(task=task, models=(kind,), **size)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("master_seed", 1.5, "master_seed must be an integer"),
            ("master_seed", True, "master_seed must be an integer"),
            ("n_samples", 40.0, "n_samples must be an integer"),
            ("n_features", 3.0, "n_features must be an integer"),
            ("tuples_per_grid_point", 2.0, "tuples_per_grid_point must be an integer"),
            # make_rng keeps a seed's low 64 bits, so these would rerun another seed's sweep.
            ("master_seed", -1, r"master_seed must be in \[0, 2\*\*64\)"),
            ("master_seed", 1 << 64, r"master_seed must be in \[0, 2\*\*64\)"),
        ],
        ids=[
            "float-seed",
            "bool-seed",
            "float-samples",
            "float-features",
            "float-replicates",
            "negative-seed",
            "seed-2**64",
        ],
    )
    def test_counts_and_seed_are_in_range_integers(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(task=REGRESSION, models=("olsr",), **{field: value})

    def test_largest_seed_accepted(self):
        assert ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=(1 << 64) - 1)

    def test_default_grid(self):
        grid = default_grid(21)
        assert len(grid) == 21 and grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("n_samples", [4, 5, 6, 7])
    def test_regression_needs_two_test_rows(self, n_samples):
        # One test row makes every cell fail in nmse_accuracy.
        with pytest.raises(ConfigError, match="1 test row"):
            ExperimentConfig(
                task=REGRESSION, models=("olsr",), n_samples=n_samples, n_features=1
            )

    def test_smallest_regression_size_runs(self):
        cfg = ExperimentConfig(
            task=REGRESSION, models=("olsr",), n_samples=8, n_features=1,
            ddr_grid=(0.0, 1.0), tuples_per_grid_point=1,
        )
        (report,) = run_experiment(cfg)
        assert report.complete and report.curve[0].replicates == 1

    @pytest.mark.parametrize(
        "change", [dict(n_samples=3), dict(models=("BOOST",))], ids=["samples", "model"]
    )
    def test_replace_is_checked(self, change):
        config = ExperimentConfig(task=REGRESSION, models=("olsr",))
        with pytest.raises(ConfigError):
            config._replace(**change)

    def test_replace_is_normalised(self):
        config = ExperimentConfig(task=REGRESSION, models=("olsr",))._replace(
            models=("DTR", "olsr")
        )
        assert config.models == ("dtr", "olsr")

    def test_echo_keeps_train_fraction(self):
        # Fixed run settings stay in the echo (and so in the report bytes) but are no fields.
        echo = ExperimentConfig(task=REGRESSION, models=("olsr",)).echo()
        assert echo["train_fraction"] == 0.8
        assert (echo["burn_in"], echo["thinning"]) == (1000, 10)
        for fixed in ("train_fraction", "burn_in"):
            with pytest.raises(TypeError):
                ExperimentConfig(task=REGRESSION, models=("olsr",), **{fixed: 50})


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ExperimentConfig(task=REGRESSION, models=("olsr",)), "models"),
        (lambda: models.ModelSpec("olsr"), "seed"),
        (lambda: models.fit(models.ModelSpec("olsr"), np.eye(3), np.arange(3.0)), "impl"),
        (lambda: CurvePoint(0.0, 1.0, 1.0, 0.0, 0.0, 1), "ddr"),
        (
            lambda: PerformanceReport(
                model="olsr", task=REGRESSION, generator="linear", config={}, master_seed=0
            ),
            "auc_test",
        ),
    ],
    ids=["ExperimentConfig", "ModelSpec", "TrainedModel", "CurvePoint", "PerformanceReport"],
)
def test_value_types_are_immutable(make, field):
    # One config object is read by every pool thread, so no field may change after it is built.
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


class TestRunExperiment:
    def test_basic_report_shape(self):
        cfg = ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=7, **SMALL)
        report = run_experiment(cfg)[0]
        assert report.complete
        assert len(report.curve) == 3
        assert 0.0 <= report.auc_test <= 1.0
        assert report.trust_points[0][1] == 0.0  # accuracy * 0 at ddr 0

    def test_rerun_identical(self):
        cfg = ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=7, **SMALL)
        a, b = run_experiment(cfg)[0], run_experiment(cfg)[0]
        assert curve_csv_lines(a.curve) == curve_csv_lines(b.curve)
        assert report_payload(a) == report_payload(b)

    def test_parallel_serial_equivalence(self, monkeypatch):
        # the regression config shares datasets across two generators
        for cfg in (
            ExperimentConfig(
                task=CLASSIFICATION, models=("blrc", "knnc"), master_seed=11, **SMALL
            ),
            ExperimentConfig(master_seed=11, **FOUR_REGRESSORS),
        ):
            monkeypatch.setenv("DDRBENCH_THREADS", "1")
            serial = [report_payload(r) for r in run_experiment(cfg)]
            monkeypatch.setenv("DDRBENCH_THREADS", "4")
            parallel = [report_payload(r) for r in run_experiment(cfg)]
            assert serial == parallel

    def test_olsr_near_perfect_at_full_ddr(self):
        cfg = ExperimentConfig(
            task=REGRESSION, models=("olsr",), master_seed=3,
            n_samples=400, n_features=4, ddr_grid=(0.0, 1.0),
            tuples_per_grid_point=2,
        )
        report = run_experiment(cfg)[0]
        assert report.curve[-1].test_accuracy >= 0.99

    def test_classifier_chance_level_at_zero_ddr(self):
        cfg = ExperimentConfig(
            task=CLASSIFICATION, models=("blrc",), master_seed=5,
            n_samples=1000, n_features=4, ddr_grid=(0.0, 1.0),
            tuples_per_grid_point=3,
        )
        report = run_experiment(cfg)[0]
        assert 0.35 <= report.curve[0].test_accuracy <= 0.65

    def test_cell_failure_marks_incomplete(self, monkeypatch):
        original = models.fit
        calls = {"n": 0}

        def flaky(spec, X, y):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DomainError("synthetic cell failure")
            return original(spec, X, y)

        monkeypatch.setattr("ddrbench.harness.fit", flaky)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        cfg = ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=9, **SMALL)
        report = run_experiment(cfg)[0]
        assert not report.complete
        assert report.auc_train is None and report.auc_test is None
        assert any("synthetic cell failure" in msg for msg in report.incomplete_cells)

    def test_seeds_insensitive_to_grid_refinement(self):
        # shared grid values get identical cell streams in both configs
        coarse = ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=13, **SMALL)
        fine = ExperimentConfig(
            task=REGRESSION, models=("olsr",), master_seed=13,
            **{**SMALL, "ddr_grid": (0.0, 0.25, 0.5, 1.0)},
        )
        a = run_experiment(coarse)[0]
        b = run_experiment(fine)[0]
        shared = {p.ddr: p for p in b.curve if p.ddr in (0.0, 0.5, 1.0)}
        for p in a.curve:
            assert p.test_accuracy == shared[p.ddr].test_accuracy


def _load_tracing(monkeypatch):
    """The benchmark's tracer, loaded from its file (perfbench is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """The per-layer benchmark metrics name each span from the harness's call sites.

    A refactor that renames or re-signs one of those calls would read as a
    layer with zero calls there, so this sweep runs under the real tracer.
    """

    def test_every_layer_is_traced(self, monkeypatch, tmp_path):
        # The tracer rebinds module names and generator entries; record each
        # so that monkeypatch puts it back.
        for module in (harness, datagen):
            for name, value in list(vars(module).items()):
                if not name.startswith("__"):
                    monkeypatch.setattr(module, name, value)
        for generator_id, fn in list(harness.GENERATORS.items()):
            monkeypatch.setitem(harness.GENERATORS, generator_id, fn)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        tracer = _load_tracing(monkeypatch).Tracer()
        tracer.install(harness)

        cfg = ExperimentConfig(master_seed=3, out_dir=str(tmp_path), **FOUR_REGRESSORS)
        assert all(r.complete for r in harness.run_experiment(cfg))
        calls = Counter(span.name for span in tracer.spans)
        points = len(cfg.ddr_grid)
        cells = points * cfg.tuples_per_grid_point
        for kind in REGRESSORS:
            # lsvr trains once per grid point, over the stack of replicates.
            fits = points if kind == "lsvr" else cells
            assert calls[f"models.fit.{kind}"] == fits
            assert calls[f"models.predict.{kind}"] == 2 * fits
        assert not [name for name in calls if name.startswith("unlabelled.")]
        assert tracer.uncalled() == ["GENERATORS[two_class]", "f1_score"]


def _count_sampler(monkeypatch):
    calls = Counter()
    original = harness.sample_ddr_tuples

    def counting(*args, **kwargs):
        calls["sampler"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr("ddrbench.harness.sample_ddr_tuples", counting)
    return calls


def _cell_seed(cfg, ddr, replicate, stage):
    return seed_derivation(cfg.master_seed, _grid_key(ddr), replicate, stage)


class TestSharedWork:
    CFG = ExperimentConfig(master_seed=17, **FOUR_REGRESSORS)

    def test_each_stage_runs_once_per_unit(self, monkeypatch):
        calls = _count_sampler(monkeypatch)
        for generator_id, original in list(harness.GENERATORS.items()):
            def counting(*args, _id=generator_id, _fn=original, **kwargs):
                calls[_id] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setitem(harness.GENERATORS, generator_id, counting)
        original_noise, original_fit = datagen.inject_noise, harness.fit

        def counting_noise(*args, **kwargs):
            calls["noise"] += 1
            return original_noise(*args, **kwargs)

        def counting_fit(spec, *args):
            calls[spec.kind] += 1
            return original_fit(spec, *args)

        monkeypatch.setattr(datagen, "inject_noise", counting_noise)
        monkeypatch.setattr("ddrbench.harness.fit", counting_fit)
        reports = run_experiment(self.CFG)
        assert all(r.complete for r in reports)
        points, reps = len(self.CFG.ddr_grid), self.CFG.tuples_per_grid_point
        assert calls["sampler"] == points
        assert calls["linear"] == calls["friedman1"] == points * reps
        assert calls["two_class"] == 0
        assert calls["noise"] == 2 * points * reps
        for kind in ("olsr", "dtr", "knnr"):
            assert calls[kind] == points * reps
        assert calls["lsvr"] == points  # one fit over the replicate stack

    def test_shared_arrays_read_only(self, monkeypatch):
        seen = []
        original = harness.fit

        def recording(spec, X, y):
            seen.append((spec.kind, X, y))
            return original(spec, X, y)

        monkeypatch.setattr("ddrbench.harness.fit", recording)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        cfg = ExperimentConfig(task=REGRESSION, models=("olsr", "lsvr"), master_seed=3, **SMALL)
        assert all(r.complete for r in run_experiment(cfg))
        reps = cfg.tuples_per_grid_point
        # Per grid point: olsr on each replicate's arrays, then lsvr on their stack.
        assert [kind for kind, _, _ in seen[: reps + 1]] == ["olsr"] * reps + ["lsvr"]
        olsr = seen[:reps]
        _, X_stack, y_stack = seen[reps]
        assert X_stack.shape == (reps, *olsr[0][1].shape)
        # The stack's slices hold the very bytes olsr was handed.
        for ri, (_, X, y) in enumerate(olsr):
            assert X_stack[ri].tobytes() == X.tobytes() and y_stack[ri].tobytes() == y.tobytes()
        for _, X, y in seen:
            assert not X.flags.writeable and not y.flags.writeable
        for ri in range(reps):
            assert not X_stack[ri].flags.writeable and not y_stack[ri].flags.writeable
        with pytest.raises(ValueError):
            seen[0][1][0, 0] = 0.0
        with pytest.raises(ValueError):
            X_stack[0, 0, 0] = 0.0

    def test_fit_failure_fails_only_its_cell(self, monkeypatch):
        clean = {r.model: report_payload(r) for r in run_experiment(self.CFG)}
        bad_seed = _cell_seed(self.CFG, 0.5, 1, "model")
        original = harness.fit

        def failing(spec, X, y):
            if spec.kind == "dtr" and spec.seed == bad_seed:
                raise DomainError("synthetic fit failure")
            return original(spec, X, y)

        monkeypatch.setattr("ddrbench.harness.fit", failing)
        reports = {r.model: r for r in run_experiment(self.CFG)}
        assert reports["dtr"].incomplete_cells == (
            "dtr at ddr=0.5 rep=1: synthetic fit failure",
        )
        for kind in ("olsr", "lsvr", "knnr"):
            assert report_payload(reports[kind]) == clean[kind]

    def test_generator_failure_fails_only_its_models(self, monkeypatch):
        clean = {r.model: report_payload(r) for r in run_experiment(self.CFG)}
        bad_state = make_rng(_cell_seed(self.CFG, 0.5, 1, "datagen")).bit_generator.state
        original = harness.GENERATORS["friedman1"]

        def failing(n_samples, n_features, rng):
            if rng.bit_generator.state == bad_state:
                raise DomainError("synthetic datagen failure")
            return original(n_samples, n_features, rng)

        monkeypatch.setitem(harness.GENERATORS, "friedman1", failing)
        reports = {r.model: r for r in run_experiment(self.CFG)}
        for kind in ("dtr", "knnr"):
            assert reports[kind].incomplete_cells == (
                f"{kind} at ddr=0.5 rep=1: synthetic datagen failure",
            )
        for kind in ("olsr", "lsvr"):
            assert report_payload(reports[kind]) == clean[kind]

    def test_linear_failure_drops_its_replicate_from_the_stack(self, monkeypatch):
        clean = {r.model: report_payload(r) for r in run_experiment(self.CFG)}
        bad_state = make_rng(_cell_seed(self.CFG, 0.5, 1, "datagen")).bit_generator.state
        original = harness.GENERATORS["linear"]

        def failing(n_samples, n_features, rng):
            if rng.bit_generator.state == bad_state:
                raise DomainError("synthetic datagen failure")
            return original(n_samples, n_features, rng)

        stacks = []
        original_fit = harness.fit

        def recording(spec, X, y):
            if spec.kind == "lsvr":
                stacks.append(X.shape[0])
            return original_fit(spec, X, y)

        monkeypatch.setitem(harness.GENERATORS, "linear", failing)
        monkeypatch.setattr("ddrbench.harness.fit", recording)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        reports = {r.model: r for r in run_experiment(self.CFG)}
        for kind in ("olsr", "lsvr"):
            assert reports[kind].incomplete_cells == (
                f"{kind} at ddr=0.5 rep=1: synthetic datagen failure",
            )
        # At ddr 0.5 lsvr trains on the one replicate whose data was built.
        assert stacks == [2, 1, 2]
        for kind in ("dtr", "knnr"):
            assert report_payload(reports[kind]) == clean[kind]

    def test_stacked_fit_failure_fails_its_grid_point(self, monkeypatch):
        clean = {r.model: report_payload(r) for r in run_experiment(self.CFG)}
        original = harness.fit
        lsvr_fits = []

        def failing(spec, X, y):
            if spec.kind == "lsvr":
                lsvr_fits.append(X.shape)
                if len(lsvr_fits) == 2:  # the grid point ddr = 0.5
                    raise DomainError("synthetic stacked fit failure")
            return original(spec, X, y)

        monkeypatch.setattr("ddrbench.harness.fit", failing)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        reports = {r.model: r for r in run_experiment(self.CFG)}
        assert reports["lsvr"].incomplete_cells == tuple(
            f"lsvr at ddr=0.5 rep={ri}: synthetic stacked fit failure" for ri in (0, 1)
        )
        for kind in ("olsr", "dtr", "knnr"):
            assert report_payload(reports[kind]) == clean[kind]

    def test_sampler_failure_fails_every_cell_at_its_point(self, monkeypatch):
        original = harness.sample_ddr_tuples

        def failing(n, target, *args, **kwargs):
            if target == 0.5:
                raise DomainError("synthetic sampler failure")
            return original(n, target, *args, **kwargs)

        monkeypatch.setattr("ddrbench.harness.sample_ddr_tuples", failing)
        for report in run_experiment(self.CFG):
            kind = report.model
            assert report.incomplete_cells == tuple(
                f"{kind} at ddr=0.5 rep={ri}: synthetic sampler failure" for ri in (0, 1)
            )

    def test_nan_prediction_fails_its_cells(self, monkeypatch):
        clean = {r.model: report_payload(r) for r in run_experiment(self.CFG)}
        original = harness.predict

        def diverged(trained, X):
            out = original(trained, X)
            return np.full_like(out, np.nan) if trained.spec.kind == "lsvr" else out

        monkeypatch.setattr("ddrbench.harness.predict", diverged)
        reports = {r.model: r for r in run_experiment(self.CFG)}
        assert reports["lsvr"].incomplete_cells == tuple(sorted(
            f"lsvr at ddr={ddr:g} rep={ri}: targets and predictions must be finite"
            for ddr in self.CFG.ddr_grid
            for ri in range(self.CFG.tuples_per_grid_point)
        ))
        for kind in ("olsr", "dtr", "knnr"):
            assert report_payload(reports[kind]) == clean[kind]

    def test_unusable_out_dir_fails_before_any_work(self, monkeypatch, tmp_path):
        calls = _count_sampler(monkeypatch)
        taken = tmp_path / "a-file"
        taken.write_text("")
        cfg = ExperimentConfig(out_dir=str(taken), **FOUR_REGRESSORS)
        with pytest.raises(FileExistsError):
            run_experiment(cfg)
        assert calls["sampler"] == 0

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    def test_invalid_thread_count_fails_before_any_work(self, monkeypatch, raw):
        calls = _count_sampler(monkeypatch)
        pools = []
        monkeypatch.setattr(
            "ddrbench.harness.ThreadPoolExecutor", lambda *a, **k: pools.append(k)
        )
        monkeypatch.setenv("DDRBENCH_THREADS", raw)
        with pytest.raises(ConfigError, match="DDRBENCH_THREADS"):
            run_experiment(self.CFG)
        assert calls["sampler"] == 0
        assert pools == []

    @pytest.mark.parametrize("raw", [None, "", "0"])
    def test_auto_threads_count_usable_cpus(self, monkeypatch, raw):
        # A process pinned to 2 of the machine's 64 CPUs runs 2 grid points at once.
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {5, 9}, raising=False)
        pools = []
        pool = harness.ThreadPoolExecutor

        def recording(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return pool(*args, **kwargs)

        monkeypatch.setattr("ddrbench.harness.ThreadPoolExecutor", recording)
        if raw is None:
            monkeypatch.delenv("DDRBENCH_THREADS", raising=False)
        else:
            monkeypatch.setenv("DDRBENCH_THREADS", raw)
        assert all(r.complete for r in run_experiment(self.CFG))
        assert pools == [2]

    def test_auto_threads_without_affinity_count_all_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.delenv("DDRBENCH_THREADS", raising=False)
        assert harness._thread_count() == 3
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert harness._thread_count() == 1


class TestPersistence:
    def test_output_files_written(self, tmp_path):
        cfg = ExperimentConfig(
            task=REGRESSION, models=("olsr",), master_seed=7,
            out_dir=str(tmp_path), **SMALL,
        )
        run_experiment(cfg)
        csv = (tmp_path / "olsr_curve.csv").read_text()
        assert csv.splitlines()[0] == (
            "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates"
        )
        assert len(csv.splitlines()) == 4
        payload = json.loads((tmp_path / "olsr_report.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["model"] == "olsr"
        assert payload["incomplete_cells"] == []
        assert payload["config"]["n_samples"] == 120

    def test_summary_sorted_by_model(self, tmp_path):
        payloads = [
            {"model": "lsvr", "auc_train": 0.5, "auc_test": 0.4},
            {"model": "dtr", "auc_train": 0.7, "auc_test": 0.6},
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(payloads, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,auc_train,auc_test"
        assert lines[1].startswith("dtr,") and lines[2].startswith("lsvr,")

    @pytest.mark.parametrize("name", ["olsr_curve.csv", "olsr_report.json", "summary.csv"])
    def test_failed_write_keeps_existing_file(self, tmp_path, monkeypatch, name):
        cfg = ExperimentConfig(
            task=REGRESSION, models=("olsr",), master_seed=7,
            out_dir=str(tmp_path), **SMALL,
        )
        report = run_experiment(cfg)[0]
        writers = {
            "olsr_curve.csv": lambda path: harness.write_curve_csv(report.curve, path),
            "olsr_report.json": lambda path: harness.write_report_json(report, path),
            "summary.csv": lambda path: write_summary_csv([report_payload(report)], path),
        }
        path = tmp_path / name
        writers[name](path)
        before = path.read_bytes()
        listing = sorted(tmp_path.iterdir())

        def crashing_open(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)

            def write(text):  # half the text lands, then the write fails
                type(fh).write(fh, text[: len(text) // 2])
                raise OSError("disk full")

            fh.write = write
            return fh

        monkeypatch.setattr(harness, "open", crashing_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            writers[name](path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == listing

    def test_curve_floats_have_six_decimals(self):
        cfg = ExperimentConfig(task=REGRESSION, models=("olsr",), master_seed=7, **SMALL)
        report = run_experiment(cfg)[0]
        row = curve_csv_lines(report.curve)[1].split(",")
        assert all("." in f and len(f.split(".")[1]) == 6 for f in row[:5])
