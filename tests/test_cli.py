"""CLI subcommands: run, plot, summary; exit codes and byte determinism."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ddrbench.cli import main

RUN_ARGS = [
    "run", "--task", "regression", "--models", "olsr",
    "--samples", "120", "--features", "4", "--grid", "3",
    "--replicates", "1", "--seed", "7",
]


# sha256 of every file one small `run` per task writes; see test_report_bytes_pinned.
REPORT_DIGESTS = {
    "regression": {
        "dtr_curve.csv": "3466ab97b3d051f3323acf9b33cdaf36c9860f4cdd93ff5f7d9545aed95d8893",
        "dtr_report.json": "a6dbf72ed4095e83bf5c3b6f250da69985602ce4bce37738d5bcfb61e7670b1d",
        "knnr_curve.csv": "aca5f95b4e2150d86b4795d470012ce5f879a97000390a585724ed8685f1ec18",
        "knnr_report.json": "fba605a4f1a47b7e963f381d77b4c735aa96f1580d8413d83dce166af926fa05",
        "lsvr_curve.csv": "dcd5952b6528b48f7545f32775c7004a8673e8eee6445e1a46f9a8f4049a4b04",
        "lsvr_report.json": "0582bcbed9ed2d8d47ff46a7909b1a8df9727a2c7fadf153e5896a9af9a44619",
        "olsr_curve.csv": "d7ecb9894030cdb7203bb258499e1abde2188236f4a4f6f9d1ab6879610bcecf",
        "olsr_report.json": "d5ec48aea3b758468aef1abfa55895def22c50d95353d823fa9336fa192d41de",
    },
    "classification": {
        "blrc_curve.csv": "068216e9998e28cf9fd2898321c6aa68e413899e0b049000d6b7f41541c73868",
        "blrc_report.json": "420da101fc1189bf3e3525525f303fbe03347567b42c6d0444e6116543382fa6",
        "dtc_curve.csv": "f83e809e4d4eebd17216d3e19a2a4e2972dd635bc280d8f0d50e817800db15b5",
        "dtc_report.json": "0014357d91c103e52086393ed56622724a81e6240b71febf525280ffc64a6282",
        "knnc_curve.csv": "3e0a3c5898e3b7b208de994739e773f416590c347454366a5840eb1bb0645e7b",
        "knnc_report.json": "1477fee902a82e84f80ec76d4c81c223aae287dd3c260b9ab6cd2f79ac0f2395",
        "lsvc_curve.csv": "d3221bfb2b38e447c540be6ef6d6de86b45eb95647d8beb6bbf3743053db1394",
        "lsvc_report.json": "ae18fc18f1ec736c49685bd5fc879b15d5c7d6eab95f3dbb23caca8bbaf3049e",
        "mlpc_curve.csv": "dda644d839543f5ec374809911f13482c9a04a84da6ccb59dda8282603303000",
        "mlpc_report.json": "dbf2a98f6f83624bfed01daab03b211820b261f76bf04473fe1d375b9865d47e",
    },
}


def run_small(out_dir, extra=()):
    return main(RUN_ARGS + ["--out", str(out_dir)] + list(extra))


class TestRun:
    def test_writes_curve_and_report(self, tmp_path):
        assert run_small(tmp_path) == 0
        assert (tmp_path / "olsr_curve.csv").exists()
        assert (tmp_path / "olsr_report.json").exists()

    def test_module_entry_point(self, tmp_path):
        # A fresh interpreter, as `python -m ddrbench.cli` is run by scripts/.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-m", "ddrbench.cli", "run", "--task", "regression",
             "--models", "olsr", "--grid", "3", "--samples", "60", "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "olsr_curve.csv", "olsr_report.json",
        ]

    def test_import_loads_no_thread_pool_or_svg(self):
        # A fresh interpreter: the pool and the plot/summary code load only when used,
        # and no dataclass machinery loads at all.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )}
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from ddrbench import cli, harness; "
             "print(sorted({'concurrent.futures', 'dataclasses', 'ddrbench.charts', "
             "'ddrbench.svg'} & set(sys.modules)))"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_help_quotes_config_defaults(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["run", "--help"])
        assert done.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for phrase in (
            "samples per dataset (default 1000)",
            "feature columns (default 10)",
            "number of DDR grid points (default 21)",
            "datasets per grid point (default 5)",
            "master seed (default 0)",
        ):
            assert phrase in text

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_small(a) == 0
        assert run_small(b) == 0
        for name in ("olsr_curve.csv", "olsr_report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_all_classifiers_give_five_reports(self, tmp_path):
        code = main([
            "run", "--task", "classification", "--models", "all",
            "--samples", "120", "--features", "5", "--grid", "3",
            "--replicates", "1", "--seed", "3", "--out", str(tmp_path),
        ])
        assert code == 0
        reports = sorted(p.name for p in tmp_path.glob("*_report.json"))
        assert reports == [
            "blrc_report.json", "dtc_report.json", "knnc_report.json",
            "lsvc_report.json", "mlpc_report.json",
        ]

    def test_unknown_model_exit_one(self, tmp_path, capsys):
        code = main([
            "run", "--task", "regression", "--models", "gbm",
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "olsr" in capsys.readouterr().err  # message names valid options

    def test_unknown_generator_exit_one(self, tmp_path, capsys):
        code = main([
            "run", "--task", "regression", "--models", "olsr",
            "--generator", "moons", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "friedman1" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_out_of_range_seed_exit_one(self, tmp_path, capsys, seed):
        code = main([
            "run", "--task", "regression", "--models", "olsr",
            "--seed", seed, "--out", str(tmp_path),
        ])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: master_seed must be in [0, 2**64)")
        assert not list(tmp_path.iterdir())

    def test_duplicate_model_exit_one(self, tmp_path, capsys):
        code = main([
            "run", "--task", "regression", "--models", "olsr,olsr,dtr",
            "--out", str(tmp_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'olsr'" in err
        assert not list(tmp_path.iterdir())

    def test_config_file_defaults_and_flag_wins(self, tmp_path):
        config = tmp_path / "bench.cfg"
        config.write_text(
            "task = regression\nmodels = olsr\nsamples = 120\nfeatures = 4\n"
            "grid = 3\nreplicates = 1\nseed = 7\n"
            f"out = {tmp_path / 'from_file'}\n# comment line\n"
        )
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "from_file" / "olsr_curve.csv").exists()
        # flag overrides the file's out dir
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "olsr_curve.csv").exists()

    def test_bad_config_value_exit_one(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(f"task = regression\nsamples = abc\nout = {tmp_path / 'o'}\n")
        assert main(["run", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(config) in err and "samples" in err and "'abc'" in err

    def test_config_key_set_twice_exit_one(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("task = regression\nseed = 1\n\nseed = 2\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}:4: 'seed' is already set on line 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_empty_out_exit_one(self, tmp_path, monkeypatch, capsys, source):
        # An empty path would otherwise mean the current directory.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench.cfg").write_text("out =\n")
        extra = ["--out", ""] if source == "flag" else ["--config", "bench.cfg"]
        assert main(RUN_ARGS + extra) == 1
        assert capsys.readouterr().err == "error: --out must not be empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["bench.cfg"]

    def test_non_utf8_config_exit_one(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}: not valid UTF-8")
        assert not (tmp_path / "o").exists()

    def test_config_with_byte_order_mark(self, tmp_path):
        text = "task = regression\nmodels = olsr\nsamples = 120\nfeatures = 4\n"
        text += "grid = 3\nreplicates = 1\n"
        outputs = {}
        for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
            config = tmp_path / f"{name}.cfg"
            config.write_bytes(prefix + text.encode() + f"out = {tmp_path / name}\n".encode())
            assert main(["run", "--config", str(config)]) == 0
            outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        assert outputs["bom"] == outputs["plain"]

    def test_partial_completion_exit_two(self, tmp_path, monkeypatch):
        import ddrbench.harness as harness
        from ddrbench.errors import DomainError

        original = harness.fit
        calls = {"n": 0}

        def flaky(spec, X, y):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DomainError("synthetic failure")
            return original(spec, X, y)

        monkeypatch.setattr("ddrbench.harness.fit", flaky)
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        assert run_small(tmp_path) == 2


    @pytest.mark.parametrize("task", sorted(REPORT_DIGESTS))
    def test_report_bytes_pinned(self, tmp_path, monkeypatch, task):
        # Grid 3 holds DDR 0.5, so the sampler chain runs; any changed byte fails.
        monkeypatch.setenv("DDRBENCH_THREADS", "1")
        code = main([
            "run", "--task", task, "--models", "all",
            "--samples", "120", "--features", "5", "--grid", "3",
            "--replicates", "2", "--seed", "0", "--out", str(tmp_path),
        ])
        assert code == 0
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert digests == REPORT_DIGESTS[task]

    def test_failed_model_loses_stale_curve(self, tmp_path, monkeypatch):
        from ddrbench.errors import DomainError
        from ddrbench.models import CartTree

        args = [
            "run", "--task", "regression", "--models", "olsr,dtr",
            "--samples", "120", "--features", "5", "--grid", "3",
            "--replicates", "1", "--seed", "7", "--out", str(tmp_path),
        ]
        assert main(args) == 0
        kept = {
            name: (tmp_path / name).read_bytes()
            for name in ("olsr_curve.csv", "olsr_report.json")
        }
        assert (tmp_path / "dtr_curve.csv").exists()

        def failing_fit(self, X, y):
            raise DomainError("synthetic tree failure")

        monkeypatch.setattr(CartTree, "fit", failing_fit)
        assert main(args) == 2
        assert not (tmp_path / "dtr_curve.csv").exists()
        assert json.loads((tmp_path / "dtr_report.json").read_text())["auc_test"] is None
        for name, data in kept.items():
            assert (tmp_path / name).read_bytes() == data


class TestPlot:
    @pytest.fixture()
    def curve_dir(self, tmp_path):
        assert run_small(tmp_path) == 0
        return tmp_path

    def test_two_polylines_per_curve(self, curve_dir, tmp_path):
        out = tmp_path / "plot.svg"
        code = main(["plot", "--curves", str(curve_dir / "olsr_curve.csv"), "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.count("<polyline") == 2
        ET.fromstring(text)  # well-formed XML with a single root

    def test_regression_ylabel_default(self, curve_dir, tmp_path):
        out = tmp_path / "plot.svg"
        main(["plot", "--curves", str(curve_dir / "olsr_curve.csv"), "--out", str(out)])
        assert "NMSE-Based Accuracy" in out.read_text()

    def test_byte_identical(self, curve_dir, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        args = ["plot", "--curves", str(curve_dir / "olsr_curve.csv")]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_csv_row_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad_curve.csv"
        bad.write_text(
            "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates\n"
            "0.0,0.1,0.0,0.1,0.0,1\n"
            "oops,0.2,0.0,0.2,0.0,1\n"
        )
        code = main(["plot", "--curves", str(bad), "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row", ["nan,0.2,0.0,0.2,0.0,1", "0.5,inf,0.0,0.2,0.0,1", "0.5,0.2,0.0,-inf,0.0,1"]
    )
    def test_non_finite_csv_value_rejected(self, tmp_path, capsys, row):
        bad = tmp_path / "bad_curve.csv"
        bad.write_text(
            "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates\n"
            f"0.0,0.1,0.0,0.1,0.0,1\n{row}\n1.0,0.3,0.0,0.3,0.0,1\n"
        )
        out = tmp_path / "x.svg"
        assert main(["plot", "--curves", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row 3: values must be finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("0.5,0.1,oops,0.1,0.0,1", "could not convert"),
            ("0.5,0.1,0.0,0.1,nan,1", "values must be finite"),
            ("0.5,0.1,inf,0.1,0.0,1", "values must be finite"),
            ("0.5,0.1,-0.1,0.1,0.0,1", "std must be >= 0"),
            ("0.5,0.1,0.0,0.1,0.0,x", "invalid literal"),
            ("0.5,0.1,0.0,0.1,0.0,2.5", "invalid literal"),
            ("0.5,0.1,0.0,0.1,0.0,0", "replicates must be positive"),
            ("0.5,0.1,0.0,0.1,0.0,-3", "replicates must be positive"),
        ],
    )
    def test_bad_std_or_replicates_rejected(self, tmp_path, capsys, row, reason):
        bad = tmp_path / "bad_curve.csv"
        bad.write_text(
            "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates\n"
            f"0.0,0.1,0.0,0.1,0.0,1\n{row}\n1.0,0.3,0.0,0.3,0.0,1\n"
        )
        out = tmp_path / "x.svg"
        assert main(["plot", "--curves", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row 3: ") and reason in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows,bad_row,reason",
        [
            (["0.0,5e300,0,-7,0,1", "1.0,0.2,0,0.2,0,1"], 2, "means must lie in [0, 1]"),
            (["0.0,0.1,0,0.1,0,1", "0.5,0.2,0,1.5,0,1", "1.0,0.3,0,0.3,0,1"], 3, "means"),
            (["0.0,0.1,0,0.1,0,1", "0.5,-0.2,0,0.2,0,1", "1.0,0.3,0,0.3,0,1"], 3, "means"),
            (["0.0,0.1,0,0.1,0,1", "0.5,0.2,0,0.2,0,1", "0.5,0.3,0,0.3,0,1"], 4, "rise strictly"),
            (["0.0,0.1,0,0.1,0,1", "0.6,0.2,0,0.2,0,1", "0.5,0.3,0,0.3,0,1"], 4, "rise strictly"),
            (["-0.1,0.1,0,0.1,0,1", "1.0,0.3,0,0.3,0,1"], 2, "ddr must lie in [0, 1]"),
            (["0.0,0.1,0,0.1,0,1", "1.5,0.3,0,0.3,0,1"], 3, "ddr must lie in [0, 1]"),
        ],
        ids=["huge-train-mean", "test-mean-above-one", "negative-train-mean", "repeated-ddr",
             "falling-ddr", "ddr-below-zero", "ddr-above-one"],
    )
    def test_curve_outside_auc_domain_rejected(self, tmp_path, capsys, rows, bad_row, reason):
        # Curves normalized_auc would reject: each used to plot and exit 0.
        bad = tmp_path / "bad_curve.csv"
        bad.write_text(
            "ddr,train_acc_mean,train_acc_std,test_acc_mean,test_acc_std,replicates\n"
            + "".join(f"{row}\n" for row in rows)
        )
        out = tmp_path / "x.svg"
        assert main(["plot", "--curves", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: row {bad_row}: ") and reason in err
        assert not out.exists()

    def test_empty_out_exit_one(self, curve_dir, capsys):
        code = main(["plot", "--curves", str(curve_dir / "olsr_curve.csv"), "--out", ""])
        assert code == 1
        assert capsys.readouterr().err == "error: --out must not be empty\n"

    @pytest.mark.parametrize("out", [".", "/"])
    def test_out_without_file_name_exit_one(self, curve_dir, monkeypatch, capsys, out):
        monkeypatch.chdir(curve_dir)
        before = {p.name: p.read_bytes() for p in curve_dir.iterdir()}
        assert main(["plot", "--curves", "olsr_curve.csv", "--out", out]) == 1
        assert capsys.readouterr().err == "error: --out names no file\n"
        assert {p.name: p.read_bytes() for p in curve_dir.iterdir()} == before

    def test_non_utf8_curve_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "olsr_curve.csv"
        bad.write_bytes(b"\xff")
        out = tmp_path / "x.svg"
        assert main(["plot", "--curves", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: not valid UTF-8")
        assert not out.exists()


class TestSummary:
    @pytest.fixture()
    def report_dir(self, tmp_path):
        code = main([
            "run", "--task", "regression", "--models", "olsr,knnr",
            "--samples", "120", "--features", "5", "--grid", "3",
            "--replicates", "1", "--seed", "5", "--out", str(tmp_path),
        ])
        assert code == 0
        return tmp_path

    def test_table_and_bars(self, report_dir, tmp_path):
        out = tmp_path / "table.csv"
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        assert main(["summary", "--reports", *reports, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,auc_train,auc_test"
        assert [l.split(",")[0] for l in lines[1:]] == ["knnr", "olsr"]
        bars = (tmp_path / "table.svg").read_text()
        assert bars.count("<rect") >= 2  # one per model plus background
        ET.fromstring(bars)

    def test_bar_heights_match_auc(self, report_dir, tmp_path):
        out = tmp_path / "table.csv"
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        main(["summary", "--reports", *reports, "--out", str(out)])
        payload = json.loads((report_dir / "olsr_report.json").read_text())
        assert f"{payload['auc_test']:.3f}" in (tmp_path / "table.svg").read_text()

    @pytest.mark.parametrize(
        "out, svg",
        [("table.svg", None), ("table.csv", "table.csv"), ("table.csv", "sub/../table.csv")],
        ids=["default-svg", "explicit-svg", "same-file-other-spelling"],
    )
    def test_table_and_chart_on_one_path_exit_one(self, report_dir, tmp_path, capsys, out, svg):
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        args = ["summary", "--reports", *reports, "--out", str(tmp_path / out)]
        if svg is not None:
            args += ["--svg", str(tmp_path / svg)]
        assert main(args) == 1
        assert "both be written to" in capsys.readouterr().err
        assert not (tmp_path / out).exists()

    @pytest.mark.parametrize("flag", ["--out", "--svg"])
    def test_empty_out_exit_one(self, report_dir, tmp_path, monkeypatch, capsys, flag):
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        paths = ["--out", "t.csv", "--svg", "t.svg"]
        paths[paths.index(flag) + 1] = ""
        assert main(["summary", "--reports", *reports, *paths]) == 1
        assert capsys.readouterr().err == f"error: {flag} must not be empty\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "flag, path", [("--out", "."), ("--out", "/"), ("--svg", "."), ("--svg", "/")]
    )
    def test_path_without_file_name_exit_one(
        self, report_dir, tmp_path, monkeypatch, capsys, flag, path
    ):
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        monkeypatch.chdir(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        paths = ["--out", "t.csv", "--svg", "t.svg"]
        paths[paths.index(flag) + 1] = path
        assert main(["summary", "--reports", *reports, *paths]) == 1
        assert capsys.readouterr().err == f"error: {flag} names no file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_empty_reports_exit_one(self, tmp_path):
        assert main(["summary", "--out", str(tmp_path / "t.csv")]) == 1

    # True == 1 == 1.0 in Python; only the int 1 is schema version 1.
    @pytest.mark.parametrize("version", [99, True, 1.0, "1"])
    def test_schema_mismatch_exit_one(self, tmp_path, capsys, version):
        bad = tmp_path / "bad_report.json"
        report = {"schema_version": version, "model": "olsr", "auc_train": 0.5, "auc_test": 0.5}
        bad.write_text(json.dumps(report))
        code = main(["summary", "--reports", str(bad), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        assert "schema_version" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, field",
        [
            ("[1, 2]", "JSON object"),
            ('{"schema_version": 1, "auc_test": 0.5}', "'model'"),
            ('{"schema_version": 1, "model": "olsr", "auc_test": 0.5}', "'auc_train'"),
            ('{"schema_version": 1, "model": "olsr", "auc_train": 0.5}', "'auc_test'"),
            (
                '{"schema_version": 1, "model": "olsr", "auc_train": 0.5, "auc_test": "high"}',
                "'auc_test'",
            ),
            ("model,auc_test\nolsr,0.5\n", "not a valid report JSON"),
            (
                '{"schema_version": 1, "model": "olsr,x\\nevil", "auc_train": 0.5, "auc_test": 0.5}',
                "field 'model' must be one of olsr, ",
            ),
            (
                '{"schema_version": 1, "model": "gbm", "auc_train": 0.5, "auc_test": 0.5}',
                "field 'model' must be one of olsr, ",
            ),
            (
                '{"schema_version": 1, "model": "gbm", "auc_train": null, "auc_test": null}',
                "field 'model' must be one of olsr, ",
            ),
            (
                '{"schema_version": 1, "model": ["olsr"], "auc_train": 0.5, "auc_test": 0.5}',
                "field 'model' must be one of olsr, ",
            ),
        ],
        ids=[
            "list", "no-model", "no-auc-train", "no-auc-test", "text-auc", "not-json",
            "csv-breaking-model", "unknown-model", "incomplete-unknown-model", "list-model",
        ],
    )
    def test_malformed_report_exit_one(self, tmp_path, capsys, text, field):
        bad = tmp_path / "bad_report.json"
        bad.write_text(text)
        code = main(["summary", "--reports", str(bad), "--out", str(tmp_path / "t.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert field in err

    @pytest.mark.parametrize(
        "auc_train, auc_test",
        [(7.5, -3), (0.5, 1.0000001), (-1e-9, 0.5), (0.5, 10**400)],
        ids=["both-out", "test-above-one", "train-below-zero", "huge-int"],
    )
    def test_auc_outside_unit_interval_exit_one(self, tmp_path, capsys, auc_train, auc_test):
        bad = tmp_path / "bad_report.json"
        payload = {"schema_version": 1, "model": "x", "auc_train": auc_train, "auc_test": auc_test}
        bad.write_text(json.dumps(payload))
        out = tmp_path / "t.csv"
        assert main(["summary", "--reports", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: field 'auc_")
        assert not out.exists()

    def test_byte_identical(self, report_dir, tmp_path):
        reports = sorted(str(p) for p in report_dir.glob("*_report.json"))
        for name in ("s1", "s2"):
            main(["summary", "--reports", *reports, "--out", str(tmp_path / f"{name}.csv")])
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
        assert (tmp_path / "s1.svg").read_bytes() == (tmp_path / "s2.svg").read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["plot", "--curves", "olsr_curve.csv", "--out", "olsr_curve.csv"],
        ["plot", "--curves", "olsr_curve.csv", "--out", "./olsr_curve.csv"],
        ["summary", "--reports", "olsr_report.json", "--out", "olsr_report.json"],
        ["summary", "--reports", "olsr_report.json", "--out", "t.csv", "--svg", "olsr_report.json"],
    ],
    ids=["plot-out", "plot-out-other-spelling", "summary-out", "summary-svg"],
)
def test_output_over_input_exit_one(tmp_path, monkeypatch, capsys, args):
    assert run_small(tmp_path) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert "is also an input and would be overwritten" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_run_defaults_come_from_the_config(tmp_path, monkeypatch):
    from ddrbench import harness
    from ddrbench.datagen import REGRESSION

    seen = []
    monkeypatch.setattr(harness, "run_experiment", lambda config: seen.append(config) or [])
    assert main(["run", "--task", "regression", "--out", str(tmp_path)]) == 0
    expected = harness.ExperimentConfig(
        task=REGRESSION, models=harness.REGRESSION_KINDS, out_dir=str(tmp_path)
    )
    assert seen == [expected]
