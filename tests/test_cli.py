import dataclasses
import importlib.util
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import stopsum
from stopsum import (ConfigurationError, InequalityCheck, cli, derive_seed,
                     harness, models, sample_stopped_batch)
from stopsum.cli import ExperimentConfig, build_config, emit_report, main
from stopsum.models import ModelSpec


IID_ARGS = ["--model", "iid_bounded", "--n-list", "16,32",
            "--reps", "500", "--seed", "7"]
# model parameters that are not finite, or whose largest Y overflows the
# estimate of a_n = (E Y^4)^(1/2)
NON_FINITE_MODELS = [
    dict(model=kind, n_list=[16, 32, 64, 128], reps=200, **params)
    for kind, params in (
        ("regime_switch", {"v_lo": 0.25, "v_hi": math.inf}),
        ("iid_bounded", {"m": 1e308}),
        ("iid_bounded", {"m": math.inf}),
        ("product", {"a_hi": math.nan}),
        ("product", {"a_hi": 1e39}),
    )
]

# v_hi misspelled: a key that regime_switch does not have
MISSPELLED_PARAM = {"model": "regime_switch", "v_high": 4.0,
                    "n_list": [16, 32], "reps": 500}


class TestBuildConfig:
    def test_flags_only(self):
        cfg = build_config(IID_ARGS)
        assert cfg.model.kind == "iid_bounded"
        assert cfg.n_list == (16.0, 32.0)
        assert cfg.reps == 500
        assert cfg.master_seed == 7
        assert cfg.delta == 0.01
        assert cfg.checks == ("distance",)
        assert cfg.format == "csv"

    def test_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": "regime_switch", "v_lo": 0.25, "v_hi": 4.0,
            "n_list": [16, 64], "reps": 3e2, "seed": 3,
            "checks": ["distance", "lemma1"], "format": "json",
        }))
        cfg = build_config(["--config", str(path)])
        assert cfg.reps == 300 and type(cfg.reps) is int  # integral float
        assert cfg.model.kind == "regime_switch"
        assert cfg.model.params["v_hi"] == 4.0
        assert cfg.checks == ("distance", "lemma1")
        assert cfg.format == "json"

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "model": "iid_bounded", "n_list": [16], "reps": 300, "seed": 3,
        }))
        cfg = build_config(["--config", str(path), "--reps", "900",
                            "--checks", "distance,cf"])
        assert cfg.reps == 900
        assert cfg.checks == ("distance", "cf")

    def test_missing_model_rejected(self):
        with pytest.raises(ConfigurationError):
            build_config(["--n-list", "16"])

    @pytest.mark.parametrize("extra", [
        ["--n-list", ""],
        ["--n-list", "32,16"],
        ["--n-list", "1"],          # below 2 * sigma^2_0
        ["--reps", "1"],
        ["--delta", "0"],
        ["--delta", "1"],
        ["--delta", "1e-320"],      # 2/delta overflows
        ["--checks", "nonsense"],
        ["--checks", "rate"],       # rate needs >= 4 n values
        ["--n-list", "16,inf"],
        ["--n-list", "16,nan"],
        ["--seed", "-3"],
        ["--reps", str(cli.MAX_REPS + 1)],
        ["--reps", str(10**12)],
        # a dict is a config file's contents, given alone
        {"model": "iid_bounded", "n_list": 16},
        {"model": "iid_bounded", "n_list": [16, 32], "checks": 5},
        # a bool is no number, and reps and seed are integers
        {"model": "iid_bounded", "n_list": [16, 32], "reps": 100.9},
        {"model": "iid_bounded", "n_list": [16, 32], "seed": True},
        {"model": "regime_switch", "v_lo": 0.25, "n_list": [True, 16]},
        {"model": "regime_switch", "n_list": [16, 32], "v_lo": True},
        # every key but the CLI's own is a parameter of the kind
        MISSPELLED_PARAM,
        {"model": "iid_bounded", "n_list": [16, 32], "sed": 5},
        {"model": "product", "n_list": [16, 32], "a_lo": 1.0, "a_hi": 2.0,
         "p_growth": 0.1, "label": "x"},
        *NON_FINITE_MODELS,
    ])
    def test_invalid_values_rejected(self, tmp_path, extra):
        if isinstance(extra, dict):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(extra))
            argv = ["--config", str(path)]
        else:
            argv = ["--model", "iid_bounded", "--n-list", "16,32",
                    "--reps", "500", "--seed", "7"] + extra
        with pytest.raises(ConfigurationError):
            build_config(argv)

    def test_dataclass_direct_validation(self):
        spec = ModelSpec("iid_bounded", {"m": 1.0, "v": 1.0})
        with pytest.raises(ConfigurationError):
            ExperimentConfig(spec, (16.0,), 100, 0, 0.01, ("distance",),
                             None, "yaml")


class TestMain:
    def test_distance_run_passes(self, capsys):
        status = main(IID_ARGS)
        out = capsys.readouterr().out
        assert status == 0
        assert out.count("PASS distance_F") == 2
        assert out.count("PASS distance_H") == 2

    def test_invalid_config_exit_2(self, capsys):
        assert main(["--model", "iid_bounded", "--n-list", "1"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_broken_hypothesis_exit_2(self, tmp_path, monkeypatch, capsys):
        class Falling(models.RegimeSwitch):
            """Y = 1 at level 0 and 2 at level 1, which can fall back."""

            def __init__(self, v_lo, v_hi):
                super().__init__(v_lo, v_hi)
                self._table(self.variances, self.sds, (1.0, 2.0))

        monkeypatch.setitem(models.LAWS, "regime_switch", Falling)
        out = tmp_path / "d"
        out.mkdir()
        assert main(["--model", "regime_switch", "--n-list", "16",
                     "--reps", "500", "--out", str(out / "r")]) == 2
        assert capsys.readouterr().err == (
            "stopsum: invalid configuration: regime_switch level 1 has "
            "Y = 2.0 and level 0 Y = 1.0: a step between them breaks Y_k "
            "nondecreasing\n")
        assert list(out.iterdir()) == []

    def test_misspelled_parameter_exit_2(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(MISSPELLED_PARAM))
        out = tmp_path / "d"
        out.mkdir()
        assert main(["--config", str(path), "--out", str(out / "r")]) == 2
        assert capsys.readouterr().err == (
            "stopsum: invalid configuration: unknown parameters for "
            "regime_switch: ['v_high']\n")
        assert list(out.iterdir()) == []

    def test_non_finite_n_exit_2(self, capsys):
        assert main(["--model", "iid_bounded", "--n-list", "16,inf"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", NON_FINITE_MODELS)
    def test_non_finite_model_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["--config", str(path),
                     "--checks", "distance,cf,lemma1,esseen,rate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: invalid configuration:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("raw", [
        {"n_list": 16},
        {"n_list": [16, 32], "checks": 5},
        {"n_list": [16, [32]]},
        {"n_list": [16, 32], "reps": None},
        {"n_list": [16, 32], "reps": 100.9, "seed": True},
        {"n_list": [16, 32], "seed": 1.5},
        {"n_list": [16, 32], "reps": math.inf},    # int() raises OverflowError
        {"n_list": [16, 32], "m": True},
        {"n_list": [16, 32], "delta": 1e-320},     # 2/delta overflows
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, raw):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(raw, model="iid_bounded")))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: invalid configuration:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "rep"
        assert main(IID_ARGS + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: cannot write outputs:")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_missing_out_directory_fails_before_sampling(
            self, tmp_path, monkeypatch, capsys):
        def sample(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(cli, "sample_stopped_batch", sample)
        missing = tmp_path / "missing"
        with pytest.raises(ConfigurationError):
            build_config(IID_ARGS + ["--out", str(missing / "rep")])
        assert main(IID_ARGS + ["--checks", "distance,lemma1",
                                "--out", str(missing / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: cannot write outputs:")
        assert str(missing) in err and err.count("\n") == 1
        # a file where the directory should be is no directory either
        missing.write_text("")
        assert main(IID_ARGS + ["--out", str(missing / "rep")]) == 2

    @pytest.mark.parametrize("checks", ["distance", "lemma1"])
    def test_path_overflow_exit_2(self, monkeypatch, capsys, checks):
        # a step cap below n / v stands in for n beyond MAX_STEPS
        monkeypatch.setattr(models, "MAX_STEPS", 20)
        assert main(IID_ARGS + ["--checks", checks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: path overflow:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("checks", ["distance", "lemma1"])
    @pytest.mark.parametrize("kind,params,n", [
        *(pytest.param(kind, {}, 1e300, id=kind) for kind in stopsum.KINDS),
        # n / (variance floor) overflows to inf; the cap is still 10^7
        pytest.param("iid_bounded", {"v": 1e-10}, 1e300, id="iid-inf-steps"),
        pytest.param("regime_switch", {"v_lo": 1e-300, "v_hi": 1e-300}, 1e10,
                     id="regime-inf-steps"),
        # step 0 is at v_lo, so no path's 10^7 variances sum to 10^7 v_hi
        pytest.param("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}, 4e7,
                     id="regime-cap-times-v_hi"),
    ])
    def test_unreachable_threshold_exit_2(self, tmp_path, monkeypatch,
                                          capsys, kind, params, n, checks):
        # no 10^7 steps reach n: the start gate stops the run
        def drawn(*args):
            raise AssertionError("a step or block was drawn")

        monkeypatch.setattr(stopsum.LAWS[kind], "sample_block", drawn)
        monkeypatch.setattr(stopsum.LAWS[kind], "step", drawn)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(params, model=kind, n_list=[n])))
        assert main(["--config", str(path), "--checks", checks]) == 2
        err = capsys.readouterr().err
        assert err == (f"stopsum: path overflow: no stop after 10000000 "
                       f"steps (n = {n!r}, kind = {kind})\n")

    @pytest.mark.parametrize("kind", stopsum.KINDS)
    def test_unreachable_last_threshold_exit_2_before_the_first(
            self, tmp_path, monkeypatch, capsys, kind):
        # n = 16 is valid, 1e300 is not: the gate runs on every n before
        # n = 16 is sampled, so no block is drawn and no file written
        drawn = []

        def draw(*args):
            drawn.append(args)
            raise AssertionError("a step or block was drawn")

        monkeypatch.setattr(stopsum.LAWS[kind], "sample_block", draw)
        monkeypatch.setattr(stopsum.LAWS[kind], "step", draw)
        out = tmp_path / "d"
        out.mkdir()
        assert main(["--model", kind, "--n-list", "16,1e300", "--reps", "500",
                     "--checks", "distance,cf", "--out", str(out / "r")]) == 2
        err = capsys.readouterr().err
        assert err == (f"stopsum: path overflow: no stop after 10000000 "
                       f"steps (n = 1e+300, kind = {kind})\n")
        assert list(out.iterdir()) == [] and drawn == []

    def test_rows_read_the_harness_verdicts(self, monkeypatch):
        kept = {"report_from_batch": [], "probe_from_batch": [],
                "esseen_numeric": []}

        def keeping(name):
            def keep(*args, **kwargs):
                kept[name].append(getattr(harness, name)(*args, **kwargs))
                return kept[name][-1]
            return keep

        for name in kept:
            monkeypatch.setattr(cli, name, keeping(name))
        config = build_config(["--model", "product", "--n-list",
                               "16,32,64,128", "--reps", "400", "--seed", "5",
                               "--checks", "distance,cf,esseen,rate"])
        _, records, _ = cli.run_experiment(config)
        rows = {(r["check"], r["n"]): r for r in records}
        reports = kept["report_from_batch"]
        want = [(128.0, harness.rate_fit(reports).row())]
        for rep, probe, ess in zip(reports, kept["probe_from_batch"],
                                   kept["esseen_numeric"], strict=True):
            want += [(rep.n, row) for row in
                     rep.rows() + probe.rows() + (ess.row(rep.d_f),)]
        assert len(want) == len(records) == 4 * 7 + 1
        for n, row in want:
            rec = rows[(row.check, n)]
            assert (rec["estimate"], rec["stderr_or_halfwidth"], rec["bound"],
                    rec["margin"]) == (row.estimate, row.stderr, row.bound,
                                       row.margin)
            assert rec["verdict"] == ("PASS" if row.passed else "FAIL")
            assert rec["resolution_limited"] is row.resolution_limited

    def test_a_n_estimated_once_per_threshold(self, monkeypatch):
        # the CF probe reads a_n and y from the threshold's report
        calls = []

        def counting(y_nu):
            calls.append(len(y_nu))
            return estimate(y_nu)

        estimate = harness.estimate_a_n
        monkeypatch.setattr(harness, "estimate_a_n", counting)
        config = build_config(IID_ARGS + ["--n-list", "16,24,32,48",
                                          "--checks", "distance,cf,esseen"])
        cli.run_experiment(config)
        assert calls == [500] * 4

    def test_all_checks_small_run(self, tmp_path, capsys):
        out = tmp_path / "rep"
        argv = ["--model", "iid_bounded", "--n-list", "16,24,32,48",
                "--reps", "2000", "--seed", "11",
                "--checks", "distance,cf,lemma1,esseen,rate",
                "--out", str(out)]
        status = main(argv)
        text = capsys.readouterr().out
        assert status == 0
        assert "rate" in text and "lemma1" in text and "esseen" in text
        assert (tmp_path / "rep.csv").exists()
        assert (tmp_path / "rep_ecdf_n16.csv").exists()
        assert (tmp_path / "rep_cf_n16.csv").exists()


class TestCfGate:
    """A CF row is flagged resolution-limited, and so excused from the exit
    status, only if every failing point in it is resolution-limited."""

    def _inject(self, monkeypatch, resolved_failure):
        real = cli.probe_from_batch

        def injected(batch, report, t_grid):
            probe = real(batch, report, t_grid)
            checks = list(probe.checks)
            cf9 = [i for i, c in enumerate(checks) if c.name == "cf9"]
            # one passing point below resolution, one failing at |t| = 2.83
            checks[cf9[0]] = InequalityCheck("cf9", checks[cf9[0]].t,
                                             0.0, 1e-6, 1e-3, True)
            checks[cf9[-1]] = InequalityCheck(
                "cf9", 2.83, 1.74, 0.19, 0.0056, not resolved_failure
            )
            return dataclasses.replace(probe, checks=tuple(checks))

        monkeypatch.setattr(cli, "probe_from_batch", injected)

    def _run(self, monkeypatch, resolved_failure):
        self._inject(monkeypatch, resolved_failure)
        config = build_config(IID_ARGS + ["--checks", "cf"])
        status, records, _ = cli.run_experiment(config)
        return status, [r for r in records if r["check"] == "cf9"]

    def test_resolved_failure_exits_1(self, monkeypatch):
        status, rows = self._run(monkeypatch, resolved_failure=True)
        assert status == 1
        assert all(r["verdict"] == "FAIL" for r in rows)
        assert not any(r["resolution_limited"] for r in rows)

    def test_unresolved_failure_is_excused(self, monkeypatch):
        status, rows = self._run(monkeypatch, resolved_failure=False)
        assert status == 0
        assert all(r["verdict"] == "FAIL" for r in rows)
        assert all(r["resolution_limited"] for r in rows)

    @pytest.mark.parametrize("resolved_failure", [True, False])
    def test_main_names_the_failures_that_set_the_status(
            self, monkeypatch, capsys, resolved_failure):
        self._inject(monkeypatch, resolved_failure)
        status = main(IID_ARGS + ["--checks", "cf"])
        captured = capsys.readouterr()
        assert captured.out.count("FAIL cf9") == 2
        if resolved_failure:
            assert status == 1
            assert captured.err == "stopsum: FAILED checks: cf9, cf9\n"
        else:
            assert status == 0
            assert captured.err == ""


STAGE_ARGS = ["--model", "iid_bounded", "--n-list", "16,24,32,48",
              "--reps", "500", "--seed", "7"]
# the threshold layers that each check reads
LAYERS = ("sample_stopped_batch", "report_from_batch", "probe_from_batch")
READS = {"distance": LAYERS[:2], "cf": LAYERS, "esseen": LAYERS,
         "lemma1": (), "rate": LAYERS[:2]}
CHECK_SUBSETS = [subset for k in range(1, len(cli.CHECKS) + 1)
                 for subset in itertools.combinations(cli.CHECKS, k)]


class TestStages:
    """run_experiment runs the STAGES that the config selects, in report
    order, and builds a threshold's batch, report and CF probe only for
    the checks that read them, each at most once."""

    @pytest.fixture(scope="class")
    def all_records(self):
        config = build_config(STAGE_ARGS + ["--checks", ",".join(cli.CHECKS)])
        return cli.run_experiment(config)[1]

    @staticmethod
    def _check_of(record):
        """The check that gave a record: distance_F is distance's."""
        return next(c for c in cli.CHECKS if record["check"].startswith(c))

    def test_every_check_declares_its_reads(self):
        assert set(READS) == set(cli.CHECKS)
        assert cli.CHECKS == (*cli.STAGES, "rate")

    @pytest.mark.parametrize("subset", CHECK_SUBSETS, ids="+".join)
    def test_subset_rows_and_layer_calls(self, monkeypatch, all_records,
                                         subset):
        calls = {layer: [] for layer in LAYERS}

        def counting(layer, real):
            def count(*args, **kwargs):
                # sample_stopped_batch(spec, n, ...), the others (batch, ...)
                sampling = layer == "sample_stopped_batch"
                calls[layer].append(args[1] if sampling else args[0].n)
                return real(*args, **kwargs)
            return count

        for layer in LAYERS:
            monkeypatch.setattr(cli, layer, counting(layer,
                                                     getattr(cli, layer)))
        # the checks listed in reverse; the rows come in report order
        config = build_config(STAGE_ARGS + ["--checks", ",".join(subset[::-1])])
        records = cli.run_experiment(config)[1]
        assert records == [r for r in all_records
                           if self._check_of(r) in subset]
        for layer in LAYERS:
            read = any(layer in READS[check] for check in subset)
            assert calls[layer] == (list(config.n_list) if read else [])

    def test_previous_batch_unreachable_when_next_n_is_sampled(
            self, monkeypatch):
        # the number of earlier batches still alive at each sampling call
        real = cli.sample_stopped_batch
        batches, live = [], []

        def sample(*args):
            live.append(sum(ref() is not None for ref in batches))
            batch = real(*args)
            batches.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(cli, "sample_stopped_batch", sample)
        config = build_config(STAGE_ARGS + ["--checks", ",".join(cli.CHECKS)])
        cli.run_experiment(config)
        assert live == [0, 0, 0, 0]


class TestDeterminism:
    def _run(self, tmp_path, tag, fmt="csv"):
        out = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg.json"
        cfg.write_text(json.dumps({
            "model": "regime_switch", "v_lo": 0.25, "v_hi": 4.0,
            "n_list": [16, 32], "reps": 3000, "seed": 21,
            "checks": ["distance", "cf", "esseen", "lemma1"],
        }))
        argv = ["--config", str(cfg), "--out", str(out), "--format", fmt]
        assert main(argv) == 0
        names = [f"{tag}.{fmt}", f"{tag}_ecdf_n16.csv", f"{tag}_ecdf_n32.csv",
                 f"{tag}_cf_n16.csv", f"{tag}_cf_n32.csv"]
        return {name.replace(tag, "X"): (tmp_path / name).read_bytes()
                for name in names}

    def test_rerun_byte_identical(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        assert a == b

    def test_csv_json_numeric_equality(self, tmp_path):
        self._run(tmp_path, "c", fmt="csv")
        self._run(tmp_path, "j", fmt="json")
        csv_lines = (tmp_path / "c.csv").read_text().strip().split("\n")
        header = csv_lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in csv_lines[1:]]
        jrows = json.loads((tmp_path / "j.json").read_text())
        assert len(rows) == len(jrows)
        for crow, jrow in zip(rows, jrows):
            for col in ("estimate", "bound", "margin", "stderr_or_halfwidth"):
                assert float(crow[col]) == jrow[col]
            assert crow["check"] == jrow["check"]
            assert crow["verdict"] == jrow["verdict"]


class TestEcdfPlotRows:
    """The rows of *_ecdf_n*.csv: at the min(512, R) ranks i of
    np.linspace(0, R - 1, min(512, R)) cast to int, (i + 1) / R and the
    i-th of the sorted S_nu and S'_nu of the threshold's batch, each over
    sqrt(n); ``BoundReport`` keeps those rows and no more."""

    @pytest.mark.parametrize("reps", [2, 100, 512, 513])
    def test_rows_follow_the_definition(self, tmp_path, reps):
        config = build_config(["--model", "product", "--n-list", "16,24",
                               "--reps", str(reps), "--seed", "5",
                               "--out", str(tmp_path / "rep")])
        cli.run_experiment(config)
        for index, n in enumerate(config.n_list):
            batch = sample_stopped_batch(config.model, n, reps,
                                         derive_seed(5, 0, index))
            f = np.sort(batch.s_nu) / math.sqrt(n)
            h = np.sort(batch.s_prime_nu) / math.sqrt(n)
            take = np.linspace(0, reps - 1, min(512, reps)).astype(int)
            want = [[(i + 1) / reps, f[i], h[i]] for i in take.tolist()]
            lines = (tmp_path / f"rep_ecdf_n{n:g}.csv").read_text().split()
            assert lines[0] == "rank_fraction,quantile_F,quantile_H"
            assert [list(map(float, line.split(","))) for line in lines[1:]] \
                == want
            report = harness.report_from_batch(batch)
            for field in dataclasses.fields(report):
                value = getattr(report, field.name)
                assert not hasattr(value, "__len__") or len(value) <= 512


class TestEmitReport:
    def test_empty_records_csv(self, tmp_path):
        path = emit_report([], "csv", str(tmp_path / "empty.csv"))
        text = open(path).read()
        assert text == ",".join(cli.CSV_COLUMNS) + "\n"

    def test_empty_records_json(self, tmp_path):
        path = emit_report([], "json", str(tmp_path / "empty.json"))
        assert json.loads(open(path).read()) == []

    def test_json_round_trip(self, tmp_path):
        rec = {
            "check": "distance_F", "model": "iid_bounded", "n": 64.0,
            "R": 1000, "seed": 5, "estimate": 0.1234567890123456789,
            "stderr_or_halfwidth": 1e-300, "bound": 0.5,
            "margin": 0.5 - 0.1234567890123456789, "verdict": "PASS",
            "resolution_limited": False,
        }
        path = emit_report([rec], "json", str(tmp_path / "r.json"))
        loaded = json.loads(open(path).read())[0]
        for key, val in rec.items():
            assert loaded[key] == val

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            emit_report([], "yaml", str(tmp_path / "x"))


def _load_spans():
    """The benchmark's span recorder, perfbench/spans.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_exist():
    """Every (module, attribute) that the benchmark tracer wraps is bound:
    a missing one makes each traced run raise AttributeError.  The CLI
    keeps init_model and run_path imported for this reason alone."""
    spans = _load_spans()
    modules = {"cli": cli, "harness": harness}
    targets = [(mod, attr) for mod, attr, _, _ in spans._TARGETS]
    assert ("cli", "init_model") in targets and ("cli", "run_path") in targets
    for mod, attr in targets:
        assert callable(getattr(modules[mod], attr, None)), (mod, attr)


def test_traced_run_meets_the_tracer_call_contract():
    """A traced all-checks regime run (the benchmark's full_regime
    configuration): the tracer's summaries unpack the wrapped calls'
    positional arguments and results, so a changed signature raises here."""
    spans = _load_spans()
    n_list = (16.0, 32.0, 64.0, 128.0)
    config = ExperimentConfig(
        ModelSpec("regime_switch", {"v_lo": 0.25, "v_hi": 4.0}), n_list,
        1000, 3, 0.01, cli.CHECKS, None, "csv")
    tracer = spans.Tracer()
    with tracer.installed():
        status, records, _ = cli.run_experiment(config)
    names = [name for name, _ in tracer.calls]
    assert names.count("sampling") == len(n_list)
    assert names.count("harness.cf_probe") == len(n_list)
    assert spans.invariant_misses(tracer.calls) == 0
    assert status == 0 and records



def _src_env():
    return dict(os.environ,
                PYTHONPATH=str(Path(stopsum.__file__).resolve().parents[1]))


def test_cold_import_leaves_scipy_stats_out():
    """The CLI needs no SciPy at all; scipy.stats alone would add about a
    second and 46 MB to every run's start, scipy.special about 0.3 s and
    18 MB."""
    code = ("import sys, stopsum, stopsum.cli; "
            "print(stopsum.__file__); print('scipy.stats' in sys.modules); "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')) == [])")
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    where, loaded, scipy_free = proc.stdout.split()
    assert Path(where).resolve() == Path(stopsum.__file__).resolve()
    assert loaded == "False"
    assert scipy_free == "True"


def test_cli_runs_without_scipy(tmp_path):
    """With SciPy unimportable the CLI writes the same bytes."""
    argv = ["--model", "iid_bounded", "--n-list", "16,32,64,128",
            "--reps", "2000", "--seed", "5",
            "--checks", "distance,cf,esseen,rate"]
    blocked = "import sys; sys.modules['scipy'] = None; "
    outputs = {}
    for tag, prelude in (("with", ""), ("without", blocked)):
        (tmp_path / tag).mkdir()
        code = (prelude + "import sys; from stopsum.cli import main; "
                "sys.exit(main(sys.argv[1:]))")
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv,
             "--out", str(tmp_path / tag / "rep")],
            env=_src_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs[tag] = {p.name: p.read_bytes()
                        for p in sorted((tmp_path / tag).iterdir())}
    assert "rep.csv" in outputs["with"] and "rep_cf_n16.csv" in outputs["with"]
    assert outputs["without"] == outputs["with"]
