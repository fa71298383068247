import dataclasses
import importlib.util
import json
from pathlib import Path

import pytest

from stopsum import ConfigurationError, InequalityCheck, cli, harness
from stopsum.cli import ExperimentConfig, build_config, emit_report, main
from stopsum.models import ModelSpec


IID_ARGS = ["--model", "iid_bounded", "--n-list", "16,32",
            "--reps", "500", "--seed", "7"]


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
            "n_list": [16, 64], "reps": 300, "seed": 3,
            "checks": ["distance", "lemma1"], "format": "json",
        }))
        cfg = build_config(["--config", str(path)])
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
        ["--checks", "nonsense"],
        ["--checks", "rate"],       # rate needs >= 4 n values
        ["--n-list", "16,inf"],
        ["--n-list", "16,nan"],
        ["--seed", "-3"],
        ["--reps", str(cli.MAX_REPS + 1)],
        ["--reps", str(10**12)],
    ])
    def test_invalid_values_rejected(self, extra):
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

    def test_non_finite_n_exit_2(self, capsys):
        assert main(["--model", "iid_bounded", "--n-list", "16,inf"]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--config", str(path)]) == 2

    @pytest.mark.parametrize("checks", ["distance", "lemma1"])
    def test_path_overflow_exit_2(self, monkeypatch, capsys, checks):
        # a step cap below n / v stands in for n beyond the default max_steps
        monkeypatch.setattr(
            cli, "ModelSpec",
            lambda kind, params: ModelSpec(kind, params, max_steps=20))
        assert main(IID_ARGS + ["--checks", checks]) == 2
        err = capsys.readouterr().err
        assert err.startswith("stopsum: path overflow:")
        assert "Traceback" not in err

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

    def _run(self, monkeypatch, resolved_failure):
        real = cli.probe_from_batch

        def injected(batch, n, t_grid):
            probe = real(batch, n, t_grid)
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


class TestDeterminism:
    def _run(self, tmp_path, tag, workers, monkeypatch, fmt="csv"):
        monkeypatch.setenv("STOPSUM_WORKERS", str(workers))
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

    def test_rerun_byte_identical(self, tmp_path, monkeypatch):
        a = self._run(tmp_path, "a", 1, monkeypatch)
        b = self._run(tmp_path, "b", 1, monkeypatch)
        assert a == b

    def test_worker_count_byte_identical(self, tmp_path, monkeypatch):
        a = self._run(tmp_path, "w1", 1, monkeypatch)
        b = self._run(tmp_path, "w4", 4, monkeypatch)
        assert a == b

    def test_csv_json_numeric_equality(self, tmp_path, monkeypatch):
        self._run(tmp_path, "c", 1, monkeypatch, fmt="csv")
        self._run(tmp_path, "j", 1, monkeypatch, fmt="json")
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


def test_tracer_targets_exist():
    """Every (module, attribute) that the benchmark tracer wraps is bound:
    a missing one makes each traced run raise AttributeError.  The CLI
    keeps init_model and run_path imported for this reason alone."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    modules = {"cli": cli, "harness": harness}
    targets = [(mod, attr) for mod, attr, _, _ in spans._TARGETS]
    assert ("cli", "init_model") in targets and ("cli", "run_path") in targets
    for mod, attr in targets:
        assert callable(getattr(modules[mod], attr, None)), (mod, attr)

