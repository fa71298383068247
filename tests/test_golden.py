"""Committed golden reports: every set under tests/golden reruns to the same
bytes and exit status.  A change meant to move report bytes regenerates
them (``PYTHONPATH=src python tests/golden/regen.py [SET ...]``), so that
its diff shows the moved cells."""

import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from golden.regen import (HERE, moved_cells, recorded, regenerate_sets,
                          run_set, set_dirs)


def simd_targets():
    """The SIMD targets numpy dispatches to here: the golden bytes were
    recorded at one SIMD level, and np.exp's last bits follow it."""
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


@pytest.mark.parametrize("set_dir", set_dirs(), ids=lambda p: p.name)
def test_reports_match_golden(set_dir, tmp_path):
    want_status, want = recorded(set_dir)
    status, got = run_set(set_dir, tmp_path)
    moved = moved_cells(want, got)
    if status != want_status:
        moved.insert(0, f"exit status {want_status} -> {status}")
    assert not moved, (f"{set_dir.name} moved (numpy {np.__version__} "
                       f"dispatching {simd_targets()}):\n" + "\n".join(moved))


class TestMovedCells:
    """The differ names each moved cell by (file, check, n, column)."""

    @pytest.fixture
    def files(self):
        return recorded(HERE / "iid-small")[1]

    def test_silent_on_equal_files(self, files):
        assert moved_cells(files, dict(files)) == []

    def test_names_each_moved_cell(self, files):
        report = files["iid-small.csv"].decode().splitlines()
        row = next(i for i, r in enumerate(report)
                   if r.startswith("esseen,iid_bounded,24,"))
        cells = report[row].split(",")
        cells[5] = cells[5] + "1"               # estimate
        cells[8] = cells[8] + "1"               # margin
        report[row] = ",".join(cells)
        cf = files["iid-small_cf_n32.csv"].decode().splitlines()
        cf[-1] = cf[-1].replace("false", "true")
        ecdf = files["iid-small_ecdf_n48.csv"].decode().splitlines()
        got = dict(files)
        got["iid-small.csv"] = ("\n".join(report) + "\n").encode()
        got["iid-small_cf_n32.csv"] = ("\n".join(cf) + "\n").encode()
        got["iid-small_ecdf_n48.csv"] = ("\n".join(ecdf[:-1]) + "\n").encode()
        del got["iid-small_ecdf_n16.csv"]
        got["iid-small_ecdf_n64.csv"] = b""
        assert moved_cells(files, got) == [
            "iid-small_ecdf_n16.csv: missing file",
            "iid-small_ecdf_n64.csv: unexpected file",
            "iid-small.csv: check=esseen n=24 column=estimate",
            "iid-small.csv: check=esseen n=24 column=margin",
            "iid-small_cf_n32.csv: check=cf_combined n=32 "
            "column=resolution_limited",
            "iid-small_ecdf_n48.csv: check=ecdf n=48 column=quantile_F",
            "iid-small_ecdf_n48.csv: check=ecdf n=48 column=quantile_H",
            "iid-small_ecdf_n48.csv: check=ecdf n=48 column=rank_fraction",
        ]

    def test_bytes_outside_the_cells(self, files):
        got = dict(files)
        got["iid-small.csv"] = files["iid-small.csv"].replace(b"\n", b"\r\n")
        assert moved_cells(files, got) == [
            "iid-small.csv: bytes outside the cells"]


class TestRegen:
    """regen.py rewrites the sets it is named and no other."""

    NAMES = ("iid-small", "regime-small")

    @pytest.fixture
    def root(self, tmp_path):
        """Copies of two sets, each with a report file that moved."""
        for name in self.NAMES:
            shutil.copytree(HERE / name, tmp_path / name)
            with open(tmp_path / name / f"{name}.csv", "ab") as fh:
                fh.write(b"moved\n")
        return tmp_path

    def files(self, root):
        return {name: recorded(root / name) for name in self.NAMES}

    def test_regenerates_only_the_named_set(self, root):
        before = self.files(root)
        assert regenerate_sets(["iid-small"], root) == 0
        after = self.files(root)
        assert after["iid-small"] == recorded(HERE / "iid-small")
        assert after["regime-small"] == before["regime-small"]

    def test_every_set_when_none_is_named(self, root):
        assert regenerate_sets([], root) == 0
        assert self.files(root) == {name: recorded(HERE / name)
                                    for name in self.NAMES}

    def test_unknown_name_writes_nothing(self, root, capsys):
        before = self.files(root)
        assert regenerate_sets(["iid-small", "no-such-set"], root) != 0
        assert "no-such-set" in capsys.readouterr().err
        assert self.files(root) == before

    def test_script_exits_nonzero_on_an_unknown_name(self):
        before = {p.name: recorded(p) for p in set_dirs()}
        proc = subprocess.run(
            [sys.executable, str(HERE / "regen.py"), "no-such-set"],
            env=dict(os.environ, PYTHONPATH=str(HERE.parents[1] / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "no-such-set" in proc.stderr
        assert {p.name: recorded(p) for p in set_dirs()} == before
