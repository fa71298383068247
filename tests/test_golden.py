"""Committed golden reports: every set under tests/golden reruns to the same
bytes and exit status.  A change meant to move report bytes regenerates
them (``PYTHONPATH=src python tests/golden/regen.py``), so that its diff
shows the moved cells."""

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from golden.regen import HERE, moved_cells, recorded, run_set, set_dirs


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
