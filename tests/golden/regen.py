"""Golden CLI reports: run a set, name the cells that moved, regenerate.

Each directory here is one set: ``config.json``, a flat config of the
``stopsum`` CLI, and what ``stopsum --config config.json --out <dir>/<dir>``
writes there (the CSV report, its ECDF and CF detail files), plus
``status``, the exit status.  ``tests/test_golden.py`` reruns every set and
names each (file, check, n, column) whose text moved.

The sets:

- ``iid-small``, ``product-small``, ``regime-small``: every check of each
  kind at n = 16, 24, 32, 48 and R = 4000 (acceptance criterion 9).
- ``iid-wide`` (R = 2000), ``regime-wide`` (R = 1000): n = 64 to 4096
  with Lemma 1.
- ``product-edges``: R = 5000, two sampling blocks.  n = 1023 has the cap
  1025, which the pairwise tree splits unevenly (tiles of 256, 256, 256,
  128 and 129 columns); at n = 16383 and 16384 the draw budget rather
  than the 128-row cap sets the sub-chunk (19 rows, 1024-column tiles),
  and at the odd cap 16385 each sub-chunk draws an odd count of signs, so
  the spare 32-bit half carries over to the next one.
- ``product-grow``: p_growth = 1, where the growth test's bound T * 2^11
  is 2^64, above every raw output.

``regime-wide``, ``product-edges`` and ``product-grow`` leave out the rate
check, whose verdict is statistical and may fail on noise at their R.

Regenerate every set after a change that is meant to move report bytes,
so that the moved cells show in ``git diff``:

    PYTHONPATH=src python tests/golden/regen.py

or only the sets named, e.g. the one a new check brings, leaving every
other set as it is:

    PYTHONPATH=src python tests/golden/regen.py iid-small regime-small

A name that is no set here exits 2 before any set is written.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

from stopsum.cli import main

HERE = Path(__file__).resolve().parent
CONFIG = "config.json"
STATUS = "status"


def set_dirs(root=HERE):
    """The directory of every golden set under root, in name order."""
    return sorted(p.parent for p in Path(root).glob(f"*/{CONFIG}"))


def run_set(set_dir, out_dir):
    """Run the set's config with its outputs under out_dir; returns the
    exit status and the bytes of each file the run wrote, by name."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["--config", str(Path(set_dir) / CONFIG),
                       "--out", str(out_dir / Path(set_dir).name)])
    return status, {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def recorded(set_dir):
    """The recorded exit status and report files of a set."""
    set_dir = Path(set_dir)
    status = int((set_dir / STATUS).read_text())
    files = {p.name: p.read_bytes() for p in sorted(set_dir.iterdir())
             if p.name not in (CONFIG, STATUS)}
    return status, files


# ECDF and CF detail files carry n in their names: <out>_{ecdf,cf}_n<tag>.csv
_DETAIL = re.compile(r"_(ecdf|cf)_n([^.]+)\.csv$")


def _cells(name, data):
    """The cells of a CSV report file by (check, n, column, row), row
    counting the rows of one (check, n): the report's check and n columns,
    a CF detail row's inequality and an ECDF row's "ecdf", with the n of
    the file name."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",") if lines else []
    detail = _DETAIL.search(name)
    rows = Counter()
    cells = {}
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        if detail:
            key = row.get("inequality", detail[1]), detail[2]
        else:
            key = row.get("check"), row.get("n")
        rows[key] += 1
        for column in header:
            cells[key + (column, rows[key])] = row.get(column)
    return cells


def moved_cells(want, got):
    """Each (file, check, n, column) whose text differs between two sets
    of report files given as {name: bytes}, and each file only one has."""
    moved = [f"{name}: {'missing' if name in want else 'unexpected'} file"
             for name in sorted(want.keys() ^ got.keys())]
    for name in sorted(want.keys() & got.keys()):
        if want[name] == got[name]:
            continue
        a, b = _cells(name, want[name]), _cells(name, got[name])
        where = {key[:3] for key in a.keys() | b.keys()
                 if a.get(key) != b.get(key)}
        moved += [f"{name}: check={check} n={n} column={column}"
                  for check, n, column in sorted(where, key=str)]
        if not where:       # bytes that no cell holds: line ends
            moved.append(f"{name}: bytes outside the cells")
    return moved


def regenerate(set_dir):
    """Replace the set's recorded files by a fresh run's."""
    set_dir = Path(set_dir)
    with tempfile.TemporaryDirectory() as tmp:
        status, files = run_set(set_dir, tmp)
    for path in set_dir.iterdir():
        if path.name != CONFIG:
            path.unlink()
    for name, data in files.items():
        (set_dir / name).write_bytes(data)
    (set_dir / STATUS).write_text(f"{status}\n")
    return status, files


def regenerate_sets(names, root=HERE):
    """Regenerate the named sets under root, or every set when none is
    named; returns 2, having written nothing, if a name is no set."""
    sets = {p.name: p for p in set_dirs(root)}
    unknown = [name for name in names if name not in sets]
    if unknown:
        print(f"regen.py: no golden set named {', '.join(unknown)} in {root}",
              file=sys.stderr)
        return 2
    for name in names or sets:
        status, files = regenerate(sets[name])
        print(f"{name}: exit {status}, {len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate_sets(sys.argv[1:]))
