"""Print a sha256 of everything the report commands emit, so two source
trees can be compared for byte-identical output with one ``diff``.

Runs, in-process and into a temporary directory: ``verify --out`` on the
default grid (plain, with ``--x-min 0.000567``, with
``--corrupt-claim trig-upper-I``, and with ``--corrupt-claim
double-I-lower`` and ``--corrupt-claim amos-I-a2``, which are refused)
and on 20 half-integer orders x 1,001 x
(plain and with ``--corrupt-claim amos-K-a1``), ``conjecture --out``,
``sharpness --out``, ``tabulate --out`` and ``explore --out`` three ways
(``--sample 100``, ``--sample 20 --nu 2.5 --a 1`` and ``--y0 0.7``).  For
each run it prints the exit code and the digests of stdout and stderr,
then one line per output file.  Then one library run, ``monotone-dense``:
every monotone claim scanned over one oracle table on the same 20 orders
x 1,001 x (3 x 9 with ``--tiny``), one line per claim digesting its
points_checked, skipped, worst_margin, violations and the bytes of its
rows.  Last, ``sharpness-battery``: one line per case of
``verify.sharpness_battery``, digesting its fitted pair and sorted stats
as %.17g, its points_checked and the bytes of its rows, below the
precision ``sharpness`` prints.

    python3 tools/output_digest.py [--src DIR] [--tiny] > digest.txt

``--src`` names the source tree to import (default: this repository's
``src``), so the same script digests another checkout; it takes effect in
a fresh interpreter, since a process that has already imported
``besselbounds`` keeps that copy.  ``--tiny`` runs every command on a
small grid, for a quick check.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
DENSE = ["--nu-min", "0.5", "--nu-max", "19.5", "--nu-step", "1", "--x-points", "1001"]
TINY_GRID = ["--nu-min", "-1", "--nu-max", "0.5", "--nu-step", "0.25", "--x-points", "5"]
TINY_DENSE = ["--nu-min", "0.5", "--nu-max", "2.5", "--nu-step", "1", "--x-points", "9"]


def runs(tiny: bool):
    """(name, argv, output is a directory) of each run, without --out."""
    default, dense = (TINY_GRID, TINY_DENSE) if tiny else ([], DENSE)
    corrupt = ["--corrupt-claim", "amos-K-a1"]
    sample, small = (["--sample", "3"], ["--sample", "2"]) if tiny else (
        ["--sample", "100"], ["--sample", "20"])
    return [("verify-default", ["verify", *default], True),
            ("verify-x-min", ["verify", *default, "--x-min", "0.000567"], True),
            ("verify-default-corrupt", ["verify", *default, "--corrupt-claim", "trig-upper-I"],
             True),
            ("verify-corrupt-zero", ["verify", *default, "--corrupt-claim", "double-I-lower"],
             True),
            ("verify-corrupt-slack", ["verify", *default, "--corrupt-claim", "amos-I-a2"], True),
            ("verify-dense", ["verify", *dense], True),
            ("verify-dense-corrupt", ["verify", *dense, *corrupt], True),
            ("conjecture", ["conjecture", *default], False),
            ("sharpness", ["sharpness"], True),
            ("tabulate", ["tabulate", *default], False),
            ("explore", ["explore", *sample], False),
            ("explore-nu", ["explore", *small, "--nu", "2.5", "--a", "1"], False),
            ("explore-y0", ["explore", "--y0", "0.7"], False)]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(cli, tiny: bool, workdir: str) -> list:
    """The digest lines of every run, each writing under ``workdir``."""
    lines = []
    for name, argv, to_dir in runs(tiny):
        out_path = os.path.join(workdir, name if to_dir else name + ".csv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", out_path])
        lines.append(f"{name} exit={code} stdout={_sha(out.getvalue().encode())} "
                     f"stderr={_sha(err.getvalue().encode())}")
        target = Path(out_path)
        files = sorted(target.iterdir()) if target.is_dir() else [target]
        lines += [f"{name}/{path.name} {_sha(path.read_bytes())}"
                  for path in files if path.is_file()]
    return lines


def monotone_digest(verify, tiny: bool) -> list:
    """The digest lines of the library run, one per monotone claim."""
    orders, points = (3, 9) if tiny else (20, 1001)
    grid = verify.Grid(tuple(0.5 + k for k in range(orders)),
                       tuple(np.geomspace(1e-3, 1e3, points)))
    table = verify.OracleTable(grid)
    lines = []
    for quantity in verify.monotone_claims():
        rep = verify.scan_monotone(quantity, grid=grid, table=table)
        summary = "%d %d %.17g %d\n" % (rep.points_checked, rep.skipped, rep.worst_margin,
                                        len(rep.violations))
        data = (summary.encode() + np.array(rep.violations, dtype=float).tobytes()
                + np.ascontiguousarray(rep.rows, dtype=float).tobytes())
        lines.append(f"monotone-dense/{rep.claim_id} {_sha(data)}")
    return lines


def battery_digest(verify) -> list:
    """The digest lines of the sharpness battery, one per case."""
    lines = []
    for rep in verify.sharpness_battery():
        fitted = "none" if rep.fitted is None else "%.17g %.17g" % rep.fitted
        stats = " ".join("%s=%.17g" % item for item in sorted(rep.stats.items()))
        summary = "%s %s %d\n" % (fitted, stats, rep.points_checked)
        data = summary.encode() + np.ascontiguousarray(rep.rows, dtype=float).tobytes()
        lines.append(f"sharpness-battery/{rep.claim_id} {_sha(data)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=str(SRC), help="source tree to import")
    ap.add_argument("--tiny", action="store_true", help="run on a small grid")
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from besselbounds import cli, verify
    with tempfile.TemporaryDirectory() as workdir:
        print("\n".join(digest(cli, args.tiny, workdir)))
    print("\n".join(monotone_digest(verify, args.tiny)))
    print("\n".join(battery_digest(verify)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
