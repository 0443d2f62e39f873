"""SHA-256 of the five desk-scale experiment CSVs, the byte-identity check
for a change that claims to leave results alone.

Runs ``mxspec experiment <name> --seed 1 --jobs N`` (N = 2 unless
``--jobs`` says otherwise) for every experiment into a temporary
directory, with the package taken from this checkout's ``src/``, and
prints one ``<name> <sha256>`` line per CSV.  The sweep workers run BLAS
at one thread whatever the environment says, and the results depend
neither on the BLAS thread count nor on N.  A ``--jobs 1`` sweep solves
in its own process, which keeps the environment's BLAS threads, so each
sweep process gets ``OPENBLAS_NUM_THREADS=1`` unless the environment sets
that variable.  Each sweep's wall seconds, start of its process to exit,
go to stderr as ``<name> <seconds> s`` lines, so stdout holds the hashes
alone; with ``--jobs 1`` they are each desk sweep's time end to end with
BLAS at one thread.

    python3 tools/desk_hashes.py                                  # print
    python3 tools/desk_hashes.py --expect tools/desk_hashes.txt   # check
    python3 tools/desk_hashes.py --jobs 1                         # one process each

With ``--full-slice`` it also runs the ``--full`` fixed-sbm slice at k in
{9, 10} and w in {0.5, 1, 2} (``mxspec experiment fixed-sbm --full --seed
1 --k-grid 9,10 --w-grid 0.5,1,2``), a few minutes at ``--jobs 2``, and
prints its hash as ``full-slice <sha256>`` and its seconds as the others'.

    python3 tools/desk_hashes.py --full-slice --expect tools/desk_hashes.txt

With ``--expect FILE`` (lines ``<name> <sha256>``; blank lines and lines
starting with ``#`` are skipped) it exits 1 when any hash differs or any
name is missing on either side, and names each mismatch on stderr.  The
file's ``full-slice`` line is checked only with ``--full-slice``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
EXPERIMENTS = ("er", "fixed-sbm", "overlap", "overlap-supra", "overlap-kway")
SLICE = "full-slice"
SLICE_ARGS = ("fixed-sbm", "--full", "--k-grid", "9,10", "--w-grid", "0.5,1,2")


def desk_hashes(jobs: int = 2, full_slice: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("MXSPEC_SEED", None)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name, (name,)) for name in EXPERIMENTS] + ([(SLICE, SLICE_ARGS)] if full_slice else [])
        for name, sweep in runs:
            out = Path(tmp) / f"{name}.csv"
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "mxspec.cli", "experiment", *sweep,
                 "--seed", "1", "--jobs", str(jobs), "--out", str(out)],
                env=env, check=True)
            print(f"{name} {time.perf_counter() - start:.2f} s", file=sys.stderr)
            hashes[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    return hashes


def read_expected(path) -> dict:
    expected = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, digest = line.split()
            expected[name] = digest
    return expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", default=None, help="file of expected '<name> <sha256>' lines")
    parser.add_argument("--jobs", type=int, default=2,
                        help="worker processes of each sweep (default 2); the hashes do not depend on it")
    parser.add_argument("--full-slice", action="store_true",
                        help=f"also run the --full fixed-sbm slice, hashed as '{SLICE}'")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    expected = read_expected(args.expect) if args.expect else None
    if expected is not None and not args.full_slice:
        expected.pop(SLICE, None)
    hashes = desk_hashes(args.jobs, args.full_slice)
    for name, digest in hashes.items():
        print(name, digest)
    if expected is None:
        return 0
    mismatched = [name for name in sorted(set(hashes) | set(expected))
                  if hashes.get(name) != expected.get(name)]
    for name in mismatched:
        print(f"mismatch: {name}: expected {expected.get(name)}, got {hashes.get(name)}",
              file=sys.stderr)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
