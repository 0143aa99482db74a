"""Hash every output of a fixed list of CLI commands, to compare two trees.

Usage, once per source tree, on one machine:

    PYTHONPATH=src python tools/output_manifest.py > manifest.txt

Each run is one command, or a sequence of commands sharing one directory
(a grid file written by one and read by the next), as ``python -m
scatterpoly ...`` in a fresh empty directory under one temporary
directory, with default output names.  Three lines per command give the
sha256 of its exit code, stdout and stderr, and one line per file the run
wrote the sha256 of that file; the last line is the sha256 of all the
lines before it, the manifest hash.  Two trees whose manifest hashes
agree wrote the same bytes everywhere.  ``gram`` goes through BLAS, so
hashes can differ between machines: compare only manifests made on the
same machine with the same numpy.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

EXPANSIONS = [
    [command, f"builtin:{target}", "--trunc", trunc, "--grid", "64x128"]
    for command in ("expand", "solve")
    for target in ("radial_bump", "phi_5_9")
    for trunc in ("64", "128")
]

COMMANDS = [
    ["verify", "12"],
    ["verify", "24"],
    ["verify", "64"],
    ["table", "12", "17"],
    ["table", "3", "4", "--out", "t.txt"],
    ["table", "500", "500"],  # p + q = MAX_TABLE_SUM
    ["gram", "14"],
    ["gram", "64"],
    ["gram", "64", "--format", "json"],
    ["eval", "8", "24", "--grid", "128x256"],
    ["eval", "8", "24", "--grid", "128x256", "--format", "json"],
    *EXPANSIONS,
    ["expand", "builtin:one", "--trunc", "16"],
    ["moments", "2", "3"],
    ["moments", "2", "3", "--eps-ladder", "1e-2,1e-4,1e-6,1e-8"],
    # limit and input exits: each exits 2 before any output
    ["expand", "builtin:phi_1_200"],
    ["solve", "builtin:nope"],
    ["expand", "builtin:phi_0_3"],
    ["verify", "1"],
    ["gram", "1"],
    ["eval", "0", "3"],
]

#: A grid file round trip: written by ``eval``, read by ``expand`` and ``solve``.
GRID_FILE_RUN = [
    ["eval", "2", "3", "--grid", "48x96", "--out", "grid.csv"],
    ["expand", "grid.csv", "--format", "csv"],
    ["expand", "grid.csv", "--format", "json"],
    ["solve", "grid.csv", "--grid", "32x64"],
]

RUNS = [[argv] for argv in COMMANDS] + [GRID_FILE_RUN]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    # absolute entries, since every run has a directory of its own
    given = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(str(Path(d).resolve()) for d in given if d))
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for number, run in enumerate(RUNS):
            work = Path(tmp) / str(number)
            work.mkdir()
            entry = []
            for argv in run:
                label = " ".join(argv)
                proc = subprocess.run(
                    [sys.executable, "-m", "scatterpoly", *argv],
                    cwd=work, env=env, capture_output=True,
                )
                entry += [
                    f"{sha256(str(proc.returncode).encode())}  {label} :: exit {proc.returncode}",
                    f"{sha256(proc.stdout)}  {label} :: stdout",
                    f"{sha256(proc.stderr)}  {label} :: stderr",
                ]
            files_label = " && ".join(" ".join(argv) for argv in run)
            entry += [
                f"{sha256(output.read_bytes())}  {files_label} :: {output.name}"
                for output in sorted(work.iterdir())
            ]
            print("\n".join(entry), flush=True)
            lines += entry
    manifest = sha256("\n".join(lines).encode())
    print(f"{manifest}  manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
