"""Hash every output of a fixed list of CLI commands, to compare two trees.

Usage, from the root of a checkout:

    PYTHONPATH=src python tools/output_manifest.py > manifest.txt
    python tools/output_manifest.py --base REV

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

With ``--base REV`` the tool checks REV out with ``git worktree`` under
``.bench_build/`` (removed afterwards), makes the manifest of REV's
``src/`` and of the working tree's ``src/``, prints each run whose lines
differ with its differing lines, and exits 1 if any run differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"

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
    # a wide grid of few radii: the synthesis is one inverse FFT over 16384 angles
    ["solve", "builtin:phi_5_9", "--trunc", "64", "--grid", "4x16384"],
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


def manifest(pythonpath: list[str]) -> Iterator[tuple[str, list[str]]]:
    """(label, lines) for each run in turn, the package imported from the
    directories of ``pythonpath``."""
    # absolute entries, since every run has a directory of its own
    given = os.pathsep.join(str(Path(d).resolve()) for d in pythonpath if d)
    env = dict(os.environ, PYTHONPATH=given)
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
            yield files_label, entry


def compare(base: str) -> int:
    """Print each run whose lines differ between base's src/ and the working tree's."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.strip()

    rev = git("rev-parse", "--verify", f"{base}^{{commit}}")
    BUILD.mkdir(exist_ok=True)
    base_tree = Path(tempfile.mkdtemp(dir=BUILD)) / "base"
    git("worktree", "add", "--detach", str(base_tree), rev)
    try:
        before = dict(manifest([str(base_tree / "src")]))
    finally:
        git("worktree", "remove", "--force", str(base_tree))
        shutil.rmtree(base_tree.parent, ignore_errors=True)
    differ = 0
    for label, lines in manifest([str(ROOT / "src")]):
        old = before.get(label, [])
        if old != lines:
            differ += 1
            print(f"differs: {label}")
            print("\n".join([f"  - {line}" for line in old if line not in lines]
                            + [f"  + {line}" for line in lines if line not in old]))
    print(f"{differ} of {len(RUNS)} runs differ between {base} ({rev[:12]}) and the working tree")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    if args.base:
        return compare(args.base)
    lines = []
    for _, entry in manifest(os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        print("\n".join(entry), flush=True)
        lines += entry
    manifest_hash = sha256("\n".join(lines).encode())
    print(f"{manifest_hash}  manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
