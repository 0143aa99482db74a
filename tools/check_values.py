"""Write the exact values of the construction check as package data.

Usage, from the root of a checkout:

    python tools/check_values.py [--out PATH]

Before a closed-form prefactor is used in floating point, scatterpoly
compares it with the exact binomial sum of its member at 20 dyadic radii
(``scattering._CHECK_RADII``).  Those values depend only on (p, q), so this
tool evaluates them once, in Python integers, for every member with
p + q <= MAX_TRUNC, rounds each num / den once, and writes them with
``numpy.save`` as little-endian float64, one row per member in (p + q, p)
order: 8128 rows of 20 values at MAX_TRUNC = 128, 1.3 MB.  The default
output is ``src/scatterpoly/check_values.npy``, the file the package reads.
``tests/test_scattering.py`` rebuilds the table the same way and asserts
that every entry is bit-equal, so rerun this tool after any change to the
radii, the binomial sum or MAX_TRUNC.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from scatterpoly.cli import MAX_TRUNC  # noqa: E402
from scatterpoly.scattering import PQIndex, _computed_values  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "src" / "scatterpoly" / "check_values.npy"),
                        help="path of the .npy file to write")
    args = parser.parse_args(argv)
    members = [PQIndex(p, s - p) for s in range(2, MAX_TRUNC + 1) for p in range(1, s)]
    table = _computed_values(members).astype("<f8")
    np.save(args.out, table)
    print(f"wrote {args.out} ({table.shape[0]} members x {table.shape[1]} radii)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
