"""Run a fixed corpus of torsol CLI invocations on two source trees and report every difference.

Usage: python tests/cli_corpus.py TREE_A TREE_B

TREE_A and TREE_B are checkouts of this repository.  The script writes the
corpus's seeded input files into a temporary directory, runs each
invocation there as `python -m torsol.cli ...` with PYTHONPATH=<tree>/src,
once per tree, and prints every invocation whose stdout, stderr or exit
code differ.  It exits 1 when any invocation differs, else 0.

The corpus holds all ten commands on SUM3, AP3, AP4, R4, AP5, PINNED, the
Smith matrix and the 2 x 5 matrix with seeded grid sets at p = 5 to 13,
the invocations of the CI's packaging smoke, refusals that exit 1, 2 and 3,
and matrices with entries of 10^18 and 10^30.  Invocations that take more
than a few seconds are left out, and so are entries between 10^6 and
10^17, whose slice scan once allocated gigabytes.  Files are named
relative to the working directory, so error messages read the same on both
trees.  pytest does not collect this file: its name does not start with
test_.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

MATRICES = {
    "sum3": [[1, 1, -1]],
    "ap3": [[1, -2, 1]],
    "ap4": [[1, -2, 1, 0], [0, 1, -2, 1]],
    "r4": [[2, 3, -1, 5]],
    "ap5": [[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]],
    "pinned": [[1, 1, 0], [0, 0, 2]],
    "pinned_scaled": [[2, 2, 0], [0, 0, 4]],
    "smith": [[6, 4, 2, 0], [0, 6, 12, 18]],
    "m2x5": [[1, 2, -1, 0, 1], [0, 1, 1, -2, 1]],
    "m3x7": [[1, -1, 2, -1, 3, 2, 3], [2, 2, 1, -3, 3, 0, 3], [-2, 2, -3, -2, -3, -1, 0]],
    "m134": [[1, 3, 4], [4, 1, 5]],
    "m21": [[2, 1, -1]],
    "m1112": [[1, 1, -1, -2]],
    "huge18": [[10**18, 1, -1]],
    "huge30": [[10**30, 1, -1]],
}
# the matrices that get every command at every prime of PRIMES
FAMILY = ("sum3", "ap3", "ap4", "r4", "ap5", "pinned", "smith", "m2x5")
PRIMES = (5, 7, 11, 13)


def grid_sets(seed, p: int, m: int, density: float = 0.5) -> list:
    """m p-grid-aligned sets in the sets JSON format: one [start/p, end/p) per run of member cells."""
    rng = random.Random(seed)
    out = []
    for _ in range(m):
        cells = "".join("1" if rng.random() < density else "0" for _ in range(p))
        runs, start = [], None
        for x, c in enumerate(cells + "0"):
            if c == "1" and start is None:
                start = x
            elif c == "0" and start is not None:
                runs.append([str(Fraction(start, p)), str(Fraction(x, p))])
                start = None
        out.append(runs)
    return out


def corpus() -> tuple[dict, list]:
    """(files, invocations): file name -> text, and (label, argv) pairs."""
    files = {f"{name}.json": json.dumps({"entries": rows}) for name, rows in MATRICES.items()}
    runs = []

    def add(*argv):
        runs.append((" ".join(argv), list(argv)))

    for name in FAMILY:
        cols = len(MATRICES[name][0])
        mat = f"{name}.json"
        add("profile", "--matrix", mat)
        add("kernel", "--matrix", mat)
        add("density", "--matrix", mat, "--trend", "5,7")
        for p in PRIMES:
            sets = f"{name}_{p}.json"
            files[sets] = json.dumps(grid_sets(f"{name}:{p}", p, cols))
            add("weights", "--matrix", mat, "--p", str(p))
            add("measure", "--matrix", mat, "--sets", sets)
            add("decompose", "--matrix", mat, "--sets", sets, "--p", str(p))
            add("sample", "--matrix", mat, "--sets", sets, "--samples", "3000", "--seed", str(p))
            add("check-free", "--matrix", mat, "--sets", sets, "--p", str(p))
            add("remove", "--matrix", mat, "--sets", sets, "--p", str(p))
            add("density", "--matrix", mat, "--p", str(p))
            add("density", "--matrix", mat, "--p", str(p), "--mode", "local", "--seed", "1")
            add("verify", "--matrix", mat, "--p", str(p), "--seed", "2")
    # the CI's packaging smoke
    for name, seed, p, cols, density in (
        ("m2x5_sets", 3, 11, 5, 0.5),
        ("m3x7_sets", 1, 17, 7, 0.5),
        ("sum3_dense", 2, 307, 3, 0.6),
        ("ap4_dense", 2, 101, 4, 0.6),
        ("sum3_1009", 5, 1009, 3, 0.6),
        ("ap5_dense", 2, 53, 5, 0.6),
        ("ap4_211", 2, 211, 4, 0.6),
    ):
        files[f"{name}.json"] = json.dumps(grid_sets(seed, p, cols, density))
    files["halves.json"] = json.dumps([[["0", "1/2"]]] * 3)
    files["two_sets.json"] = json.dumps([[["0", "1/2"]]] * 2)
    files["pinned_sets.json"] = json.dumps([[["0", "3/4"]], [["1/8", "5/8"]], [["1/4", "1"]]])
    files["sixths.json"] = json.dumps([[["0", "1/2"]], [["1/3", "5/6"]], [["1/6", "2/3"]]])
    files["quarters.json"] = json.dumps([[["0", "3/4"]], [["1/4", "3/4"]], [["1/2", "1"]]])
    add("weights", "--matrix", "sum3.json", "--p", "5")
    add("verify", "--matrix", "r4.json", "--p", "13")
    add("profile", "--matrix", "pinned_scaled.json")
    add("verify", "--matrix", "pinned_scaled.json", "--p", "5")
    add("profile", "--matrix", "smith.json")
    add("measure", "--matrix", "m2x5.json", "--sets", "m2x5_sets.json")
    add("decompose", "--matrix", "m2x5.json", "--sets", "m2x5_sets.json", "--p", "11")
    add("kernel", "--matrix", "m3x7.json")
    add("measure", "--matrix", "m3x7.json", "--sets", "m3x7_sets.json")
    add("decompose", "--matrix", "m3x7.json", "--sets", "m3x7_sets.json", "--p", "17")
    add("remove", "--matrix", "sum3.json", "--sets", "sum3_dense.json", "--p", "307")
    add("measure", "--matrix", "sum3.json", "--sets", "sum3_dense.json")
    add("decompose", "--matrix", "sum3.json", "--sets", "sum3_dense.json", "--p", "307")
    add("weights", "--matrix", "sum3.json", "--p", "9")
    add("measure", "--matrix", "sum3.json", "--sets", "two_sets.json")
    add("density", "--matrix", "sum3.json", "--trend", ",")
    add("density", "--matrix", "sum3.json", "--trend", "5,,7")
    add("check-free", "--matrix", "ap4.json", "--sets", "ap4_dense.json", "--p", "101")
    add("decompose", "--matrix", "ap4.json", "--sets", "ap4_dense.json", "--p", "101")
    add("weights", "--matrix", "m134.json", "--p", "11")
    add("weights", "--matrix", "m134.json", "--p", "13")
    add("measure", "--matrix", "pinned_scaled.json", "--sets", "pinned_sets.json")
    add("sample", "--matrix", "pinned_scaled.json", "--sets", "pinned_sets.json", "--samples", "40000", "--seed", "3")
    add("measure", "--matrix", "m21.json", "--sets", "sixths.json")
    add("measure", "--matrix", "m21.json", "--sets", "quarters.json")
    add("weights", "--matrix", "sum3.json", "--p", str(2**61 - 1))
    add("decompose", "--matrix", "sum3.json", "--sets", "halves.json", "--p", str(2**61 - 1))
    add("measure", "--matrix", "sum3.json", "--sets", "sum3_1009.json")
    add("decompose", "--matrix", "sum3.json", "--sets", "sum3_1009.json", "--p", "1009")
    add("density", "--matrix", "m1112.json", "--p", "61", "--mode", "local", "--seed", "1")
    add("remove", "--matrix", "ap5.json", "--sets", "ap5_dense.json", "--p", "53")
    add("remove", "--matrix", "ap4.json", "--sets", "ap4_211.json", "--p", "211")
    # refusals: exit 1 (usage), 2 (invalid input) and 3 (failed precondition)
    files["bad.json"] = "{not json"
    files["float_entry.json"] = json.dumps({"entries": [[1.5, 1, -1]]})
    files["bool_entry.json"] = json.dumps({"entries": [[True, 1, -1]]})
    files["rank_deficient.json"] = json.dumps({"entries": [[1, 1, -1], [2, 2, -2]]})
    files["ragged.json"] = json.dumps({"entries": [[1, 1], [1]]})
    files["outside.json"] = json.dumps([[["0", "3/2"]]] * 3)
    files["thirds.json"] = json.dumps([[["0", "1/3"]]] * 3)
    add()
    add("frobnicate", "--matrix", "sum3.json")
    add("kernel")
    add("weights", "--matrix", "sum3.json")
    add("weights", "--matrix", "sum3.json", "--p", "x")
    add("density", "--matrix", "sum3.json", "--p", "7", "--format", "csv")
    add("density", "--matrix", "sum3.json", "--trend", "5,7", "--p", "5")
    add("density", "--matrix", "sum3.json", "--trend", "5,7", "--mode", "local")
    add("density", "--matrix", "sum3.json", "--trend", "")
    add("kernel", "--matrix", "missing.json")
    add("kernel", "--matrix", "bad.json")
    add("kernel", "--matrix", "float_entry.json")
    add("kernel", "--matrix", "bool_entry.json")
    add("kernel", "--matrix", "rank_deficient.json")
    add("kernel", "--matrix", "ragged.json")
    add("measure", "--matrix", "sum3.json", "--sets", "outside.json")
    add("decompose", "--matrix", "sum3.json", "--sets", "thirds.json", "--p", "5")
    add("density", "--matrix", "sum3.json", "--trend", "5, 7")
    add("weights", "--matrix", "sum3.json", "--p", "4")
    add("weights", "--matrix", "sum3.json", "--p", "3317044064679887385961983")
    add("density", "--matrix", "sum3.json", "--p", str(2**61 - 1))
    add("check-free", "--matrix", "sum3.json", "--sets", "halves.json", "--p", str(2**61 - 1))
    add("verify", "--matrix", "r4.json", "--p", "5")
    # huge entries: refused before the slice scan
    for name in ("huge18", "huge30"):
        mat = f"{name}.json"
        add("profile", "--matrix", mat)
        add("kernel", "--matrix", mat)
        add("weights", "--matrix", mat, "--p", "5")
        add("verify", "--matrix", mat, "--p", "5")
        add("measure", "--matrix", mat, "--sets", "halves.json")
        add("decompose", "--matrix", mat, "--sets", "halves.json", "--p", "2")
        add("check-free", "--matrix", mat, "--sets", "halves.json", "--p", "2")
        add("remove", "--matrix", mat, "--sets", "halves.json", "--p", "2")
        add("sample", "--matrix", mat, "--sets", "halves.json", "--samples", "1000")
        add("density", "--matrix", mat, "--p", "5")
    return files, runs


def run(tree: str, workdir: str, argv: list) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one invocation against the package of tree."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "torsol.cli", *argv], cwd=workdir, env=env, capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    files, runs = corpus()
    differ = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, text in files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        for label, args in runs:
            a, b = (run(tree, workdir, args) for tree in argv)
            if a != b:
                differ += 1
                parts = [what for what, x, y in zip(("exit code", "stdout", "stderr"), a, b) if x != y]
                print(f"DIFFERS ({', '.join(parts)}; exit {a[0]} -> {b[0]}): torsol {label}")
    print(f"{len(runs)} invocations, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
