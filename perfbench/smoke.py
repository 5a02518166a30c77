"""Smoke test of the benchmark harness itself (about two minutes).

    python3 perfbench/smoke.py

1. Every workload runs for one second, untraced and traced; the result
   line has exactly the contract keys, is correct, and carries every
   metric BENCHMARK.json names for that mode, with its unit.
2. The exactness checks accept the program's real answers and reject a
   corrupted copy of each kind of answer.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Exits 0 when all pass; prints each failure otherwise.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
FAILURES: list[str] = []
CHECKED = [0]


def expect(ok: bool, what: str) -> None:
    CHECKED[0] += 1
    if not ok:
        print("FAIL " + what)
        FAILURES.append(what)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / SPEC["command"][1]), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result_lines() -> None:
    for w in (x["name"] for x in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(HERE.parent, w, trace)
            what = f"{w} --trace {trace}"
            expect(proc.returncode == 0, f"{what}: exit code {proc.returncode}")
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: last stdout line is a JSON object")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: correct, attempted {result['attempted']}")
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{what}: metric names and units match BENCHMARK.json {section}")
            numbers = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            expect(numbers, f"{what}: every metric value is a number")


def _corrupt_cli(job, code, stdout) -> list[tuple[str, int, str]]:
    """Wrong variants of one CLI answer: exit code, non-JSON, and a wrong field."""
    out = [("exit code 3", 3, stdout), ("non-JSON stdout", 0, "Traceback (most recent call last)")]
    if job.kind == "trend":
        report = json.loads(stdout)
        report["trend"][0]["density"] = "1/997"
        return out + [("trend value", 0, json.dumps(report))]
    report = json.loads(stdout)
    bad = copy.deepcopy(report)
    if job.kind in ("measure", "decompose"):
        bad["value"] = str(Fraction(report["value"]) + Fraction(1, 997))
    elif job.kind == "check-free":
        bad["free"] = not report["free"]
    elif job.kind == "remove":
        bad["verified_free"] = False
    elif job.kind == "density":
        bad["density"] = str(Fraction(report["density"]) + Fraction(1, report["p"]))
    elif job.kind == "verify":
        bad["all_pass"] = False
        bad["properties"][0]["pass"] = False
    elif job.kind == "sample":
        bad["estimate"] = report["estimate"] + 0.1
    elif job.kind == "kernel":
        bad["total_volume"] = str(Fraction(report["total_volume"]) + 1)
    return out + [(f"{job.kind} field", 0, json.dumps(bad))]


def check_checkers() -> None:
    for name in workloads.WORKLOADS:
        wl, _ = workloads.setup(name, 7, 1)
        try:
            checker = workloads.Checker(wl)
            for job in wl.rounds[0]:
                if name == "cli-jobs":
                    code, stdout, _, _ = workloads.run_child(workloads.cli_argv(job.argv), subprocess.DEVNULL)
                    expect(checker.check(job, (code, stdout)) is None, f"{job.label}: real answer accepted")
                    for what, bad_code, bad_out in _corrupt_cli(job, code, stdout):
                        expect(checker.check(job, (bad_code, bad_out)) is not None, f"{job.label}: corrupted {what} rejected")
                    continue
                output = workloads.run_inprocess(wl, job)
                expect(checker.check(job, output) is None, f"{job.label}: real answer accepted")
                if name == "geometric":
                    expect(checker.check(job, output + Fraction(1, 997)) is not None, f"{job.label}: corrupted value rejected")
                    expect(checker.check(job, Fraction(3, 2)) is not None, f"{job.label}: value above 1 rejected")
                else:
                    shifted = replace(output, value=output.value + Fraction(1, 997))
                    expect(checker.check(job, shifted) is not None, f"{job.label}: corrupted value rejected")
                    (j, lam, s), *rest = output.per_shift
                    heavy = replace(output, per_shift=((j, lam + Fraction(1, 997), s), *rest))
                    expect(checker.check(job, heavy) is not None, f"{job.label}: weights not summing to 1 rejected")
        finally:
            wl.close()


def check_without_sources() -> None:
    workloads.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=workloads.OUT))
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench(bare, SPEC["workloads"][0]["name"], 0)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and '"correct"' not in last[0], f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    check_result_lines()
    check_checkers()
    check_without_sources()
    print(f"{CHECKED[0]} checks, {len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
