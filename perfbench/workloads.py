"""Seeded job lists, job execution and exactness checks for each workload.

A workload's job list is a sequence of rounds.  Every round holds the same
mix of job kinds in a fixed order; only the random data differ, and round
``i`` is drawn from ``random.Random(f"{seed}:{i}")``.  Any two seeds
therefore give different jobs with the same mix, and a run that stops
part way through a round has seen a predictable share of each kind.

torsol is imported lazily, inside ``setup``, so that set-up time covers
the import.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("geometric", "zp-counting", "cli-jobs")

MATRICES = {
    "SUM3": [[1, 1, -1]],
    "AP3": [[1, -2, 1]],
    "AP4": [[1, -2, 1, 0], [0, 1, -2, 1]],
    "R4": [[2, 3, -1, 5]],
    "AP5": [[1, -2, 1, 0, 0], [0, 1, -2, 1, 0], [0, 0, 1, -2, 1]],
    # column 3 is pinned to {0, 1/2}: the reproducer of the known
    # half-open defect (ROADMAP item 5)
    "PINNED": [[1, 1, 0], [0, 0, 2]],
}

# blocks per set; each job uses a random permutation, so the number of
# blocks varies between the sets of a job while the block product (which
# sets the geometric route's cost) is the same in every round
BLOCK_PATTERN = {"SUM3": (1, 2, 3), "AP3": (1, 2, 3), "AP4": (1, 2, 2, 3), "R4": (1, 2, 2, 3)}

# (matrix, p) per round.  R4 needs p > 11, its largest absolute row sum.
GEOMETRIC_MIX = tuple((m, p) for m in ("SUM3", "AP3", "AP4") for p in (5, 7, 11, 13)) + (("R4", 13),)
ZP_MIX = (("SUM3", 211), ("SUM3", 307), ("AP3", 211), ("AP3", 307), ("AP4", 101), ("R4", 37), ("R4", 53))
# fewer blocks on R4 keep its solution_measure check affordable
ZP_BLOCK_PATTERN = dict(BLOCK_PATTERN, R4=(1, 1, 1, 2))

# smallest admissible prime per matrix for the CLI jobs
CLI_P = {"SUM3": 5, "AP3": 5, "AP4": 5, "R4": 13}
CLI_DENSITY_P = (13, 17, 19)
CLI_TREND = "5,7,11,13"
CLI_SAMPLES = 20000
# verify on R4 needs p >= 13 and takes ~10 s per job, so it is left out
CLI_VERIFY = ("SUM3", "AP3", "AP4")


# A fixed stdlib loop of Fraction and int arithmetic.  The host is shared:
# its speed swings by up to 40% within seconds and drifts over minutes, and
# the same interference slows this loop and torsol alike.  Timing the loop
# between jobs gives the factor that scales each job to reference speed.
CALIBRATION_SOURCE = """
from fractions import Fraction
def loop():
    acc = Fraction(0)
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i % 11 + 3) * Fraction(i % 5 + 1, i % 13 + 2)
    total = 0
    for i in range(25000):
        total += i * i % 7
loop()
"""
CALIBRATION_CODE = compile(CALIBRATION_SOURCE, "calibration", "exec")
# seconds the loop takes in process, and as a fresh ``python -S`` process
# (start-up included), on an unloaded Intel Xeon host with Python 3.11
CALIBRATION_REF = 0.004
PROCESS_CALIBRATION_REF = 0.03


def calibrate() -> float:
    """Wall seconds of the calibration loop in this process."""
    start = time.perf_counter()
    exec(CALIBRATION_CODE, {})
    return time.perf_counter() - start


def calibrate_process() -> float:
    """Wall seconds of the calibration loop run as a fresh interpreter.

    CLI jobs are mostly process start-up, which host interference slows
    more than in-process arithmetic, so they are scaled by this probe.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", CALIBRATION_SOURCE], cwd=ROOT, check=True)
    return time.perf_counter() - start


@dataclass
class Job:
    """One closed-loop request: an in-process call or one CLI process."""

    kind: str
    matrix: str
    p: int | None = None
    sets: list | None = None
    argv: list[str] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.matrix}" + (f":p{self.p}" if self.p else "")


def grid_set(rng: random.Random, p: int, blocks: int):
    """A p-grid-aligned set of exactly ``blocks`` intervals, density ~U[0.3, 0.6]."""
    from torsol import IntervalUnion

    cells = min(max(blocks, round(rng.uniform(0.3, 0.6) * p)), p - blocks + 1)
    lengths = _composition(rng, cells, blocks, 1)
    gaps = _composition(rng, p - cells - (blocks - 1), blocks + 1, 0)
    x = gaps[0]
    pairs = []
    for i, length in enumerate(lengths):
        pairs.append((Fraction(x, p), Fraction(x + length, p)))
        x += length + 1 + gaps[i + 1]
    return IntervalUnion(pairs)


def _composition(rng: random.Random, total: int, parts: int, least: int) -> list[int]:
    spare = total - parts * least
    cuts = sorted(rng.randint(0, spare) for _ in range(parts - 1))
    edges = [0] + cuts + [spare]
    return [least + edges[i + 1] - edges[i] for i in range(parts)]


def random_sets(rng: random.Random, matrix: str, p: int, pattern=BLOCK_PATTERN):
    counts = list(pattern[matrix])
    rng.shuffle(counts)
    return [grid_set(rng, p, k) for k in counts]


def make_round(workload: str, seed: int, index: int, files: Path | None = None) -> list[Job]:
    rng = random.Random(f"{seed}:{index}")
    if workload == "geometric":
        return [Job("geometric", m, p, random_sets(rng, m, p)) for m, p in GEOMETRIC_MIX]
    if workload == "zp-counting":
        return [Job("zp", m, p, random_sets(rng, m, p, ZP_BLOCK_PATTERN)) for m, p in ZP_MIX]
    return _cli_round(rng, index, files)


def _cli_round(rng: random.Random, index: int, files: Path) -> list[Job]:
    from torsol import sets_to_json

    jobs = []
    for m, p in CLI_P.items():
        sets = random_sets(rng, m, p)
        path = files / f"sets-{index}-{m}.json"
        path.write_text(json.dumps(sets_to_json(sets)))
        mat = ["--matrix", str(files / f"{m}.json")]
        with_sets = mat + ["--sets", str(path)]
        q = rng.choice(CLI_DENSITY_P)
        jobs += [
            Job("measure", m, None, sets, ["measure", *with_sets]),
            Job("decompose", m, p, sets, ["decompose", *with_sets, "--p", str(p)]),
            Job("check-free", m, p, sets, ["check-free", *with_sets, "--p", str(p)]),
            Job("remove", m, p, sets, ["remove", *with_sets, "--p", str(p)]),
            Job("density", m, q, None, ["density", *mat, "--p", str(q)]),
            Job("trend", m, None, None, ["density", *mat, "--trend", CLI_TREND]),
        ]
    for m in CLI_VERIFY:
        s = rng.randrange(1 << 30)
        jobs.append(Job("verify", m, 5, None, ["verify", "--matrix", str(files / f"{m}.json"), "--p", "5", "--seed", str(s)]))
    sets = random_sets(rng, "AP4", 5)
    path = files / f"sets-{index}-sample.json"
    path.write_text(json.dumps(sets_to_json(sets)))
    s = rng.randrange(1 << 30)
    jobs.append(Job("sample", "AP4", None, sets, ["sample", "--matrix", str(files / "AP4.json"), "--sets", str(path), "--samples", str(CLI_SAMPLES), "--seed", str(s)]))
    jobs.append(Job("kernel", "AP5", None, None, ["kernel", "--matrix", str(files / "AP5.json")]))
    return jobs


def defect_cases() -> list[tuple[str, list, Fraction]]:
    """The ROADMAP item 5 reproducer: (name, sets, true half-open measure)."""
    from torsol import IntervalUnion

    full = IntervalUnion.full()
    return [
        (name, [full, full, IntervalUnion([(a, Fraction(1, 2))])], truth)
        for name, a, truth in (("half", Fraction(0), Fraction(1, 2)), ("quarter", Fraction(1, 4), Fraction(0)))
    ]


class Workload:
    """Set-up state of one workload: matrices, job list, scratch files."""

    def __init__(self, name: str, seed: int, rounds: int):
        self.name = name
        self.files = None
        if name == "cli-jobs":
            OUT.mkdir(exist_ok=True)
            self.files = OUT / f"cli-{os.getpid()}-{time.monotonic_ns()}"
            self.files.mkdir()
        self.matrices = self._matrices()
        if name != "cli-jobs":
            self._warm_caches()
        self.rounds = [make_round(name, seed, i, self.files) for i in range(rounds)]

    def _matrices(self) -> dict:
        from torsol import IntMatrix, matrix_to_json

        mats = {k: IntMatrix(v) for k, v in MATRICES.items()}
        if self.files is not None:
            for k, mat in mats.items():
                (self.files / f"{k}.json").write_text(json.dumps(matrix_to_json(mat)))
        return mats

    def _warm_caches(self) -> None:
        from torsol import analyze_matrix, enumerate_components

        used = {m for m, _ in (GEOMETRIC_MIX if self.name == "geometric" else ZP_MIX)}
        for m in sorted(used):
            analyze_matrix(self.matrices[m])
            enumerate_components(self.matrices[m])

    def cycle_rounds(self):
        """The fixed job list by rounds, repeated from the start when exhausted."""
        while True:
            yield from self.rounds

    def close(self) -> None:
        if self.files is not None:
            for path in self.files.iterdir():
                path.unlink()
            self.files.rmdir()


def setup(name: str, seed: int, rounds: int) -> tuple[Workload, float]:
    """Import torsol, generate the job list and warm caches.

    Returns the workload and the set-up seconds at reference speed.
    """
    before = calibrate()
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import torsol  # noqa: F401  (the import is part of set-up)

    workload = Workload(name, seed, rounds)
    seconds = time.perf_counter() - start
    return workload, seconds * CALIBRATION_REF / ((before + calibrate()) / 2)


# ---------------------------------------------------------------- running


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# a child still running after this many seconds is killed (its job fails)
CHILD_TIMEOUT = 60


def run_child(argv: list[str], log) -> tuple[int, str, float, int]:
    """Run one child process to completion: (exit code, stdout, wall s, peak RSS KiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log, text=True)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss


def run_inprocess(workload: Workload, job: Job):
    import torsol

    mat = workload.matrices[job.matrix]
    if job.kind == "geometric":
        return torsol.solution_measure(mat, job.sets).value
    return torsol.decompose(mat, job.p, job.sets)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "torsol.cli", *args]


# ---------------------------------------------------------------- checks


class Checker:
    """Exactness checks; each returns None or a one-line failure reason.

    Reference answers come from in-process library calls and are memoised
    per distinct input, since identical jobs recur when the list repeats.
    """

    def __init__(self, workload: Workload):
        import torsol

        self.lib = torsol
        self.workload = workload
        self._memo: dict = {}

    def _ref(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _mat(self, job):
        return self.workload.matrices[job.matrix]

    def _quiet(self, fn, *args):
        """Call ``fn`` with the invariant-system density warning silenced."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return fn(*args)

    def _exact(self, job) -> Fraction:
        return self._ref(("geo", id(job.sets)), lambda: self.lib.solution_measure(self._mat(job), job.sets).value)

    def _decomposition(self, job) -> Fraction:
        """``decompose(L, p, sets).value``, reusing one shift cover per (L, p)."""
        lib, mat = self.lib, self._mat(job)
        cover = self._ref(("cover", job.matrix, job.p), lambda: lib.shift_cover(lib.enumerate_components(mat), job.p))
        discrete = [s.to_discrete(job.p) for s in job.sets]
        return sum((sh.lam * lib.solution_density(mat, job.p, discrete, shifts=sh.j) for sh in cover), Fraction(0))

    def check(self, job: Job, output) -> str | None:
        if job.kind == "geometric":
            if not (0 <= output <= 1):
                return f"measure {output} outside [0, 1]"
            ref = self._decomposition(job)
            return None if output == ref else f"geometric {output} != decompose {ref}"
        if job.kind == "zp":
            weights = sum((lam for _j, lam, _s in output.per_shift), Fraction(0))
            if weights != 1:
                return f"shift weights sum to {weights}, not 1"
            ref = self._exact(job)
            return None if output.value == ref else f"decompose {output.value} != geometric {ref}"
        return self._cli(job, output)

    def _cli(self, job, output) -> str | None:
        code, stdout = output
        if code != 0:
            return f"exit code {code}, expected 0"
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        if report.get("command") != job.argv[0]:
            return f"report for command {report.get('command')!r}"
        return getattr(self, "_cli_" + job.kind.replace("-", "_"))(job, report)

    def _cli_measure(self, job, report):
        return _same(Fraction(report["value"]), self._exact(job))

    def _cli_decompose(self, job, report):
        ref = self._ref(("dec", id(job.sets)), lambda: self.lib.decompose(self._mat(job), job.p, job.sets))
        if [Fraction(s["lambda"]) for s in report["per_shift"]] != [lam for _j, lam, _s in ref.per_shift]:
            return "per-shift weights differ from the library"
        return _same(Fraction(report["value"]), ref.value)

    def _cli_check_free(self, job, report):
        boxes, _w = self._ref(("free", id(job.sets)), lambda: self.lib.find_violating_boxes(self._mat(job), job.p, job.sets))
        got = [(tuple(b["j"]), Fraction(b["lambda"])) for b in report["violating_boxes"]]
        if got != [(tuple(j), lam) for j, lam in boxes] or report["free"] != (not boxes):
            return f"violating boxes differ from the library ({report['count']} vs {len(boxes)})"
        if report["free"] != (self._exact(job) == 0):
            return "free flag disagrees with the exact measure"
        return None

    def _cli_remove(self, job, report):
        if report["verified_free"] is not True:
            return "remove did not report verified_free"
        removed = self.lib.sets_from_json(report["removed"])
        if any(r.intersect(s) != r for r, s in zip(removed, job.sets)):
            return "removed cells are not a subset of the input sets"
        return None

    def _cli_density(self, job, report):
        ref = self._ref(("dens", job.matrix, job.p), lambda: self._quiet(self.lib.density_search, self._mat(job), job.p)[0])
        return _same(Fraction(report["density"]), ref)

    def _cli_trend(self, job, report):
        ps = [int(v) for v in CLI_TREND.split(",")]
        rows = self._ref(("trend", job.matrix), lambda: self._quiet(self.lib.density_trend, self._mat(job), ps))
        ref = [f"{num}/{den}" if den != 1 else str(num) for _p, num, den, _d in rows]
        got = [row["density"] for row in report["trend"]]
        return None if got == ref else f"trend {got} != library {ref}"

    def _cli_verify(self, job, report):
        if report["all_pass"] is not True:
            failed = [p["name"] for p in report["properties"] if not p["pass"]]
            return f"verify failed: {failed}"
        return None

    def _cli_sample(self, job, report):
        exact = self._exact(job)
        n = report["n_samples"]
        if n != CLI_SAMPLES:
            return f"{n} samples, expected {CLI_SAMPLES}"
        se = math.sqrt(float(exact) * (1 - float(exact)) / n)
        if abs(report["estimate"] - float(exact)) > 4 * se:
            return f"estimate {report['estimate']} more than 4 SE from {exact}"
        return None

    def _cli_kernel(self, job, report):
        decomp = self._ref(("kernel", job.matrix), lambda: self.lib.enumerate_components(self._mat(job)))
        if Fraction(report["total_volume"]) != decomp.total_volume_param:
            return "total volume differs from the library"
        if [Fraction(v) for v in report["volumes"]] != [c.volume_param for c in decomp.components]:
            return "component volumes differ from the library"
        smith = math.prod(self.lib.analyze_matrix(self._mat(job)).smith_invariants)
        return None if decomp.total_volume_param == smith else "total volume != Smith product"


def _same(got: Fraction, ref: Fraction) -> str | None:
    return None if got == ref else f"{got} != library {ref}"
