"""torsol benchmark: closed-loop workloads with exact answer checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  One caller sends the next job only after
the previous one finished.  Workloads (see BENCHMARK.json for why each
exists):

  geometric    in-process ``solution_measure`` on SUM3, AP3, AP4 (p = 5, 7,
               11, 13) and R4 (p = 13), 13 jobs per round
  zp-counting  in-process ``decompose`` on SUM3, AP3 (p = 211, 307), AP4
               (p = 101) and R4 (p = 37, 53), 7 jobs per round
  cli-jobs     one ``python -m torsol.cli`` process per job, cold caches,
               one round of 29 jobs, repeated

Jobs run in whole rounds; a run stops at the round boundary nearest to
S seconds.  ``--trace 0`` reports the end-to-end metrics: jobs_per_s (jobs
over the sum of their times), job_s_p50 and job_s_p90 (over the jobs of
the run; a job that ran more than once counts once, at its fastest; the
provenance line gives the sample count and how many lie beyond p90),
setup_s (median of three set-ups: this process and two fresh
interpreters; each covers import, job generation and lru_cache warm-up)
and peak_rss_mb (this process, or the largest CLI child for cli-jobs).

Job times are scaled to a reference speed: a fixed stdlib loop
(``workloads.CALIBRATION_SOURCE``) is timed between consecutive jobs, in
this process for in-process jobs and as a fresh interpreter for CLI jobs,
and each job's wall time is multiplied by the loop's reference time over
the median of the two loop times before and the two after it.  The shared
host's speed swings by up to 40% within seconds and drifts over minutes;
the scaling removes most of that from run-to-run comparisons.  The
unscaled figures are in the provenance line.

``--trace 1`` runs rounds untraced for S/2 seconds, then runs exactly
those rounds again with spans recorded around every public function
listed in ``tracing.TARGETS``, and reports per-layer metrics
``<module>.<function>.{calls,s,self_s}`` plus derived counters.  Spans
are written to ``perfbench/out/``.

Every answer is checked exactly after the timed phase (see
``workloads.Checker``); a job fails when it raises, exits with the wrong
code or fails its check.  The known pinned-column defect (ROADMAP item 5)
is re-checked on every run outside the timed job list and reported as
``known_defect.wrong``.

The second-last stdout line is a provenance record; the last line is the
result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent

# pre-generated rounds per workload; the list repeats if a run outlasts it.
# cli-jobs has one round, so each CLI job runs two or three times in a run
# and counts at its fastest: a CLI job lasts 0.1-2 s, short enough for one
# slow spell of the shared host to move it by 25% even after scaling.
ROUNDS = {"geometric": 60, "zp-counting": 40, "cli-jobs": 1}
SETUP_PROBES = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Record:
    __slots__ = ("job", "output", "error", "seconds", "raw_seconds", "rss_kib", "layers")

    def __init__(self, job, output, error, seconds, rss_kib=0, layers=None):
        self.job, self.output, self.error = job, output, error
        self.seconds = self.raw_seconds = seconds
        self.rss_kib, self.layers = rss_kib, layers


def run_rounds(wl, seconds=None, rounds=None, tracer=None, spans_out=None) -> list[Record]:
    """Closed loop over whole rounds of the job list.

    Stops after ``rounds`` rounds, or at the round boundary nearest to
    ``seconds`` of elapsed time.  The calibration loop runs between
    consecutive jobs; each job's time is scaled to reference speed by the
    median of the two calibrations before it and the two after it.
    """
    if wl.name == "cli-jobs":
        calibrate, reference = workloads.calibrate_process, workloads.PROCESS_CALIBRATION_REF
    else:
        calibrate, reference = workloads.calibrate, workloads.CALIBRATION_REF
    records = []
    calibrations = [calibrate()]
    start = time.perf_counter()
    for index, round_ in enumerate(wl.cycle_rounds()):
        if rounds is not None and index >= rounds:
            break
        elapsed = time.perf_counter() - start
        if seconds is not None and index and elapsed + elapsed / index / 2 >= seconds:
            break
        for job in round_:
            if wl.name == "cli-jobs":
                records.append(_run_cli(job, len(records), spans_out))
            else:
                if tracer is not None:
                    tracer.job = len(records)
                t0 = time.perf_counter()
                try:
                    output, error = workloads.run_inprocess(wl, job), None
                except Exception:  # a failing job is counted, the loop goes on
                    output, error = None, "raised " + traceback.format_exc(limit=3).strip().splitlines()[-1]
                records.append(Record(job, output, error, time.perf_counter() - t0))
            calibrations.append(calibrate())
    for k, rec in enumerate(records):
        window = calibrations[max(0, k - 1) : k + 3]
        rec.seconds = rec.raw_seconds * reference / statistics.median(window)
    return records


def _run_cli(job, index, spans_out):
    if spans_out is None:
        argv = workloads.cli_argv(job.argv)
    else:
        stats = spans_out.with_name(f"{spans_out.stem}.job{index}.json")
        argv = [sys.executable, str(HERE / "cli_child.py"), str(stats), *job.argv]
    with open(workloads.OUT / "cli-stderr.log", "a", encoding="utf-8") as log:
        code, stdout, wall, rss = workloads.run_child(argv, log)
    layers = None
    if spans_out is not None and stats.exists():
        data = json.loads(stats.read_text())
        stats.unlink()
        layers = data["aggregate"]
        layers["counts"]["cli.startup_s"] = wall - layers["stats"]["cli.run"]["s"]
        with open(spans_out, "a", encoding="utf-8") as fh:
            for name, start, end, parent, _ in data["spans"]:
                fh.write(json.dumps([name, start, end, parent, index]) + "\n")
    return Record(job, (code, stdout), None, wall, rss, layers)


def check_all(checker, records) -> int:
    failed = 0
    for rec in records:
        if rec.error is None:
            try:
                rec.error = checker.check(rec.job, rec.output)
            except Exception:  # a malformed answer fails its job
                rec.error = "check raised " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if rec.error is not None:
            failed += 1
            if failed <= 10:
                print(f"FAILED {rec.job.label} {rec.job.argv}: {rec.error}", file=sys.stderr)
    return failed


def known_defect(wl) -> int:
    """Run the pinned-column reproducer; returns how many answers are wrong."""
    import torsol

    wrong = 0
    for name, sets, truth in workloads.defect_cases():
        try:
            if wl.name == "cli-jobs":
                path = wl.files / f"defect-{name}.json"
                path.write_text(json.dumps(torsol.sets_to_json(sets)))
                argv = ["measure", "--matrix", str(wl.files / "PINNED.json"), "--sets", str(path)]
                code, stdout, _, _ = workloads.run_child(workloads.cli_argv(argv), subprocess.DEVNULL)
                value = Fraction(json.loads(stdout)["value"]) if code == 0 else None
            else:
                value = torsol.solution_measure(wl.matrices["PINNED"], sets).value
        except (torsol.TorsolError, ValueError, KeyError):
            value = None
        if value != truth:
            wrong += 1
            print(f"known defect (ROADMAP item 5): PINNED {name} gives {value}, truth {truth}", file=sys.stderr)
    return wrong


def setup_seconds(name, seed, own) -> float:
    samples = [own]
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(ROUNDS[name])]
        with open(workloads.OUT / "setup-stderr.log", "a", encoding="utf-8") as log:
            code, stdout, _, _ = workloads.run_child(argv, log)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        samples.append(float(stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def provenance(args, records, loadavg, facts) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "torsol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": loadavg,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "jobs": len(records),
        **facts,
    }


def _quantile(values, q):
    cut = statistics.quantiles(values, n=100, method="inclusive")
    return cut[q - 1]


def end_to_end(wl, records, setup_s) -> tuple[dict, dict]:
    """The end-to-end metrics, and run facts for the provenance record.

    A job that ran more than once counts once, at its fastest time.
    """
    fastest: dict[int, Record] = {}
    for rec in records:
        best = fastest.get(id(rec.job))
        if best is None or rec.seconds < best.seconds:
            fastest[id(rec.job)] = rec
    times = [r.seconds for r in fastest.values()]
    raw = [r.raw_seconds for r in fastest.values()]
    p90 = _quantile(times, 90)
    if wl.name == "cli-jobs":
        rss_kib = max(r.rss_kib for r in records)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_s_p50": (statistics.median(times), "s"),
        "job_s_p90": (p90, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
    }
    facts = {
        "rounds": len(records) // len(wl.rounds[0]),
        "distinct_jobs": len(times),
        "samples_beyond_p90": sum(t > p90 for t in times),
        "unscaled": {"jobs_per_s": len(raw) / sum(raw), "job_s_p50": statistics.median(raw), "job_s_p90": _quantile(raw, 90)},
    }
    return metrics, facts


def per_layer(agg, overhead, traced_wall, defect_wrong) -> dict:
    out = {}
    for name in tracing.NAMES:
        row = agg["stats"].get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (row["calls"], "count")
        out[f"{name}.s"] = (row["s"], "s")
        out[f"{name}.self_s"] = (row["self_s"], "s")
    counts = agg["counts"]
    volumes = agg["stats"]["polytope.volume"]["calls"]
    out["polytope.volume.full_dim_frac"] = (counts.get("polytope.volume.full_dim", 0) / volumes if volumes else 0.0, "frac")
    out["discrete.kernel_points"] = (counts.get("discrete.kernel_points", 0), "count")
    for name in tracing.CACHED:
        out[f"{name}.cache_hits"] = (counts.get(f"{name}.cache_hits", 0), "count")
    out["cli.startup_s"] = (counts.get("cli.startup_s", 0.0), "s")
    out["trace.overhead_frac"] = (overhead, "frac")
    out["trace.wall_s"] = (traced_wall, "s")
    out["known_defect.wrong"] = (defect_wrong, "count")
    return out


def traced_pass(wl, rounds, spans_out):
    if wl.name == "cli-jobs":
        records = run_rounds(wl, rounds=rounds, spans_out=spans_out)
        agg = {"stats": {}, "counts": {}}
        for rec in records:
            if rec.layers is not None:
                tracing.merge(agg, rec.layers)
        return records, agg
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = run_rounds(wl, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write_spans(spans_out)
    return records, tracer.aggregate()


def main(argv=None) -> int:
    args = _parse(argv)
    loadavg = list(os.getloadavg())
    if not (workloads.SRC / "torsol" / "__init__.py").is_file():
        print(f"torsol sources not found under {workloads.SRC}; run from a source checkout", file=sys.stderr)
        return 2
    workloads.OUT.mkdir(exist_ok=True)
    for log in ("cli-stderr.log", "setup-stderr.log"):
        (workloads.OUT / log).unlink(missing_ok=True)
    wl, own_setup = workloads.setup(args.workload, args.seed, ROUNDS[args.workload])
    try:
        checker = workloads.Checker(wl)
        if args.trace:
            spans_out = workloads.OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
            spans_out.unlink(missing_ok=True)
            plain = run_rounds(wl, seconds=args.seconds / 2)
            rounds = len(plain) // len(wl.rounds[0])
            traced, agg = traced_pass(wl, rounds, spans_out)
            records = plain + traced
            overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1
            traced_wall = sum(r.raw_seconds for r in traced)  # the spans' clock
            metrics = per_layer(agg, overhead, traced_wall, known_defect(wl))
            facts = {"rounds": rounds}
        else:
            records = run_rounds(wl, seconds=args.seconds)
            metrics, facts = end_to_end(wl, records, setup_seconds(args.workload, args.seed, own_setup))
            known_defect(wl)
        failed = check_all(checker, records)
    finally:
        wl.close()
    prov = provenance(args, records, loadavg, facts)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    jobs = [[r.job.label, r.seconds, r.error] for r in records]
    (workloads.OUT / name).write_text(json.dumps({"provenance": prov, **result, "jobs": jobs}, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
