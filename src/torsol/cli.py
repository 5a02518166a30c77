"""Command-line interface.

Reads matrices and set lists from JSON files, dispatches to the pipeline
and prints one JSON report (or CSV for density trend tables) on standard
output.  Exact rationals are serialized as "n/d" strings; decimals appear
alongside for convenience only.  Every run echoes its fully resolved job
parameters, and output is byte-identical for identical (spec, seed,
workers).

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 failed
precondition, 4 property failure in verify.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import warnings
from fractions import Fraction

from .errors import InvalidInputError, PreconditionError, TorsolError
from .intmat import IntMatrix, analyze_matrix, matrix_from_json
from .kernel_geometry import central_section_check, enumerate_components, product_measure, shift_cover, weight
from .measures import decompose, monte_carlo_estimate, solution_measure
from .rationals import format_rational, int_from_json
from .records import Record
from .removal_lab import density_search, density_trend, find_violating_boxes, greedy_removal
from .discrete import kernel_element, parametrize_kernel
from .torus_sets import DiscreteSet, IntervalUnion, require_grid, sets_from_json, sets_to_json

__all__ = ["JobSpec", "run", "main"]

class UsageError(Exception):
    pass


class JobSpec(Record):
    """The resolved parameters of one CLI job; unlike the other records it stays mutable and unhashable."""

    __slots__ = ("command", "matrix_path", "sets_path", "p", "samples", "seed", "workers", "format", "mode", "trend")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    _defaults = dict(
        matrix_path=None, sets_path=None, p=None, samples=100000, seed=0, workers=1,
        format="json", mode="exhaustive", trend=None,
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_option(text: str) -> int:
    """An integer option in the file formats' ASCII "-?[0-9]+" form; anything else is a usage error."""
    try:
        return int_from_json(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="torsol", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument(
            "--matrix", dest="matrix_path", metavar="MATRIX", required=True, help="path to matrix JSON"
        )
        if name in ("measure", "decompose", "sample", "check-free", "remove"):
            p.add_argument(
                "--sets", dest="sets_path", metavar="SETS", required=True, help="path to sets JSON"
            )
        if name in ("weights", "decompose", "check-free", "remove", "verify"):
            p.add_argument("--p", type=_int_option, required=True)
        if name == "density":
            p.add_argument("--p", type=_int_option)
            p.add_argument("--mode", choices=("exhaustive", "local"), default="exhaustive")
            p.add_argument("--trend", help="comma-separated moduli for a trend table")
        if name == "sample":
            p.add_argument("--samples", type=_int_option, default=100000)
        if name in ("sample", "density", "verify"):
            p.add_argument("--seed", type=_int_option, default=0)
        if name == "sample":
            p.add_argument("--workers", type=_int_option, default=1)
        p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}")


def _spec_echo(spec: JobSpec) -> dict:
    pairs = ((name, getattr(spec, name)) for name in spec._fields)
    return {k: v for k, v in pairs if v is not None}


def _frac(x: Fraction) -> dict:
    return {"value": format_rational(x), "decimal": float(x)}


def _cmd_profile(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    prof = analyze_matrix(mat)
    return {
        "rank": prof.rank,
        "kernel_basis": [list(row) for row in prof.kernel_basis],
        "smith_invariants": list(prof.smith_invariants),
        "is_invariant": prof.is_invariant,
        "degenerate_columns": [
            {"column": dc.column, "witness": list(dc.witness), "multiplier": dc.multiplier}
            for dc in prof.degenerate_columns
        ],
    }


def _cmd_kernel(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    decomp = enumerate_components(mat)
    return {
        "levels": [list(c.level) for c in decomp.components],
        "representatives": [
            [format_rational(v) for v in c.representative] for c in decomp.components
        ],
        "volumes": [format_rational(c.volume_param) for c in decomp.components],
        "flat": [c.is_flat for c in decomp.components],
        "total_volume": format_rational(decomp.total_volume_param),
        "c": format_rational(decomp.c_param),
    }


def _cmd_weights(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    decomp = enumerate_components(mat)
    cover = shift_cover(decomp, spec.p)
    return {
        "p": spec.p,
        "K": len(cover),
        "lambdas": [format_rational(sh.lam) for sh in cover],
        "shifts": [
            {"j": list(sh.j), "lambda": format_rational(sh.lam), "level": list(sh.level)}
            for sh in cover
        ],
    }


def _cmd_measure(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    rep = solution_measure(mat, sets)
    return {"route": rep.route, **_frac(rep.value)}


def _cmd_decompose(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    rep = decompose(mat, spec.p, sets)
    return {
        "route": rep.route,
        "p": rep.p_used,
        **_frac(rep.value),
        "per_shift": [
            {"j": list(j), "lambda": format_rational(lam), "s": format_rational(s)}
            for j, lam, s in rep.per_shift
        ],
    }


def _cmd_sample(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    rep = monte_carlo_estimate(mat, sets, spec.samples, spec.seed, spec.workers)
    return {
        "route": rep.route,
        "estimate": rep.value,
        "ci99": rep.ci99,
        "n_samples": rep.n_samples,
        "seed": rep.seed,
        "workers": rep.workers,
    }


def _cmd_check_free(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    boxes, witness = find_violating_boxes(mat, spec.p, sets)
    return {
        "p": spec.p,
        "free": not boxes,
        "count": len(boxes),
        "violating_boxes": [
            {"j": list(j), "lambda": format_rational(lam)} for j, lam in boxes
        ],
        "witness": [format_rational(v) for v in witness] if witness else None,
    }


def _cmd_remove(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    outcome = greedy_removal(mat, spec.p, sets)
    return {
        "p": spec.p,
        "removed": sets_to_json(outcome.removed),
        "removed_measures": [format_rational(v) for v in outcome.removed_measures],
        "verified_free": outcome.verified_free,
        "iterations": outcome.iterations,
    }


def _cmd_density(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None):
    if spec.trend:
        entries = spec.trend.split(",")
        if not any(entries):
            raise UsageError(f"--trend {spec.trend!r} names no modulus")
        moduli = [int_from_json(v) for v in entries]  # an empty entry beside a modulus is malformed
        rows = density_trend(mat, moduli)
        if spec.format == "csv":
            lines = ["p,density_num,density_den,decimal"]
            lines += [f"{p},{num},{den},{dec}" for p, num, den, dec in rows]
            return "\n".join(lines) + "\n"
        return {
            "trend": [
                {"p": p, "density": f"{num}/{den}" if den != 1 else str(num), "decimal": dec}
                for p, num, den, dec in rows
            ]
        }
    if spec.p is None:
        raise UsageError("density needs --p or --trend")
    dens, best = density_search(mat, spec.p, mode=spec.mode, seed=spec.seed)
    return {
        "p": spec.p,
        "mode": spec.mode,
        "density": format_rational(dens),
        "decimal": float(dens),
        "set": best.indices(),
    }


def _random_aligned_sets(mat: IntMatrix, p: int, rng: random.Random) -> list[IntervalUnion]:
    require_grid(p)
    sets = []
    for _ in range(mat.cols):
        members = [rng.random() < 0.45 for _ in range(p)]
        sets.append(DiscreteSet(p, members).to_interval_union())
    return sets


def _cmd_verify(spec: JobSpec, mat: IntMatrix, sets: list[IntervalUnion] | None) -> dict:
    p = spec.p
    rng = random.Random(spec.seed)
    prof = analyze_matrix(mat)
    decomp = enumerate_components(mat)
    results = []

    expected = math.prod(prof.smith_invariants)
    results.append(("component_count_matches_smith", decomp.total_volume_param == expected))

    cover = shift_cover(decomp, p)
    results.append(("weights_sum_to_one", sum(sh.lam for sh in cover) == 1))
    results.append(("weights_positive", all(sh.lam > 0 for sh in cover)))

    results.append(("central_section_bound", central_section_check(mat).passes))

    param = parametrize_kernel(mat, p)
    d = len(param.free_columns)
    constant = True
    for sh in cover:
        for _ in range(min(20, p**d)):
            # the free tuple at a uniform index of their lexicographic order
            index = rng.randrange(p**d)
            k = kernel_element(param, mat.cols, [index // p**i % p for i in reversed(range(d))])
            j = tuple((a + b) % p for a, b in zip(sh.j, k))
            if weight(decomp, j, p) != sh.lam:
                constant = False
    results.append(("weight_constant_on_cosets", constant))

    agree = True  # the walker against the counts, whichever route solution_measure would take
    for _ in range(5):
        sets = _random_aligned_sets(mat, p, rng)
        if product_measure(decomp, [s.intervals for s in sets]) != decompose(mat, p, sets).value:
            agree = False
    results.append(("route_agreement", agree))

    return {
        "p": p,
        "properties": [{"name": name, "pass": ok} for name, ok in results],
        "all_pass": all(ok for _, ok in results),
    }


_DISPATCH = {
    "profile": _cmd_profile,
    "kernel": _cmd_kernel,
    "weights": _cmd_weights,
    "measure": _cmd_measure,
    "decompose": _cmd_decompose,
    "sample": _cmd_sample,
    "check-free": _cmd_check_free,
    "remove": _cmd_remove,
    "density": _cmd_density,
    "verify": _cmd_verify,
}


def _plain_warning(message, category, filename, lineno, file=None, line=None):
    """warnings.showwarning for the CLI: the message alone, with no source path or line."""
    print(f"warning: {message}", file=sys.stderr)


def run(spec: JobSpec, out=None) -> int:
    """Execute a job and print its report; returns the exit code.

    The matrix file, and the sets file where the command takes one, are
    read here once and handed to the command; the library checks that
    there is one set per column.  A warning that the command raises goes
    to stderr as a plain "warning: ..." line when it is raised, under the
    caller's warning filters.
    """
    out = out or sys.stdout
    if spec.command not in _DISPATCH:
        raise UsageError(f"unknown command {spec.command!r}")
    if spec.format == "csv" and not (spec.command == "density" and spec.trend):
        raise UsageError("csv output is only available for density trend tables")
    if spec.command == "density" and spec.trend and spec.mode != "exhaustive":
        raise UsageError("density trend tables are exhaustive only; drop --mode")
    if spec.command == "density" and spec.trend and spec.p is not None:
        raise UsageError("density trend tables take their moduli from --trend; drop --p")
    mat = matrix_from_json(_load_json(spec.matrix_path))
    sets = None if spec.sets_path is None else sets_from_json(_load_json(spec.sets_path))
    with warnings.catch_warnings():
        warnings.showwarning = _plain_warning
        result = _DISPATCH[spec.command](spec, mat, sets)
    if isinstance(result, str):
        out.write(result)
    else:
        payload = {"command": spec.command, "spec": _spec_echo(spec)}
        payload.update(result)
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if spec.command == "verify" and not result["all_pass"]:
        return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command is None:
            raise UsageError("no command given")
        return run(JobSpec(**vars(ns)))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 3
    except TorsolError as exc:  # internal invariants and the like
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
