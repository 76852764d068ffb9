"""Command-line interface: identity suites, Monte Carlo spectra, exponents.

Exit code 0 means every suite run by the invocation passed; 2 means a usage
error, such as a trial count below 1 or model a at n != 2.  With --json,
stdout is exactly one JSON document.  With --out, every file the command
writes is recorded with its SHA-256 digest in one manifest,
<out>.manifest.json.  JSON writes a non-finite number as null.  Outputs are
byte-identical for identical (command, seed) regardless of the thread count.
sample-spectrum and simulate-path run on every usable CPU for n >= 3 when
the BLAS can be held to one thread, else on one (taskset -c 0 gives a
one-thread run), and record the count in config.threads and --json.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys

from . import __version__, algebra, errors
from .calculus import DiffusionModel, ExponentProblem, invariant_exponent, solve_multiplicity
from .errors import InsufficientData, InvalidConfig
from .matrices import check_dim2_identities, check_logdet_derivatives, dim3_counterexample
from .reporting import file_digest, json_text, write_spectrum_csv, write_stats_json
from .simulate import EulerPath, SimulationConfig, gap_statistics, sample_spectra, thread_count
from .verify import check_closed_forms, check_inverse_roundtrip, check_trace_identities


def _positive_int(text: str) -> int:
    """argparse type of a case count: below 1, a suite would pass vacuously."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _command(sub, name: str, func, summary: str, out: bool = True,
             model: bool = False) -> argparse.ArgumentParser:
    """A subcommand running ``func``, with the options its kind of command shares."""
    p = sub.add_parser(name, help=summary)
    p.set_defaults(func=func)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    p.add_argument("--json", action="store_true", help="emit a JSON report to stdout")
    if out:
        p.add_argument("--out", type=str, default=None, help="output file path")
    if model:
        p.add_argument("--model", choices=("a", "b"), required=True)
        p.add_argument("--n", type=int, default=2,
                       help="matrix dimension (default 2, the only one of model a)")
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="octodyson", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "verify-algebra", cmd_verify_algebra,
                 "exhaustive basis-level identity suites")
    p.add_argument("--trials", type=_positive_int, default=10_000,
                   help="random real triples for the Moufang suite")
    p.add_argument("--norm-pairs", type=_positive_int, default=100_000,
                   help="random pairs for norm multiplicativity")
    p.add_argument("--tamper", action="store_true",
                   help="negative control: flip one sign-table cell first")

    p = _command(sub, "verify-identities", cmd_verify_identities,
                 "closed-form / trace / inverse residual suites", model=True)
    p.add_argument("--trials", type=_positive_int, default=100)

    p = _command(sub, "sample-spectrum", cmd_sample_spectrum,
                 "Monte Carlo spectra: CSV + statistics JSON", model=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--cluster-tol", type=float, default=1e-6)

    p = _command(sub, "simulate-path", cmd_simulate_path,
                 "Euler trajectories with per-step spectra", model=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--cluster-tol", type=float, default=1e-6)

    p = _command(sub, "solve-exponents", cmd_solve_exponents,
                 "multiplicity quadratic and invariant-density exponent", out=False)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--alpha3", type=float, required=True)

    p = _command(sub, "check-dim2", cmd_check_dim2,
                 "dimension-2 trace identities and the 3x3 obstruction")
    p.add_argument("--trials", type=_positive_int, default=1000)
    return parser


def _finish(args, payload: dict, lines: list[str], writers=(), ok: bool = True) -> int:
    """The one way a command ends: print ``payload`` as JSON under --json, else
    ``lines``; under --out, call each ``(suffix, write)`` pair on ``args.out +
    suffix`` and record every file it wrote in the manifest.  Returns the exit
    code, 0 when ``ok``."""
    if args.json:
        print(json_text(payload))
    else:
        for line in lines:
            print(line)
    if getattr(args, "out", None):
        outputs = {}
        for suffix, write in writers:
            path = args.out + suffix
            write(path)
            outputs[path] = file_digest(path)
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command", "argv") and v is not None}
        write_stats_json(args.out + ".manifest.json", {
            "command": args.argv, "config": config, "seed": args.seed,
            "version": __version__, "outputs": outputs,
        })
    return 0 if ok else 1


def _finish_suites(args, reports, ok: bool = True, **extra) -> int:
    """End a suite command: its reports, their totals and ``extra``, written as
    one JSON report under --out; it fails when any case failed or not ``ok``."""
    failures = sum(r.failures for r in reports)
    payload = {
        "reports": [r.to_dict() for r in reports],
        "cases": sum(r.cases for r in reports),
        "failures": failures,
        "passed": failures == 0,
        **extra,
    }
    lines = [r.summary() for r in reports] + [f"{k}: {v}" for k, v in extra.items()]
    lines.append(f"total: cases={payload['cases']} failures={failures} "
                 f"{'PASS' if failures == 0 else 'FAIL'}")
    return _finish(args, payload, lines, [("", lambda path: write_stats_json(path, payload))],
                   ok=ok and failures == 0)


def cmd_verify_algebra(args) -> int:
    table = algebra.tampered_table() if args.tamper else None
    reports = [
        algebra.check_table_structure(table),
        algebra.check_sign_identities(table=table),
        algebra.check_moufang(trials=args.trials, seed=args.seed, table=table),
        algebra.check_norm_multiplicativity(pairs=args.norm_pairs, seed=args.seed + 1,
                                            table=table),
        algebra.check_orthogonal_translates(seed=args.seed + 2, table=table),
        algebra.check_imaginary_sum_square(table),
    ]
    witness = algebra.nonassociativity_witness(table)
    names = None if witness is None else [algebra.label_name(x) for x in witness]
    return _finish_suites(args, reports, nonassociativity_witness=names)


def cmd_verify_identities(args) -> int:
    model = DiffusionModel(args.model, args.n)
    reports = [
        check_closed_forms(model, trials=args.trials, seed=args.seed),
        check_trace_identities(args.model, args.n, trials=min(args.trials, 50),
                               seed=args.seed + 1),
        check_inverse_roundtrip(args.model, args.n, trials=args.trials, seed=args.seed + 2),
        check_logdet_derivatives(count=min(args.trials, 100), seed=args.seed + 3),
    ]
    if args.model == "a":
        reports.append(check_dim2_identities(trials=args.trials, seed=args.seed + 4))
    return _finish_suites(args, reports)


def cmd_sample_spectrum(args) -> int:
    cfg = SimulationConfig(kind=args.model, n=args.n, t=args.t, samples=args.samples,
                           seed=args.seed, cluster_tol=args.cluster_tol)
    args.threads = thread_count(cfg.n)
    spectra = sample_spectra(cfg)
    clean = sum(s.multiplicities == (8,) * cfg.n for s in spectra)
    lines = [f"samples: {len(spectra)}; with {cfg.n} clusters of multiplicity 8: {clean}"]
    writers = [("", lambda path: write_spectrum_csv(path, spectra, cfg.kind, cfg.n, cfg.t))]
    stats = None
    if cfg.n != 2:
        lines.append("statistics skipped: gap statistics are defined for n = 2")
    else:
        try:
            gaps = gap_statistics(spectra)
        except InsufficientData as exc:
            lines.append(f"statistics skipped: {exc}")
        else:
            stats = {
                "model": cfg.kind, "n": cfg.n, "t": cfg.t, "samples": cfg.samples,
                "moment2": gaps.moment2, "moment4": gaps.moment4,
                "ratio": gaps.ratio, "implied_beta": gaps.implied_beta,
                "stderr": gaps.stderr, "seed": cfg.seed,
            }
            lines.append(f"gap moment ratio: {gaps.ratio:.6f}  "
                         f"implied beta: {gaps.implied_beta:.4f} +- {gaps.stderr:.4f}")
            writers.append((".stats.json", lambda path: write_stats_json(path, stats)))
    return _finish(args, {"samples": len(spectra), "clean": clean, "stats": stats,
                          "threads": args.threads}, lines, writers, ok=clean == len(spectra))


def cmd_simulate_path(args) -> int:
    cfg = SimulationConfig(kind=args.model, n=args.n, t=args.t, samples=args.paths,
                           seed=args.seed, steps=args.steps, cluster_tol=args.cluster_tol)
    args.threads = thread_count(cfg.n)
    samples = sample_spectra(cfg)
    paths = [EulerPath.from_samples(samples[lo:lo + cfg.steps], cfg.n)
             for lo in range(0, len(samples), cfg.steps)]
    crossings = sum(path.crossing_detected for path in paths)
    broken = sum(s.multiplicities != (8,) * cfg.n for s in samples)
    summary = {
        "paths": cfg.samples, "steps": cfg.steps, "crossings": crossings,
        "steps_with_broken_clusters": broken,
        "min_gap": min(float("inf"), *(path.min_gap for path in paths)),
    }
    ids = list(itertools.product(range(cfg.samples), range(cfg.steps)))
    return _finish(args, {**summary, "threads": args.threads},
                   [f"{k}: {v}" for k, v in summary.items()], [
        ("", lambda path: write_spectrum_csv(path, samples, cfg.kind, cfg.n, cfg.t,
                                             ("path_id", "step"), ids)),
    ], ok=crossings == 0 and broken == 0)


def cmd_solve_exponents(args) -> int:
    problem = ExponentProblem(args.alpha1, args.alpha2, args.alpha3)
    try:
        result = solve_multiplicity(problem)
        kappa = invariant_exponent(problem, result.a)
    except errors.Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = {
        "roots": list(result.roots),
        "a": result.a,
        "is_positive_integer": result.is_positive_integer,
        "quadratic_residual": result.residual,
        "kappa": kappa,
        "beta": 2.0 * kappa,
    }
    multiplicity = ("positive integer: eigenvalue multiplicity" if result.is_positive_integer
                    else "not a positive integer")
    return _finish(args, payload, [
        f"roots: {result.roots[0]:g}, {result.roots[1]:g}",
        f"a = {result.a:g} ({multiplicity})",
        f"kappa = {kappa:g} (power of the squared Vandermonde)",
        f"beta = {2 * kappa:g} (gap exponent)",
    ])


def cmd_check_dim2(args) -> int:
    report = check_dim2_identities(trials=args.trials, seed=args.seed)
    residual = dim3_counterexample()
    detected = residual > 0.1
    return _finish_suites(args, [report], ok=detected, dim3_counterexample_residual=residual,
                          dim3_obstruction_detected=detected)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")
    try:
        return args.func(args)
    except InvalidConfig as exc:
        parser.error(str(exc))
