"""Command-line interface.

Subcommands::

    verify-algebra     exhaustive basis-level identity suites
    verify-identities  closed-form / trace / inverse residual suites
    sample-spectrum    Monte Carlo spectra: CSV + statistics JSON
    simulate-path      Euler trajectories with per-step spectra
    solve-exponents    multiplicity quadratic and invariant-density exponent
    check-dim2         dimension-2 trace identities and the 3x3 obstruction

Exit code 0 means every suite run by the invocation passed.  Outputs are
byte-identical for identical (command, seed) regardless of --threads, and
every output file gets a manifest entry recording its digest.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, algebra, errors
from .calculus import ExponentProblem, invariant_exponent, model_a, model_b, solve_multiplicity
from .errors import InsufficientData, InvalidConfig
from .matrices import check_dim2_identities, check_logdet_derivatives, dim3_counterexample
from .reporting import (
    RunManifest,
    spectrum_csv_header,
    spectrum_csv_row,
    write_spectrum_csv,
    write_stats_json,
)
from .simulate import SimulationConfig, euler_path, gap_statistics, sample_spectra
from .verify import check_closed_forms, check_inverse_roundtrip, check_trace_identities


def _add_common(parser: argparse.ArgumentParser, out: bool = False, threads: bool = False):
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (u64)")
    parser.add_argument("--json", action="store_true", help="emit a JSON report to stdout")
    if out:
        parser.add_argument("--out", type=str, default=None, help="output file path")
    if threads:
        parser.add_argument("--threads", type=int, default=1,
                            help="worker threads (speed only; output bytes unchanged)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="octodyson", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-algebra", help="basis-level identity suites")
    _add_common(p, out=True)
    p.add_argument("--trials", type=int, default=10_000,
                   help="random real triples for the Moufang suite")
    p.add_argument("--norm-pairs", type=int, default=100_000,
                   help="random pairs for norm multiplicativity")
    p.add_argument("--tamper", action="store_true",
                   help="negative control: flip one sign-table cell first")
    p.set_defaults(func=cmd_verify_algebra)

    p = sub.add_parser("verify-identities", help="closed-form and trace residual suites")
    _add_common(p, out=True)
    p.add_argument("--model", choices=("a", "b"), required=True)
    p.add_argument("--n", type=int, default=None, help="matrix dimension (model b)")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_verify_identities)

    p = sub.add_parser("sample-spectrum", help="Monte Carlo spectra and gap statistics")
    _add_common(p, out=True, threads=True)
    p.add_argument("--model", choices=("a", "b"), required=True)
    p.add_argument("--n", type=int, default=None, help="matrix dimension (default 2)")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--cluster-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_sample_spectrum)

    p = sub.add_parser("simulate-path", help="Euler trajectories with per-step spectra")
    _add_common(p, out=True)
    p.add_argument("--model", choices=("a", "b"), required=True)
    p.add_argument("--n", type=int, default=None, help="matrix dimension (default 2)")
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--paths", type=int, default=10)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--cluster-tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_simulate_path)

    p = sub.add_parser("solve-exponents", help="multiplicity and invariant exponent")
    _add_common(p)
    p.add_argument("--alpha1", type=float, required=True)
    p.add_argument("--alpha2", type=float, required=True)
    p.add_argument("--alpha3", type=float, required=True)
    p.set_defaults(func=cmd_solve_exponents)

    p = sub.add_parser("check-dim2", help="dimension-2 trace identities")
    _add_common(p, out=True)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=cmd_check_dim2)
    return parser


def _model_dimension(args) -> int:
    if args.model == "a":
        return 2
    return args.n if args.n is not None else 2


def _emit_reports(args, reports, extra: dict | None = None) -> int:
    failures = sum(r.failures for r in reports)
    payload = {
        "reports": [r.to_dict() for r in reports],
        "cases": sum(r.cases for r in reports),
        "failures": failures,
        "passed": failures == 0,
    }
    if extra:
        payload.update(extra)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r.summary())
        for key, value in (extra or {}).items():
            print(f"{key}: {value}")
        print(f"total: cases={payload['cases']} failures={failures} "
              f"{'PASS' if failures == 0 else 'FAIL'}")
    if getattr(args, "out", None):
        write_stats_json(args.out, payload)
        manifest = _manifest(args)
        manifest.add_output(args.out)
        manifest.write(args.out + ".manifest.json")
    return 0 if failures == 0 else 1


def _manifest(args) -> RunManifest:
    config = {
        k: v for k, v in vars(args).items()
        if k not in ("func", "command", "argv") and v is not None
    }
    return RunManifest(
        command=list(getattr(args, "argv", [])),
        config=config,
        seed=getattr(args, "seed", 0),
        version=__version__,
    )


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
    extra = {"nonassociativity_witness": None}
    if witness is not None:
        a, b, c = witness
        extra["nonassociativity_witness"] = [algebra.label_name(x) for x in (a, b, c)]
    return _emit_reports(args, reports, extra)


def cmd_verify_identities(args) -> int:
    n = _model_dimension(args)
    model = model_a() if args.model == "a" else model_b(n)
    if args.trials == 0:
        print("warning: trials = 0, suites pass vacuously")
    reports = [
        check_closed_forms(model, trials=args.trials, seed=args.seed),
        check_trace_identities(args.model, n, trials=min(args.trials, 50), seed=args.seed + 1),
        check_inverse_roundtrip(args.model, n, trials=args.trials, seed=args.seed + 2),
        check_logdet_derivatives(count=min(args.trials, 100), seed=args.seed + 3),
    ]
    if args.model == "a":
        reports.append(check_dim2_identities(trials=args.trials, seed=args.seed + 4))
    return _emit_reports(args, reports)


def cmd_sample_spectrum(args) -> int:
    n = _model_dimension(args)
    cfg = SimulationConfig(kind=args.model, n=n, t=args.t, samples=args.samples,
                           seed=args.seed, cluster_tol=args.cluster_tol)
    spectra = sample_spectra(cfg, threads=args.threads)
    clean = sum(
        1 for s in spectra
        if len(s.distinct) == n and all(m == 8 for m in s.multiplicities)
    )
    print(f"samples: {len(spectra)}; with {n} clusters of multiplicity 8: {clean}")

    stats_payload = None
    if n == 2:
        try:
            stats = gap_statistics(spectra)
            stats_payload = {
                "model": args.model, "n": n, "t": args.t, "samples": args.samples,
                "moment2": stats.moment2, "moment4": stats.moment4,
                "ratio": stats.ratio, "implied_beta": stats.implied_beta,
                "stderr": stats.stderr, "seed": args.seed,
            }
            print(f"gap moment ratio: {stats.ratio:.6f}  "
                  f"implied beta: {stats.implied_beta:.4f} +- {stats.stderr:.4f}")
        except InsufficientData as exc:
            print(f"statistics skipped: {exc}")
    else:
        print("statistics skipped: gap statistics are defined for n = 2")

    if args.out:
        write_spectrum_csv(args.out, spectra, args.model, n, args.t)
        manifest = _manifest(args)
        manifest.add_output(args.out)
        if stats_payload is not None:
            stats_path = args.out + ".stats.json"
            write_stats_json(stats_path, stats_payload)
            manifest.add_output(stats_path)
        manifest.write(args.out + ".manifest.json")
        print(f"wrote {args.out}")
    if args.json and stats_payload is not None:
        print(json.dumps(stats_payload, indent=2))
    return 0 if clean == len(spectra) else 1


def cmd_simulate_path(args) -> int:
    n = _model_dimension(args)
    cfg = SimulationConfig(kind=args.model, n=n, t=args.t, samples=args.paths,
                           seed=args.seed, steps=args.steps, cluster_tol=args.cluster_tol)
    crossings = 0
    broken = 0
    min_gap = float("inf")
    rows = []
    for path in range(cfg.samples):
        result = euler_path(cfg, path)
        crossings += int(result.crossing_detected)
        min_gap = min(min_gap, result.min_gap)
        for step, s in enumerate(result.samples):
            if len(s.distinct) != n or any(m != 8 for m in s.multiplicities):
                broken += 1
            if args.out:
                rows.append(spectrum_csv_row((path, step), args.model, n, args.t, s))
    summary = {
        "paths": cfg.samples, "steps": cfg.steps, "crossings": crossings,
        "steps_with_broken_clusters": broken, "min_gap": min_gap,
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for key, value in summary.items():
            print(f"{key}: {value}")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(spectrum_csv_header(("path_id", "step"), n) + "\n")
            for row in rows:
                fh.write(row + "\n")
        manifest = _manifest(args)
        manifest.add_output(args.out)
        manifest.write(args.out + ".manifest.json")
        print(f"wrote {args.out}")
    return 0 if crossings == 0 and broken == 0 else 1


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
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"roots: {result.roots[0]:g}, {result.roots[1]:g}")
        print(f"a = {result.a:g} ({'positive integer: eigenvalue multiplicity' if result.is_positive_integer else 'not a positive integer'})")
        print(f"kappa = {kappa:g} (power of the squared Vandermonde)")
        print(f"beta = {2 * kappa:g} (gap exponent)")
    return 0


def cmd_check_dim2(args) -> int:
    report = check_dim2_identities(trials=args.trials, seed=args.seed)
    residual = dim3_counterexample()
    ok = residual > 0.1
    extra = {
        "dim3_counterexample_residual": residual,
        "dim3_obstruction_detected": ok,
    }
    code = _emit_reports(args, [report], extra)
    return code if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    if getattr(args, "seed", 0) < 0:
        parser.error("--seed must be a nonnegative integer")
    if getattr(args, "model", None) == "a" and getattr(args, "n", None) not in (None, 2):
        parser.error("model 'a' requires n = 2")
    try:
        return args.func(args)
    except InvalidConfig as exc:
        parser.error(str(exc))


def entry() -> None:
    sys.exit(main())
