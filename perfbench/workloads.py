"""The benchmark's workloads: the CLI invocations of one pass, and the checks
of what a pass wrote against :mod:`oracles`.

Every pass of a workload repeats the same invocations with the same seed,
so its outputs, its operation count and its failure count are the same in
every pass; :func:`fingerprint` lets the runner confirm that.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

T = 1.0
SPECTRUM_A_SAMPLES = 2000
SPECTRUM_B_N = 16
SPECTRUM_B_SAMPLES = 512
#: Rows of each spectrum CSV rebuilt from their draws and recomputed.
SUBSET = 64
SMALL_TRIALS = 20
DIM2_TRIALS = 200
ALGEBRA_TRIALS = 2_000
ALGEBRA_PAIRS = 20_000
B48_N = 48
B48_TRIALS = 4
#: identities-b48 keeps the closed-form overflow fault, which fails every
#: closed-form case; its inputs are fixed so the failed share cannot move
#: with the seed.
B48_SEED = 0


@dataclass
class Verdict:
    """Outcome of checking one pass: its operations, how many failed, and
    every oracle violation (none means the outputs are correct)."""

    ops: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def control(self, violated, name: str) -> None:
        """A negative control: the oracle fed a deliberately wrong input or
        law must report a violation."""
        if not violated:
            self.problems.append(f"negative control did not fail: {name}")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    output: str
    #: suite-name prefix -> number of cases the suite evaluates
    cases: dict = field(default_factory=dict)
    #: negative control of the suites themselves: must exit 1 with failures
    negative: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: Callable[[int], list[Invocation]]
    check: Callable[[int, Path, list[int], list], Verdict]
    spectrum: bool


def argv(inv: Invocation, out: Path) -> list[str]:
    return [*inv.argv, "--out", str(out / inv.output)]


# ---------------------------------------------------------------------------
# spectrum workloads


def _spectrum_invocations(kind: str, n: int, samples: int):
    def build(seed: int) -> list[Invocation]:
        args = ["sample-spectrum", "--model", kind, "--samples", str(samples),
                "--seed", str(seed)]
        if kind == "b":
            args[3:3] = ["--n", str(n)]
        return [Invocation(tuple(args), "spectrum.csv")]
    return build


def _read_spectrum_csv(data: bytes, n: int) -> tuple[np.ndarray, np.ndarray]:
    lines = data.decode().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    xs = np.array([[float(c) for c in row[4:4 + n]] for row in cells])
    mults = np.array([[int(c) for c in row[4 + n:4 + 2 * n]] for row in cells])
    return xs.reshape(-1, n), mults.reshape(-1, n)


def _bad_rows(xs: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """Rows without n ascending clusters of multiplicity 8."""
    return (np.any(mults != oracles.MULTIPLICITY, axis=1)
            | np.any(~np.isfinite(xs), axis=1)
            | np.any(np.diff(xs, axis=1) <= 0, axis=1))


def _manifest_violations(out: Path, names: list[str], manifest: str) -> list[str]:
    recorded = json.loads((out / manifest).read_text())["outputs"]
    problems = []
    for name in names:
        problems += oracles.digest_violations((out / name).read_bytes(),
                                              recorded.get(str(out / name), ""))
    return problems


def _check_spectrum(kind: str, n: int, samples: int):
    def check(seed: int, out: Path, codes: list[int], _log) -> Verdict:
        from octodyson.simulate import SimulationConfig, sample_components

        v = Verdict()
        v.expect(codes == [0], f"sample-spectrum exit codes {codes}")
        data = (out / "spectrum.csv").read_bytes()
        xs, mults = _read_spectrum_csv(data, n)
        v.expect(len(xs) == samples, f"{len(xs)} CSV rows for {samples} samples")
        v.ops = len(xs)
        bad = _bad_rows(xs, mults)
        v.failed = int(np.count_nonzero(bad))
        wrong = mults.copy()
        wrong[0, 0] = 7
        v.control(_bad_rows(xs, wrong)[0], "one multiplicity set to 7")

        cfg = SimulationConfig(kind=kind, n=n, t=T, samples=samples, seed=seed)
        worst = worst_control = 0.0
        for i in np.unique(np.linspace(0, samples - 1, SUBSET).astype(int)):
            if bad[i]:
                continue
            comps = sample_components(cfg, int(i))
            own = oracles.distinct_spectrum(kind, comps)
            worst = max(worst, oracles.spectrum_mismatch(xs[i], own))
            if kind == "a":
                mid, half = xs[i].mean(), 0.5 * (xs[i][1] - xs[i][0])
                scaled = np.array([mid - 1.01 * half, mid + 1.01 * half])
                worst_control = max(worst_control, oracles.spectrum_mismatch(scaled, own))
            else:
                wrong_root = oracles.hermitian_spectrum(comps, root=math.sqrt(6.0))
                worst_control = max(worst_control,
                                    oracles.spectrum_mismatch(xs[i], wrong_root))
        v.expect(worst <= 1e-10, f"CSV spectrum differs from the reference by {worst:.3g}")
        v.control(worst_control > 1e-10,
                  "gap scaled by 1.01" if kind == "a" else "reduction with sqrt(6)")

        good = xs[~bad]
        outputs = ["spectrum.csv"]
        if kind == "a":
            outputs.append("spectrum.csv.stats.json")
            stats = json.loads((out / outputs[1]).read_text())
            v.problems += oracles.gap_moment_violations(
                stats["moment2"], stats["moment4"], len(good), T)
            v.control(oracles.gap_moment_violations(
                stats["moment2"], stats["moment4"], len(good), 1.25 * T), "moments at 1.25 t")
            v.problems += oracles.beta_violations(stats["implied_beta"], stats["stderr"])
            v.control(oracles.beta_violations(stats["implied_beta"], stats["stderr"], beta=2.0),
                      "beta = 2")
        else:
            squares = np.sum(good ** 2, axis=1)
            v.problems += oracles.square_sum_violations(squares, n, T)
            v.control(oracles.square_sum_violations(squares, n, T, rate=2 * oracles.MODEL_B_RATE),
                      "antisymmetric rate doubled")
        v.problems += _manifest_violations(out, outputs, "spectrum.csv.manifest.json")
        v.control(oracles.digest_violations(oracles.flip_byte(data),
                                            hashlib.sha256(data).hexdigest()),
                  "a CSV byte flipped")
        return v
    return check


# ---------------------------------------------------------------------------
# identity workloads


def _identity_cases(model: str, trials: int) -> dict:
    cases = {
        "closed-forms": 3 * trials,
        "trace-identities": 6 * min(trials, 50),
        "inverse-roundtrip": trials,
        "logdet-derivatives": 2 * min(trials, 100),
    }
    if model == "a":
        cases["dim2-trace-identities"] = 16 * trials
    return cases


def _verify_identities(model: str, n: int, trials: int, seed: int, output: str) -> Invocation:
    args = ["verify-identities", "--model", model, "--trials", str(trials), "--seed", str(seed)]
    if model == "b":
        args += ["--n", str(n)]
    return Invocation(tuple(args), output, _identity_cases(model, trials))


def _verify_algebra(seed: int, tamper: bool) -> Invocation:
    args = ["verify-algebra", "--trials", str(ALGEBRA_TRIALS), "--norm-pairs",
            str(ALGEBRA_PAIRS), "--seed", str(seed)] + (["--tamper"] if tamper else [])
    cases = {
        # identity row/column, diagonal, antisymmetry, literal cells
        "table-structure": 16 + 1 + 7 + 42 + 64,
        # 64 + 64 pairs, 448 triples, 512 quadruples, the 4-cycle sum
        "sign-identities": 128 + 448 + 512 + 1,
        "moufang-alternativity": 4 * 512 + 2 * 64 + 6 * ALGEBRA_TRIALS,
        "norm-multiplicativity": ALGEBRA_PAIRS,
        "orthogonal-translates": 1000 * 28,
        "imaginary-sum-square": 1,
    }
    return Invocation(tuple(args), "algebra-tamper.json" if tamper else "algebra.json",
                      cases, negative=tamper)


def _small_invocations(seed: int) -> list[Invocation]:
    return [
        _verify_identities("a", 2, SMALL_TRIALS, seed, "identities-a.json"),
        _verify_identities("b", 4, SMALL_TRIALS, seed, "identities-b4.json"),
        Invocation(("check-dim2", "--trials", str(DIM2_TRIALS), "--seed", str(seed)),
                   "dim2.json", {"dim2-trace-identities": 16 * DIM2_TRIALS}),
        _verify_algebra(seed, tamper=False),
        _verify_algebra(seed, tamper=True),
    ]


def _b48_invocations(_seed: int) -> list[Invocation]:
    return [_verify_identities("b", B48_N, B48_TRIALS, B48_SEED, "identities-b48.json")]


@contextlib.contextmanager
def recording_closed_forms():
    """Record what the closed-form suite computes, trial by trial.

    Wraps the four calculus functions as the suite module binds them and
    yields the list of records, one per trial: the draw, both shifts, the
    quadruple sums Gamma(x, y), Gamma(y, x), L(x), and the program's closed
    forms for Gamma and L.
    """
    from octodyson import verify

    names = ("gamma_log_charpoly", "gamma_closed_form",
             "generator_log_charpoly", "generator_closed_form")
    originals = {name: getattr(verify, name) for name in names}
    calls: list[tuple] = []

    def recorder(name, fn):
        def record(*args):
            result = fn(*args)
            calls.append((name, args, result))
            return result
        return record

    records: list[dict] = []
    for name in names:
        setattr(verify, name, recorder(name, originals[name]))
    try:
        yield records
    finally:
        for name in names:
            setattr(verify, name, originals[name])
    pattern = ("gamma_log_charpoly", "gamma_closed_form", "gamma_log_charpoly",
               "generator_log_charpoly", "generator_closed_form")
    for k in range(0, len(calls), len(pattern)):
        group = calls[k:k + len(pattern)]
        if tuple(name for name, _, _ in group) != pattern:
            raise RuntimeError("closed-form suite no longer calls the calculus in the "
                               "recorded order; update recording_closed_forms")
        (_, (m, x, y, model), g_xy), (_, _, g_closed), (_, _, g_yx), \
            (_, _, gen), (_, _, gen_closed) = group
        records.append({"kind": model.kind, "n": model.n,
                        "components": np.array(m.components), "x": float(x), "y": float(y),
                        "gamma_xy": g_xy, "gamma_closed": g_closed, "gamma_yx": g_yx,
                        "generator": gen, "generator_closed": gen_closed})


def _check_identities(invocations: Callable[[int], list[Invocation]]):
    def check(seed: int, out: Path, codes: list[int], records: list[dict]) -> Verdict:
        v = Verdict()
        planned = invocations(seed)
        closed_reported = {}
        for inv, code in zip(planned, codes):
            payload = json.loads((out / inv.output).read_text())
            reports = payload["reports"]
            got = {r["suite"]: r for r in reports}
            v.expect(len(got) == len(inv.cases), f"{inv.output}: suites {sorted(got)}")
            v.ops += payload["cases"]
            for prefix, cases in inv.cases.items():
                matched = [r for name, r in got.items() if name.startswith(prefix)]
                v.expect(len(matched) == 1 and matched[0]["cases"] == cases,
                         f"{inv.output}: {prefix} should evaluate {cases} cases")
            if inv.negative:
                v.control(code == 1 and payload["failures"] > 0,
                          f"{' '.join(inv.argv)} must exit 1 with failures")
            else:
                v.expect(code == (1 if payload["failures"] else 0),
                         f"{inv.output}: exit code {code} with {payload['failures']} failures")
                for r in reports:
                    if r["suite"].startswith("closed-forms"):
                        closed_reported[r["suite"]] = r["failures"]
                    else:
                        v.failed += r["failures"]
            v.problems += _manifest_violations(out, [inv.output], inv.output + ".manifest.json")

        for kind, n in sorted({(r["kind"], r["n"]) for r in records}):
            mine = [r for r in records if (r["kind"], r["n"]) == (kind, n)]
            failed = oracles.closed_form_failures(kind, mine)
            reported = closed_reported.get(f"closed-forms-model-{kind}-n{n}", 0)
            v.expect(reported <= failed, f"closed forms {kind} n={n}: the suite fails "
                     f"{reported} cases, the log-space oracle {failed}")
            v.failed += failed
            v.control(oracles.quadruple_sum_failures(kind, mine, alpha3=1.01 * oracles.ALPHA3),
                      f"closed forms {kind} n={n} with a3 scaled by 1.01")
            c_curv, c_dlog = oracles.GENERATOR_COEFFS[kind]
            v.control(oracles.quadruple_sum_failures(kind, mine,
                                                     generator=(1.01 * c_curv, 1.01 * c_dlog)),
                      f"closed forms {kind} n={n} with the generator scaled by 1.01")
        trials = sum(inv.cases.get("closed-forms", 0) // 3 for inv in planned)
        v.expect(len(records) == trials, f"{len(records)} closed-form trials recorded, "
                 f"{trials} run")
        data = (out / planned[0].output).read_bytes()
        v.control(oracles.digest_violations(oracles.flip_byte(data),
                                            hashlib.sha256(data).hexdigest()),
                  "a report byte flipped")
        return v
    return check


def fingerprint(workload: Workload, seed: int, out: Path):
    """What must not change between passes: output bytes of a spectrum
    workload; suite outcomes (all but timings) of an identity workload."""
    result = []
    for inv in workload.invocations(seed):
        data = (out / inv.output).read_bytes()
        if workload.spectrum:
            result.append(hashlib.sha256(data).hexdigest())
            stats = out / (inv.output + ".stats.json")
            if stats.exists():
                result.append(hashlib.sha256(stats.read_bytes()).hexdigest())
        else:
            payload = json.loads(data)
            for report in payload["reports"]:
                report.pop("elapsed_ms")
            result.append(payload)
    return result


WORKLOADS = {
    w.name: w for w in (
        Workload("spectrum-a", _spectrum_invocations("a", 2, SPECTRUM_A_SAMPLES),
                 _check_spectrum("a", 2, SPECTRUM_A_SAMPLES), spectrum=True),
        Workload("spectrum-b16", _spectrum_invocations("b", SPECTRUM_B_N, SPECTRUM_B_SAMPLES),
                 _check_spectrum("b", SPECTRUM_B_N, SPECTRUM_B_SAMPLES), spectrum=True),
        Workload("identities-small", _small_invocations,
                 _check_identities(_small_invocations), spectrum=False),
        Workload("identities-b48", _b48_invocations,
                 _check_identities(_b48_invocations), spectrum=False),
    )
}
