"""Benchmark of the octodyson CLI, run in one process per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  The process holds the BLAS pool to one thread, makes one checked
warm-up pass of the workload, then repeats the same pass for ``--seconds``,
calling ``octodyson.cli.main`` in-process with outputs in a temporary
directory under ``.perfbench_out/``.  It then checks the outputs against
the oracles in ``oracles.py`` and prints, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
warm pass), ``items_per_s`` (work items of one pass over that median),
``setup_s`` (median of fresh interpreters that import the package and build
its one-time tables) and ``peak_rss_mb``.  Times are wall times net of the
time the hypervisor stole from the machine's CPUs (see ``net_clock``).
With ``--trace 1`` untraced and traced passes alternate, and the metrics
are the per-layer ones derived from the spans (see ``tracing.py``), plus
the tracing overhead; spans go to ``.perfbench_out/trace/``.
"""

import os

# Before numpy is first imported, in this process and in its children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9
MIN_PASSES = 5
TICK = os.sysconf("SC_CLK_TCK")
#: Workloads whose passes stand in for layers the selected workload does
#: not reach, in the traced run.
LAYER_FALLBACKS = ("spectrum-a", "identities-small")

#: What every CLI invocation pays before its command runs: the import, and
#: the lazily built Gamma and generator sign weights of both models.
SETUP_CODE = """
import octodyson.cli
from octodyson import calculus, simulate
for kind in ("a", "b"):
    m = simulate.sample_matrix(simulate.SimulationConfig(kind=kind, n=2), 0)
    model = calculus.DiffusionModel(kind, 2)
    calculus.gamma_log_charpoly(m, 20.0, 21.0, model)
    calculus.generator_log_charpoly(m, 20.0, model)
"""


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def steal_ticks() -> list[int]:
    """Time the hypervisor stole from each CPU, in ticks (``/proc/stat``)."""
    try:
        with open("/proc/stat") as fh:
            return [int(line.split()[8]) for line in fh
                    if line.startswith("cpu") and line[3].isdigit()]
    except OSError:
        return []


@contextlib.contextmanager
def net_clock():
    """Yields a list that receives the elapsed wall time minus the largest
    hypervisor steal any one CPU suffered meanwhile.

    On a shared virtual machine the process does not run while its vCPU
    is stolen, and on a busy host that can add up to half of a pass.
    A single-threaded pass stays on one CPU, so the largest per-CPU
    steal is what it lost; taking the largest rather than the sum never
    counts twice the steal of threads running side by side.
    """
    result = []
    before = steal_ticks()
    start = time.perf_counter()
    yield result
    elapsed = time.perf_counter() - start
    stolen = max((b - a for a, b in zip(before, steal_ticks())), default=0) / TICK
    result.append(elapsed - stolen)


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        with net_clock() as elapsed:
            subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)
        times += elapsed
    return statistics.median(times)


class Runner:
    """Runs passes of one workload; every pass must repeat the first one's
    exit codes and outputs."""

    def __init__(self, workload, seed: int, out: Path):
        from octodyson import cli

        self.main = cli.main
        self.workload = workload
        self.seed = seed
        self.out = out
        self.invocations = workload.invocations(seed)
        self.codes = None
        self.reference = None
        self.problems: list[str] = []
        self.passes = 0

    def run_pass(self, tracer=None) -> float:
        gc.collect()
        codes = []
        spans = tracer.installed() if tracer else contextlib.nullcontext()
        with spans, net_clock() as elapsed, (tracer.span(f"pass:{self.workload.name}")
                                             if tracer else contextlib.nullcontext()):
            for inv in self.invocations:
                argv = workloads.argv(inv, self.out)
                with contextlib.redirect_stdout(io.StringIO()), \
                        (tracer.span("cli.main") if tracer else contextlib.nullcontext()):
                    codes.append(self.main(argv))
        self.passes += 1
        seen = workloads.fingerprint(self.workload, self.seed, self.out)
        if self.codes is None:
            self.codes, self.reference = codes, seen
        elif codes != self.codes or seen != self.reference:
            self.problems.append(f"pass {self.passes} differs from the first pass")
        return elapsed[0]

    def checked_pass(self) -> list:
        """The warm-up pass, recording what the closed-form oracle needs."""
        with workloads.recording_closed_forms() as records:
            self.run_pass()
        return records


def timed(runner: Runner, seconds: float, tracer=None) -> tuple[list[float], list[float]]:
    """Timed passes for ``seconds``: plain passes only, or, with a tracer,
    plain and traced passes alternating."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < MIN_PASSES or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        if tracer:
            traced.append(runner.run_pass(tracer))
    return plain, traced


def fallback_metrics(name: str, seed: int, missing: set, trace_dir: Path) -> dict:
    """Per-layer metrics from one traced pass of another workload."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(workloads.WORKLOADS[name], seed, Path(tmp))
        runner.run_pass()
        tracer = tracing.Tracer()
        runner.run_pass(tracer)
    tracer.write(trace_dir / f"{name}-seed{seed}.fallback.spans.csv")
    if runner.problems or any(runner.codes[i] != (1 if inv.negative else 0)
                              for i, inv in enumerate(runner.invocations)):
        raise RuntimeError(f"fallback workload {name} did not run cleanly")
    return {k: v for k, v in tracing.layer_metrics(tracer.spans).items() if k in missing}


def main() -> int:
    args = parse_args()
    if not (SRC / "octodyson" / "__init__.py").is_file():
        print(f"perfbench: no octodyson package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import octodyson

    if Path(octodyson.__file__).resolve().parent != SRC / "octodyson":
        print(f"perfbench: imported octodyson from {octodyson.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup()
    tracer = tracing.Tracer() if args.trace else None

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        runner = Runner(workload, args.seed, Path(tmp))
        records = runner.checked_pass()
        plain, traced = timed(runner, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdict = workload.check(args.seed, runner.out, runner.codes, records)
    problems = runner.problems + verdict.problems

    if args.trace:
        trace_dir = OUT / "trace"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"{workload.name}-seed{args.seed}.spans.csv")
        layers = tracing.layer_metrics(tracer.spans)
        for name in LAYER_FALLBACKS:
            missing = tracing.UNITS.keys() - layers.keys() - {"trace.overhead.ms"}
            if missing and name != workload.name:
                layers.update(fallback_metrics(name, args.seed, missing, trace_dir))
        (trace_dir / f"{workload.name}-seed{args.seed}.layers.json").write_text(json.dumps(
            {"self_times": tracing.self_times(tracer.spans), "metrics": layers}, indent=1))
        layers["trace.overhead.ms"] = 1e3 * (statistics.median(traced)
                                             - statistics.median(plain))
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in tracing.UNITS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "items_per_s": {"value": verdict.ops / statistics.median(plain), "unit": "1/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": verdict.ops * runner.passes,
        "failed": verdict.failed * runner.passes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
