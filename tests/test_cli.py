"""Command-line surface: subcommands, file schemas, determinism, exit codes."""

import itertools
import json
import os
import threading

import numpy as np
import pytest

from octodyson import OctonionicMatrix, algebra, matrices, simulate
from octodyson.blas import BlasThreads
from octodyson.cli import main
from octodyson.reporting import fmt17, json_text, write_spectrum_csv, write_stats_json
from octodyson.simulate import SpectralSample

from oracles import (
    einsum_multiplier,
    reference_dim2_trace_residuals,
    reference_euler_path,
    reference_fd_logdet_gradient,
    reference_fd_logdet_hessian,
    reference_gap_statistics,
    reference_oct_inverse,
    reference_real_form,
    reference_spectrum_csv_row,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_algebra_passes(capsys):
    code, out = run(capsys, "verify-algebra", "--trials", "500", "--norm-pairs", "2000")
    assert code == 0
    assert "PASS" in out


def test_verify_algebra_json(capsys):
    code, out = run(capsys, "verify-algebra", "--trials", "200", "--norm-pairs", "1000",
                    "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["cases"] >= 4096
    suites = {r["suite"] for r in payload["reports"]}
    assert "sign-identities" in suites and "moufang-alternativity" in suites
    assert payload["nonassociativity_witness"] is not None


def test_verify_algebra_tamper_negative_control(capsys):
    code, out = run(capsys, "verify-algebra", "--tamper", "--trials", "100",
                    "--norm-pairs", "500")
    assert code == 1
    assert "FAIL" in out


def test_verify_identities(capsys):
    code, out = run(capsys, "verify-identities", "--model", "a", "--trials", "10",
                    "--seed", "7")
    assert code == 0
    code, out = run(capsys, "verify-identities", "--model", "b", "--n", "3",
                    "--trials", "5", "--seed", "8")
    assert code == 0


def test_verify_identities_zero_trials_vacuous(capsys):
    """A trial count below 1 would pass vacuously, so it is a usage error."""
    for trials in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["verify-identities", "--model", "a", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err


def test_model_a_dimension_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--model", "a", "--n", "3", "--trials", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sample-spectrum", "--model", "a", "--n", "3", "--samples", "10"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify-identities", "--model", "b", "--n", "1"],
    ["sample-spectrum", "--model", "b", "--n", "1"],
    ["sample-spectrum", "--model", "a", "--samples", "0"],
    ["sample-spectrum", "--model", "a", "--t", "0"],
    ["sample-spectrum", "--model", "a", "--t", "inf"],
    ["simulate-path", "--model", "a", "--t", "inf"],
    ["sample-spectrum", "--model", "a", "--cluster-tol", "inf"],
    ["simulate-path", "--model", "a", "--cluster-tol", "inf"],
    ["simulate-path", "--model", "a", "--steps", "0"],
], ids=" ".join)
def test_invalid_config_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["-1", "0"])
@pytest.mark.parametrize("argv", [
    ["sample-spectrum", "--model", "a", "--samples", "10"],
    ["simulate-path", "--model", "a", "--paths", "1", "--steps", "3"],
], ids=lambda argv: argv[0])
def test_non_positive_cluster_tol_usage_error(argv, tol, capsys):
    """A clustering threshold of at most 0 splits every eigenvalue off on its
    own, so it is a usage error, not a run with no clean samples."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cluster-tol", tol])
    assert exc.value.code == 2
    assert "cluster_tol must be positive" in capsys.readouterr().err


def test_sample_spectrum_files(tmp_path, capsys):
    out_csv = str(tmp_path / "spec.csv")
    code, out = run(capsys, "sample-spectrum", "--model", "a", "--samples", "300",
                    "--t", "1", "--seed", "42", "--out", out_csv)
    assert code == 0
    lines = (tmp_path / "spec.csv").read_text().splitlines()
    assert lines[0] == "sample_id,model,n,t,x1,x2,mult1,mult2,spread"
    assert len(lines) == 301
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "a" and first[2] == "2"
    # 17-significant-digit round trip
    assert fmt17(float(first[4])) == first[4]

    stats = json.loads((tmp_path / "spec.csv.stats.json").read_text())
    assert set(stats) == {"model", "n", "t", "samples", "moment2", "moment4",
                          "ratio", "implied_beta", "stderr", "seed"}
    assert stats["samples"] == 300 and stats["seed"] == 42

    manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
    assert out_csv in manifest["outputs"]
    assert out_csv + ".stats.json" in manifest["outputs"]
    assert manifest["seed"] == 42


def test_sample_spectrum_insufficient_data_still_writes_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "tiny.csv")
    code, out = run(capsys, "sample-spectrum", "--model", "a", "--samples", "10",
                    "--seed", "1", "--out", out_csv)
    assert code == 0
    assert "statistics skipped" in out
    assert len((tmp_path / "tiny.csv").read_text().splitlines()) == 11
    assert not (tmp_path / "tiny.csv.stats.json").exists()


def test_sample_spectrum_statistics_finite_at_huge_t(capsys):
    """At t = 1e300 the fourth powers of the gaps lie beyond the float range:
    the gap statistics warn of nothing (a numpy RuntimeWarning fails the
    test), the ratio, exponent and standard error are those of t = 1 up to
    rounding, and only moment4, near 1e600, is written as null."""
    argv = ["sample-spectrum", "--model", "a", "--samples", "300", "--json"]
    code, out = run(capsys, *argv, "--t", "1e300")
    assert code == 0
    huge = json.loads(out)["stats"]
    unit = json.loads(run(capsys, *argv)[1])["stats"]
    assert huge["moment4"] is None
    assert huge["moment2"] == pytest.approx(1e300 * unit["moment2"], rel=1e-12)
    for key in ("ratio", "implied_beta", "stderr"):
        assert huge[key] == pytest.approx(unit[key], rel=1e-9)


def test_sample_spectrum_threads_byte_identical(tmp_path, capsys, monkeypatch, cpus):
    """A run below one 1024-sample chunk still splits over the threads: on
    four usable CPUs its 500 samples run as four chunks, two of them at the
    same time on two threads (each waits at the barrier for the other), and
    the bytes equal those of a run on one CPU."""
    argv = ["sample-spectrum", "--model", "b", "--n", "3", "--samples", "500", "--seed", "9",
            "--json"]
    a = tmp_path / "t1.csv"
    b = tmp_path / "t4.csv"
    cpus(1)
    assert json.loads(run(capsys, *argv, "--out", str(a))[1])["threads"] == 1
    chunk_threads = []
    barrier = threading.Barrier(2, timeout=10)
    cluster_rows = simulate._cluster_rows

    def meeting_cluster_rows(eigs, tol):
        chunk_threads.append(threading.get_ident())
        if len(chunk_threads) <= 2:
            barrier.wait()
        return cluster_rows(eigs, tol)

    monkeypatch.setattr(simulate, "_cluster_rows", meeting_cluster_rows)
    cpus(4)
    assert json.loads(run(capsys, *argv, "--out", str(b))[1])["threads"] == 4
    assert len(chunk_threads) == 4
    assert len(set(chunk_threads)) > 1
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("n,samples", [(3, 300), (16, 40)])
def test_sample_spectrum_auto_threads_byte_identical(n, samples, tmp_path, capsys, cpus):
    """Model b below 1024 samples: runs on this machine's CPUs and on 1, 2
    and 4 usable CPUs write the same CSV."""
    written = set()
    for count in (None, 1, 2, 4):
        if count is not None:
            cpus(count)
        out = tmp_path / f"{len(written)}.csv"
        code, _ = run(capsys, "sample-spectrum", "--model", "b", "--n", str(n),
                      "--samples", str(samples), "--seed", "4", "--out", str(out))
        assert code == 0
        written.add(out.read_bytes())
    assert len(written) == 1


@pytest.mark.parametrize("command", ["sample-spectrum", "simulate-path"])
def test_threads_option_is_gone(command, capsys):
    """The thread count is derived, not chosen: --threads is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "a", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def _resolved_threads(capsys, tmp_path, *argv):
    """Threads of one run as its --json report and its manifest record them."""
    out = tmp_path / "auto.csv"
    code, text = run(capsys, "sample-spectrum", "--samples", "30", *argv, "--json",
                     "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "auto.csv.manifest.json").read_text())
    assert manifest["config"]["threads"] == json.loads(text)["threads"]
    return json.loads(text)["threads"]


def test_auto_threads_resolution(tmp_path, capsys, monkeypatch):
    """Every usable CPU for n >= 3 with a BLAS thread control, else 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(simulate, "find_openblas", lambda: None)
    assert _resolved_threads(capsys, tmp_path, "--model", "b", "--n", "3") == 1
    monkeypatch.setattr(simulate, "find_openblas", lambda: BlasThreads(lambda: 1, lambda k: None))
    assert _resolved_threads(capsys, tmp_path, "--model", "b", "--n", "3") == 3
    assert _resolved_threads(capsys, tmp_path, "--model", "b", "--n", "2") == 1
    assert _resolved_threads(capsys, tmp_path, "--model", "a") == 1


def test_recorded_threads_equal_pool_workers(tmp_path, capsys, monkeypatch, cpus):
    """The thread count in --json and in the manifest is the number of
    workers the pool was started with."""
    started = []

    class Recording(simulate.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(simulate, "ThreadPoolExecutor", Recording)
    cpus(3)
    assert _resolved_threads(capsys, tmp_path, "--model", "b", "--n", "3") == 3
    assert started == [3]


def test_spectrum_csv_template_matches_spectrum_csv_row(tmp_path):
    """Template rows equal the cell-by-cell reference row, for regular and
    irregular draws, with one or two id columns."""
    n = 3
    samples = [
        SpectralSample((-1.5, 0.1 + 0.2, 7e300), (8, 8, 8), 2.220446049250313e-16),
        SpectralSample((-0.0, 5e-324, 1 / 3), (8, 7, 9), 0.0),
        SpectralSample((np.float64(2.5), np.inf, -np.inf), (8, 8, 8), np.float64(1e-17)),
        SpectralSample((1.0, 2.0), (16, 8), 1e-3),  # too few clusters: NaN-padded
        SpectralSample((1.0, 2.0, 3.0, 4.0), (8, 8, 4, 4), 0.5),  # too many: cut
        SpectralSample((np.nan, 1.0, 2.0), (8, 8, 8), np.nan),
    ]
    for id_names, ids in [(("sample_id",), None),
                          (("path_id", "step"), [(p, s) for p in (0, 12) for s in (0, 1, 99)])]:
        path = tmp_path / "rows.csv"
        write_spectrum_csv(str(path), samples, "b", n, 0.1, id_names, ids)
        rows = path.read_text().split("\n")
        row_ids = ids or [(i,) for i in range(len(samples))]
        assert rows[1:] == [reference_spectrum_csv_row(i, "b", n, 0.1, s)
                            for i, s in zip(row_ids, samples)] + [""]


def test_sample_spectrum_model_b_n3(capsys):
    code, out = run(capsys, "sample-spectrum", "--model", "b", "--n", "3",
                    "--samples", "40", "--seed", "3")
    assert code == 0
    assert "with 3 clusters of multiplicity 8: 40" in out


def test_simulate_path(tmp_path, capsys):
    out_csv = str(tmp_path / "path.csv")
    code, out = run(capsys, "simulate-path", "--model", "a", "--steps", "20",
                    "--paths", "3", "--seed", "11", "--out", out_csv)
    assert code == 0
    assert "crossings: 0" in out
    lines = (tmp_path / "path.csv").read_text().splitlines()
    assert lines[0] == "path_id,step,model,n,t,x1,x2,mult1,mult2,spread"
    assert len(lines) == 1 + 3 * 20


@pytest.mark.parametrize("argv,kind,n", [
    (["--model", "a"], "a", 2),
    (["--model", "b", "--n", "3"], "b", 3),
], ids=["a", "b3"])
def test_simulate_path_bytes_match_step_loop(argv, kind, n, tmp_path, capsys, monkeypatch,
                                             cpus):
    """simulate-path writes the CSV and --json (but for its thread count) of
    paths drawn and eigensolved one step at a time, on one and two usable
    CPUs (one thread at n = 2), with chunks of all paths, of one path below
    two and below one path."""
    steps, paths, seed = 5, 4, 23
    cfg = simulate.SimulationConfig(kind=kind, n=n, samples=paths, seed=seed, steps=steps)
    ref = [reference_euler_path(cfg, i) for i in range(paths)]
    samples = [s for path in ref for s in path.samples]
    write_spectrum_csv(str(tmp_path / "ref.csv"), samples, kind, n, 1.0, ("path_id", "step"),
                       list(itertools.product(range(paths), range(steps))))
    summary = {
        "paths": paths, "steps": steps,
        "crossings": sum(path.crossing_detected for path in ref),
        "steps_with_broken_clusters": sum(s.multiplicities != (8,) * n for s in samples),
        "min_gap": min(path.min_gap for path in ref),
    }
    for count, chunk in itertools.product((1, 2), (1024, 7, 3)):
        cpus(count)
        monkeypatch.setattr(simulate, "CHUNK_ROWS", chunk)
        out = tmp_path / f"t{count}c{chunk}.csv"
        code, text = run(capsys, "simulate-path", *argv, "--steps", str(steps), "--paths",
                         str(paths), "--seed", str(seed), "--json", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        threads = count if n >= 3 else 1
        assert text == json.dumps({**summary, "threads": threads}, indent=2) + "\n"


def test_simulate_path_steps_pass_through_chunk_real_form(capsys, monkeypatch):
    """Every step of every path is one real form built by the chunk pipeline,
    none through a per-step OctonionicMatrix."""
    forms = []
    real_form = simulate.real_form
    monkeypatch.setattr(simulate, "real_form",
                        lambda comps: forms.append(len(comps)) or real_form(comps))
    monkeypatch.setattr(matrices, "real_form", None)
    code, _ = run(capsys, "simulate-path", "--model", "b", "--n", "3", "--steps", "6",
                  "--paths", "3")
    assert code == 0
    assert sum(forms) == 3 * 6


def test_json_text_writes_non_finite_floats_as_null(tmp_path):
    finite = {"a": 0.1, "b": [1, -0.0, 5e-324], "c": {"d": True, "e": None, "f": "x"}}
    assert json_text(finite) == json.dumps(finite, indent=2)
    payload = {"stderr": np.inf, "beta": [-np.inf, np.nan, 2.5], "deep": {"x": np.inf}}
    write_stats_json(str(tmp_path / "s.json"), payload)
    assert json.loads((tmp_path / "s.json").read_text()) == {
        "stderr": None, "beta": [None, None, 2.5], "deep": {"x": None}}


def test_solve_exponents(capsys):
    code, out = run(capsys, "solve-exponents", "--alpha1", "-11", "--alpha2", "10.5",
                    "--alpha3", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == 8.0 and payload["kappa"] == 4.0 and payload["beta"] == 8.0
    assert payload["is_positive_integer"] is True
    assert payload["quadratic_residual"] < 1e-12

    code, out = run(capsys, "solve-exponents", "--alpha1", "-8", "--alpha2", "7.875",
                    "--alpha3", "8", "--json")
    payload = json.loads(out)
    assert payload["a"] == 8.0 and payload["kappa"] == 1.0 and payload["beta"] == 2.0

    code, out = run(capsys, "solve-exponents", "--alpha1", "-1", "--alpha2", "0",
                    "--alpha3", "1", "--json")
    payload = json.loads(out)
    assert payload["a"] == 1.0 and payload["kappa"] == 1.0 and payload["beta"] == 2.0


def test_solve_exponents_no_root(capsys):
    code = main(["solve-exponents", "--alpha1", "1", "--alpha2", "1", "--alpha3", "1"])
    capsys.readouterr()
    assert code == 1


def test_solve_exponents_zero_alpha3(capsys):
    # a = 2 solves the quadratic, but kappa = -a^2 (a1 + a2) / a3 is undefined
    code = main(["solve-exponents", "--alpha1", "2", "--alpha2", "-1", "--alpha3", "0"])
    assert code == 1
    assert "alpha3 must be nonzero" in capsys.readouterr().err


def test_check_dim2(capsys):
    code, out = run(capsys, "check-dim2", "--trials", "50", "--seed", "5")
    assert code == 0
    assert "dim3_obstruction_detected: True" in out


def test_report_out_file_with_manifest(tmp_path, capsys):
    out_json = str(tmp_path / "report.json")
    code, _ = run(capsys, "verify-algebra", "--trials", "100", "--norm-pairs", "500",
                  "--out", out_json)
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["passed"] is True
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert out_json in manifest["outputs"]


@pytest.mark.parametrize("argv,kind,n,samples", [
    (["--model", "a", "--samples", "300"], "a", 2, 300),
    (["--model", "b", "--n", "5", "--samples", "60"], "b", 5, 60),
], ids=["a", "b5"])
def test_sample_spectrum_bytes_match_per_sample_pipeline(argv, kind, n, samples, tmp_path,
                                                         capsys, monkeypatch, cpus):
    """The batched sampler writes the bytes of a one-sample-at-a-time
    pipeline, on one and two usable CPUs and for chunks smaller than the run."""
    seed = 17
    cfg = simulate.SimulationConfig(kind=kind, n=n, samples=samples, seed=seed)
    spectra = [
        simulate.cluster_eigenvalues(
            np.linalg.eigvalsh(reference_real_form(simulate.sample_components(cfg, i))),
            cfg.cluster_tol)
        for i in range(samples)
    ]
    write_spectrum_csv(str(tmp_path / "ref.csv"), spectra, kind, n, 1.0)
    expected_csv = (tmp_path / "ref.csv").read_bytes()
    if n == 2:
        stats = reference_gap_statistics(spectra, simulate.BOOTSTRAP_REPLICATES,
                                         simulate.BOOTSTRAP_SEED)
        write_stats_json(str(tmp_path / "ref.json"), {
            "model": kind, "n": n, "t": 1.0, "samples": samples,
            "moment2": stats.moment2, "moment4": stats.moment4, "ratio": stats.ratio,
            "implied_beta": stats.implied_beta, "stderr": stats.stderr, "seed": seed,
        })
    runs = [(1, 1024), (1, 16), (2, 16)]
    for count, chunk in runs:
        cpus(count)
        monkeypatch.setattr(simulate, "CHUNK_ROWS", chunk)
        out = tmp_path / f"t{count}c{chunk}.csv"
        code, _ = run(capsys, "sample-spectrum", *argv, "--seed", str(seed), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == expected_csv
        stats_path = tmp_path / f"t{count}c{chunk}.csv.stats.json"
        if n == 2:
            assert stats_path.read_bytes() == (tmp_path / "ref.json").read_bytes()
        else:
            assert not stats_path.exists()


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--trials", "50", "--norm-pairs", "200"],
    ["verify-identities", "--model", "a", "--trials", "3"],
    ["sample-spectrum", "--model", "a", "--samples", "300"],
    ["sample-spectrum", "--model", "b", "--n", "3", "--samples", "20"],
    ["simulate-path", "--model", "a", "--steps", "5", "--paths", "2"],
    # every step one cluster: min_gap is infinite
    ["simulate-path", "--model", "a", "--steps", "3", "--paths", "2", "--cluster-tol", "1e9"],
    ["solve-exponents", "--alpha1", "-11", "--alpha2", "10.5", "--alpha3", "8"],
    ["check-dim2", "--trials", "20"],
], ids=" ".join)
def test_json_stdout_is_one_document(argv, tmp_path, capsys):
    """Under --json stdout parses as one strict JSON document, also with
    --out: no NaN or Infinity, which JSON does not define."""

    def strict(text):
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")
        return json.loads(text, parse_constant=reject)

    strict(run(capsys, *argv, "--json")[1])
    if argv[0] != "solve-exponents":
        strict(run(capsys, *argv, "--json", "--out", str(tmp_path / "out"))[1])
        for path in tmp_path.glob("out*.json"):
            strict(path.read_text())


def _suite_json(capsys, argv):
    """Exit code and JSON report of one run, without the timings."""
    code, out = run(capsys, *argv, "--json")
    payload = json.loads(out)
    for report in payload["reports"]:
        del report["elapsed_ms"]
    return code, payload


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--trials", "400", "--norm-pairs", "3000", "--seed", "3"],
    ["verify-algebra", "--trials", "400", "--norm-pairs", "3000", "--seed", "3", "--tamper"],
    ["check-dim2", "--trials", "80", "--seed", "2"],
    ["verify-identities", "--model", "a", "--trials", "15", "--seed", "5"],
], ids=" ".join)
def test_suite_json_matches_reference_kernels(argv, capsys, monkeypatch):
    """The stacked kernels print the JSON of the loop and dense references:
    the einsum product, the structured inverse with three factorisations of
    M^0 taken one stack entry at a time, per-entry finite differences and
    per-component dimension-2 traces of one draw at a time."""
    got = _suite_json(capsys, argv)
    monkeypatch.setattr(algebra, "_multiplier", einsum_multiplier)
    monkeypatch.setattr(matrices, "_oct_inverse_stack", lambda comps: np.array(
        [reference_oct_inverse(OctonionicMatrix(c)).components for c in comps]))
    monkeypatch.setattr(matrices, "fd_logdet_gradient", reference_fd_logdet_gradient)
    monkeypatch.setattr(matrices, "fd_logdet_hessian", reference_fd_logdet_hessian)
    monkeypatch.setattr(matrices, "_dim2_trace_residuals", lambda ux, uy: np.array(
        [reference_dim2_trace_residuals(a, b) for a, b in zip(ux, uy)]))
    assert _suite_json(capsys, argv) == got
