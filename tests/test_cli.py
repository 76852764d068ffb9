"""Command-line surface: subcommands, file schemas, determinism, exit codes."""

import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from octodyson import OctonionicMatrix, algebra, cli, matrices, simulate, verify
from octodyson.blas import find_openblas
from octodyson.cli import main
from octodyson.errors import InsufficientData
from octodyson.reporting import fmt17, json_text, write_spectrum_csv, write_stats_json
from octodyson.simulate import SpectralSample

from oracles import (
    dense_spectrum,
    einsum_multiplier,
    reference_dim2_trace_residuals,
    reference_euler_path,
    reference_fd_logdet_gradient,
    reference_fd_logdet_hessian,
    reduced_spectrum,
    reference_cross_check,
    reference_json_text,
    reference_oct_inverse,
    reference_oct_inverse_masked,
    reference_spectrum_csv_row,
    spectra_record,
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
    assert all(r["nonfinite"] == 0 for r in payload["reports"])
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


SEEDED = [
    ["sample-spectrum", "--model", "a", "--samples", "20"],
    ["check-dim2", "--trials", "5"],
    ["verify-algebra", "--trials", "20", "--norm-pairs", "50"],
]


@pytest.mark.parametrize("seed", [2 ** 64, 2 ** 128])
@pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: argv[0])
def test_seed_beyond_u64_usage_error(argv, seed, capsys):
    """--seed is a u64: a larger seed is a usage error, not a numpy traceback."""
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", str(seed)])
    assert exc.value.code == 2
    assert f"--seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", SEEDED, ids=lambda argv: argv[0])
def test_largest_seed_runs(argv, capsys):
    assert run(capsys, *argv, "--seed", str(2 ** 64 - 1))[0] == 0


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
    assert "threads" not in manifest["config"]


def test_sample_spectrum_insufficient_data_still_writes_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "tiny.csv")
    code, out = run(capsys, "sample-spectrum", "--model", "a", "--samples", "10",
                    "--seed", "1", "--out", out_csv)
    assert code == 0
    assert "statistics skipped: need >= 100 samples with 2 clusters, got 10" in out
    assert len((tmp_path / "tiny.csv").read_text().splitlines()) == 11
    assert not (tmp_path / "tiny.csv.stats.json").exists()


def test_sample_spectrum_estimates_beta_2_at_n3(tmp_path, capsys):
    """Model b at n = 3 writes its exponent, within 5 standard errors of 2
    and more than 5 from model a's 8, to --json and to the stats file."""
    out_csv = tmp_path / "b3.csv"
    code, out = run(capsys, "sample-spectrum", "--model", "b", "--n", "3", "--samples", "2000",
                    "--seed", "0", "--json", "--out", str(out_csv))
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats == json.loads((tmp_path / "b3.csv.stats.json").read_text())
    assert stats["n"] == 3 and np.isfinite(stats["stderr"])
    assert abs(stats["implied_beta"] - 2.0) < 5.0 * stats["stderr"]
    assert abs(stats["implied_beta"] - 8.0) > 5.0 * stats["stderr"]


#: Recorded outputs of seed 7, spectra solved from the draws' structure: the
#: SHA-256 of two spectrum CSVs, and the n = 2 statistics other than the
#: standard error.
GOLDEN_CSV = {
    "a": "82c19e9e6d0ab7915aa569b6340f368233e7b78d3fa7fb31784cee8ec70ad774",
    "b16": "88905f8ba28cc04d9640a4e1ca8dbee102736a4d5475bc896b73a8937106818c",
}
GOLDEN_STATS_A = {
    "moment2": "17.618734564004026",
    "moment4": "387.5912926778482",
    "ratio": "1.2486036107956855",
    "implied_beta": "7.044935444013712",
}


@pytest.mark.parametrize("name,argv", [
    ("a", ["--model", "a", "--samples", "300"]),
    ("b16", ["--model", "b", "--n", "16", "--samples", "40"]),
])
def test_sample_spectrum_output_bytes_unchanged(name, argv, tmp_path, capsys):
    """Seed 7 writes the recorded CSV bytes; at n = 2 every statistic but
    the standard error keeps its recorded value, bit for bit."""
    out_csv = tmp_path / f"{name}.csv"
    code, _ = run(capsys, "sample-spectrum", *argv, "--seed", "7", "--out", str(out_csv))
    assert code == 0
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == GOLDEN_CSV[name]
    if name == "a":
        stats = json.loads((tmp_path / "a.csv.stats.json").read_text())
        assert {k: repr(stats[k]) for k in GOLDEN_STATS_A} == GOLDEN_STATS_A
        assert repr(stats["stderr"]) != "0.5946410924433032"  # the bootstrap's


#: SHA-256 of the CSV and stats of seed 0 at the north star's sizes, as
#: written before the counter was sought in place.
NORTH_STAR = {
    "a.csv": "e8be7d9be89b47ecf0b9eef280a28a1a43976b8d3b13ac59e410c639dca2c562",
    "a.csv.stats.json": "ab70d1d9002448b0364f6faf1a4080d698914894293107c76e944ae7bb1c4e2c",
    "b8.csv": "33d96373968ed0ca307f5af9dfbc13fcf04422c778a904c8f3bec7a2b0635014",
    "b8.csv.stats.json": "f1ba199dc7d236cb03a4f95232fab48667f54891aab2ce999ca3c40db7857b56",
}


def test_in_place_seek_writes_the_bytes_of_sample_rng(tmp_path, capsys, monkeypatch):
    """The sampling commands at the north star's sizes write the same bytes,
    and print the same lines, with the counter sought in place and with the
    probe forced to reject it, so that every index draws from its own
    sample_rng."""
    argvs = {
        "a.csv": ["sample-spectrum", "--model", "a", "--samples", "20000"],
        "b8.csv": ["sample-spectrum", "--model", "b", "--n", "8", "--samples", "2000"],
        "p.csv": ["simulate-path", "--model", "b", "--n", "3", "--paths", "20", "--steps", "50"],
    }

    def written(side):
        (tmp_path / side).mkdir()
        lines = [run(capsys, *argv, "--seed", "0", "--out", str(tmp_path / side / name))
                 for name, argv in argvs.items()]
        files = {path.name: path.read_bytes() for path in (tmp_path / side).glob("*")
                 if not path.name.endswith(".manifest.json")}
        return lines, files

    assert simulate._in_place_seek_works()
    fast = written("fast")
    monkeypatch.setattr(simulate, "_in_place_seek_works", lambda: False)
    assert written("sample_rng") == fast
    assert {name: hashlib.sha256(fast[1][name]).hexdigest() for name in NORTH_STAR} == NORTH_STAR
    assert [code for code, _ in fast[0]] == [0, 0, 0]


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


@pytest.mark.parametrize("command", ["sample-spectrum", "simulate-path"])
def test_threads_option_is_gone(command, capsys):
    """The sampling commands run on one thread: --threads is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--model", "a", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


@pytest.mark.skipif(find_openblas() is None, reason="no OpenBLAS thread control is loaded")
def test_reports_do_not_depend_on_blas_threads(tmp_path):
    """At n = 48 a BLAS on two threads sums the dense products in another
    order than on one; every command holds the BLAS at one thread, so runs
    under OPENBLAS_NUM_THREADS=1 and =2 write the same report bar timings."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    reports = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = tmp_path / f"blas{threads}.json"
        subprocess.run([sys.executable, "-m", "octodyson", "verify-identities", "--model", "b",
                        "--n", "48", "--trials", "4", "--seed", "0", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        payload = json.loads(out.read_text())
        for report in payload["reports"]:
            del report["elapsed_ms"]
        reports.append(payload)
    assert reports[0] == reports[1]


def test_spectrum_csv_template_matches_spectrum_csv_row(tmp_path):
    """Template rows equal the cell-by-cell reference row, for regular and
    irregular draws, with one id column by default or two given columns."""
    n = 3
    samples = [
        SpectralSample((-1.5, 0.1 + 0.2, 7e300), (8, 8, 8), 2.220446049250313e-16),
        SpectralSample((-0.0, 5e-324, 1 / 3), (8, 7, 9), 0.0),
        SpectralSample((np.float64(2.5), np.inf, -np.inf), (8, 8, 8), np.float64(1e-17)),
        SpectralSample((1.0, 2.0), (16, 8), 1e-3),  # too few clusters: NaN-padded
        SpectralSample((1.0, 2.0, 3.0, 4.0), (8, 8, 4, 4), 0.5),  # too many: cut
        SpectralSample((np.nan, 1.0, 2.0), (8, 8, 8), np.nan),
    ]
    pairs = [(p, s) for p in (0, 12) for s in (0, 1, 99)]
    for id_names, ids in [(("sample_id",), None),
                          (("path_id", "step"), [list(column) for column in zip(*pairs)])]:
        path = tmp_path / "rows.csv"
        write_spectrum_csv(str(path), spectra_record(samples, n), "b", n, 0.1, id_names, ids)
        rows = path.read_text().split("\n")
        row_ids = pairs if ids else [(i,) for i in range(len(samples))]
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
def test_simulate_path_bytes_match_step_loop(argv, kind, n, tmp_path, capsys, monkeypatch):
    """simulate-path writes the CSV and --json of paths drawn and solved from
    their structure one step at a time, with the cross-check of the dense
    step at position 0, with chunks of all paths, of one path below two and
    below one path."""
    steps, paths, seed = 5, 4, 23
    cfg = simulate.SimulationConfig(kind=kind, n=n, samples=paths, seed=seed, steps=steps)
    ref = [reference_euler_path(cfg, i) for i in range(paths)]
    samples = [s for path in ref for s in path.samples]
    check = reference_cross_check(reference_euler_path(cfg, 0, dense_spectrum).samples[:1],
                                  samples[:1])
    assert check["rows"] == 1 and check["failures"] == 0
    columns = list(zip(*itertools.product(range(paths), range(steps))))
    write_spectrum_csv(str(tmp_path / "ref.csv"), spectra_record(samples, n), kind, n, 1.0,
                       ("path_id", "step"), columns)
    summary = {
        "paths": paths, "steps": steps,
        "crossings": sum(path.crossing_detected for path in ref),
        "steps_with_broken_clusters": sum(s.multiplicities != (8,) * n for s in samples),
        "min_gap": min(path.min_gap for path in ref),
    }
    row_bytes = 8 * simulate._draw_layout(kind, n).size
    for chunk in (1024, 7, 3):
        monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", chunk * row_bytes)
        out = tmp_path / f"c{chunk}.csv"
        code, text = run(capsys, "simulate-path", *argv, "--steps", str(steps), "--paths",
                         str(paths), "--seed", str(seed), "--json", "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert text == json.dumps({**summary, "cross_check": check}, indent=2) + "\n"


def test_simulate_path_steps_pass_through_chunk_real_form(capsys, monkeypatch):
    """Every step of every path is one row of the chunk pipeline's reduced
    solve, none through a per-step OctonionicMatrix; the chunk builds a real
    form only for the checked step at position 0 of the 18."""
    forms = []
    rows = []
    real_form = simulate.real_form
    reduced = simulate._reduced_spectra
    monkeypatch.setattr(simulate, "real_form",
                        lambda comps: forms.append(len(comps)) or real_form(comps))
    monkeypatch.setattr(simulate, "_reduced_spectra",
                        lambda kind, comps: rows.append(len(comps)) or reduced(kind, comps))
    monkeypatch.setattr(matrices, "real_form", None)
    code, _ = run(capsys, "simulate-path", "--model", "b", "--n", "3", "--steps", "6",
                  "--paths", "3")
    assert code == 0
    assert sum(rows) == 3 * 6
    assert sum(forms) == 1


def test_json_text_writes_non_finite_floats_as_null(tmp_path):
    finite = {"a": 0.1, "b": [1, -0.0, 5e-324], "c": {"d": True, "e": None, "f": "x"}}
    assert json_text(finite) == json.dumps(finite, indent=2)
    payload = {"stderr": np.inf, "beta": [-np.inf, np.nan, 2.5], "deep": {"x": np.inf}}
    write_stats_json(str(tmp_path / "s.json"), payload)
    assert json.loads((tmp_path / "s.json").read_text()) == {
        "stderr": None, "beta": [None, None, 2.5], "deep": {"x": None}}


def test_json_text_matches_the_round_trip():
    """One pass writes the text of dumping, loading with null for NaN and
    the infinities, and dumping again."""
    nan, inf = float("nan"), float("inf")
    payloads = [
        {"a": nan, "b": inf, "c": -inf, "d": 1.5, "e": -0.0, "f": 5e-324},
        {"t": (1, nan, (inf, [-inf, 2.5]), ()), "l": [(), [], {}]},
        {"outer": {"mid": {"inner": {"x": -inf, "y": (nan,)}}, "n": None}, "ok": True},
        {"np": np.float64("nan"), "np2": [np.float64(0.1), np.float64("-inf")]},
        {1: "int key", 2.5: "float key", nan: "nan key", False: "bool key", "s": "\u00fc\n"},
        {"reports": [{"suite": "s", "max_residual": 1e-300, "cases": 10 ** 20}]},
    ]
    for payload in payloads:
        assert json_text(payload) == reference_json_text(payload)


#: The commands of the four benchmark workloads, at their sizes.
BENCHMARK_COMMANDS = [
    ["sample-spectrum", "--model", "a", "--samples", "2000", "--seed", "0"],
    ["sample-spectrum", "--model", "b", "--n", "16", "--samples", "512", "--seed", "0"],
    ["verify-identities", "--model", "a", "--trials", "20", "--seed", "0"],
    ["verify-identities", "--model", "b", "--n", "4", "--trials", "20", "--seed", "0"],
    ["check-dim2", "--trials", "200", "--seed", "0"],
    ["verify-algebra", "--trials", "2000", "--norm-pairs", "20000", "--seed", "0"],
    ["verify-algebra", "--trials", "2000", "--norm-pairs", "20000", "--seed", "0", "--tamper"],
    ["verify-identities", "--model", "b", "--n", "48", "--trials", "4", "--seed", "0"],
]


@pytest.mark.parametrize("argv", BENCHMARK_COMMANDS, ids=" ".join)
def test_json_files_match_the_round_trip(argv, tmp_path, capsys, monkeypatch):
    """Every JSON file the benchmark commands write holds the round trip's
    text of its payload."""
    written = []
    monkeypatch.setattr(cli, "write_stats_json", lambda path, payload: written.append(
        (path, payload)) or write_stats_json(path, payload))
    run(capsys, *argv, "--out", str(tmp_path / "out"))
    assert len(written) == 2  # the payload and the manifest
    for path, payload in written:
        assert Path(path).read_text() == reference_json_text(payload) + "\n"


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
                                                         capsys, monkeypatch):
    """The batched sampler writes the bytes of a one-sample-at-a-time
    pipeline solved from the structure, and the cross-check of its dense real
    form at every 64th sample, also for chunks smaller than the run."""
    seed = 17
    cfg = simulate.SimulationConfig(kind=kind, n=n, samples=samples, seed=seed)
    comps = [simulate.sample_components(cfg, i) for i in range(samples)]
    spectra = [reduced_spectrum(kind, c, cfg.cluster_tol) for c in comps]
    check = reference_cross_check(
        [dense_spectrum(kind, c, cfg.cluster_tol) for c in comps[::64]], spectra[::64])
    assert check["rows"] == -(-samples // 64) and check["failures"] == 0
    write_spectrum_csv(str(tmp_path / "ref.csv"), spectra_record(spectra, n), kind, n, 1.0)
    expected_csv = (tmp_path / "ref.csv").read_bytes()
    try:
        stats = simulate.gap_statistics(spectra_record(spectra, n))
    except InsufficientData:
        stats = None
    else:
        write_stats_json(str(tmp_path / "ref.json"), {
            "model": kind, "n": n, "t": 1.0, "samples": samples,
            "moment2": stats.moment2, "moment4": stats.moment4, "ratio": stats.ratio,
            "implied_beta": stats.implied_beta, "stderr": stats.stderr, "seed": seed,
        })
    row_bytes = 8 * simulate._draw_layout(kind, n).size
    for chunk in (1024, 16):
        monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", chunk * row_bytes)
        out = tmp_path / f"c{chunk}.csv"
        code, text = run(capsys, "sample-spectrum", *argv, "--seed", str(seed), "--json",
                         "--out", str(out))
        assert code == 0
        assert json.loads(text)["cross_check"] == check
        assert out.read_bytes() == expected_csv
        stats_path = tmp_path / f"c{chunk}.csv.stats.json"
        if stats is not None:
            assert stats_path.read_bytes() == (tmp_path / "ref.json").read_bytes()
        else:
            assert not stats_path.exists()


def read_spectrum_csv(path: Path, n: int):
    """Distinct values (rows, n), multiplicities and spreads of a spectrum CSV."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return (np.array([[float(c) for c in row[4:4 + n]] for row in rows]),
            [tuple(int(c) for c in row[4 + n:4 + 2 * n]) for row in rows],
            [float(row[-1]) for row in rows])


@pytest.mark.parametrize("t", ["1", "1e300"])
@pytest.mark.parametrize("kind,n,samples", [("a", 2, 300), ("b", 3, 200), ("b", 5, 100),
                                            ("b", 16, 24)], ids=["a", "b3", "b5", "b16"])
def test_sample_spectrum_agrees_with_dense_real_form(kind, n, samples, t, tmp_path, capsys):
    """Every CSV row is within 1e-10 (1 + spectral radius) of the dense
    pipeline, the block-by-block real form of its draw eigensolved alone and
    clustered, with the same multiplicities; the spread column reads 0, as
    each value is written eight times."""
    out = tmp_path / "spec.csv"
    code, _ = run(capsys, "sample-spectrum", "--model", kind, "--n", str(n), "--samples",
                  str(samples), "--t", t, "--seed", "5", "--out", str(out))
    assert code == 0
    values, mults, spreads = read_spectrum_csv(out, n)
    cfg = simulate.SimulationConfig(kind=kind, n=n, t=float(t), samples=samples, seed=5)
    for i in range(samples):
        dense = dense_spectrum(kind, simulate.sample_components(cfg, i), cfg.cluster_tol)
        assert mults[i] == dense.multiplicities == (8,) * n
        scale = 1.0 + np.max(np.abs(dense.distinct))
        assert np.max(np.abs(values[i] - dense.distinct)) <= 1e-10 * scale
    assert set(spreads) == {0.0}


@pytest.mark.parametrize("argv,rows", [
    (["sample-spectrum", "--model", "a", "--samples", "300"], 300),
    (["sample-spectrum", "--model", "b", "--n", "4", "--samples", "129"], 129),
    (["sample-spectrum", "--model", "b", "--n", "3", "--samples", "64"], 64),
    (["simulate-path", "--model", "a", "--steps", "13", "--paths", "10"], 130),
    (["simulate-path", "--model", "b", "--n", "3", "--steps", "64", "--paths", "3"], 192),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_cross_check_counts_every_64th_row(argv, rows, tmp_path, capsys):
    """The --json and the manifest carry one cross_check block: every 64th
    row, ceil(rows / 64) of them, checked without a failure."""
    out = tmp_path / "out.csv"
    code, text = run(capsys, *argv, "--json", "--out", str(out))
    assert code == 0
    block = json.loads(text)["cross_check"]
    assert block == json.loads((tmp_path / "out.csv.manifest.json").read_text())["cross_check"]
    assert block["rows"] == -(-rows // 64) and block["failures"] == 0
    assert 0.0 <= block["max_mismatch"] <= 1e-10
    assert 0.0 <= block["max_spread"] < 1e-10


def _scaled_q(reduced, factor):
    """``_reduced_spectra`` of stacks whose entry q (and its conjugate) is
    scaled by ``factor``."""
    def solve(kind, comps):
        comps = comps.copy()
        comps[..., :, 0, 1] *= factor
        comps[..., :, 1, 0] *= factor
        return reduced(kind, comps)
    return solve


def _negated_shared(reduced):
    """``_reduced_spectra`` of model-b stacks with S negated."""
    def solve(kind, comps):
        comps = comps.copy()
        comps[..., 1, :, :] *= -1.0
        return reduced(kind, comps)
    return solve


@pytest.mark.parametrize("argv,patch", [
    (["--model", "b", "--n", "4", "--samples", "200"],
     lambda mp: mp.setattr(simulate, "HERMITIAN_ROOT", math.sqrt(6.0))),
    (["--model", "a", "--samples", "200"],
     lambda mp: mp.setattr(simulate, "_reduced_spectra", _scaled_q(simulate._reduced_spectra,
                                                                    1.01))),
], ids=["root-sqrt6", "q-times-1.01"])
def test_cross_check_negative_controls(argv, patch, capsys, monkeypatch):
    """A wrong reduction fails the cross-check: the root sqrt(6) for model b
    and q scaled by 1.01 for model a make sample-spectrum exit 1 with a
    failure on every checked row.  (Negating S is no control: M^0 - i sqrt(7)
    S is the complex conjugate of M^0 + i sqrt(7) S and has its spectrum, so
    that run passes.)"""
    patch(monkeypatch)
    code, text = run(capsys, "sample-spectrum", *argv, "--json")
    block = json.loads(text)["cross_check"]
    assert code == 1
    assert block["failures"] == block["rows"] == 4
    assert block["max_mismatch"] > 1e-10
    monkeypatch.undo()
    monkeypatch.setattr(simulate, "_reduced_spectra", _negated_shared(simulate._reduced_spectra))
    code, text = run(capsys, "sample-spectrum", "--model", "b", "--n", "4", "--samples", "200",
                     "--json")
    assert code == 0 and json.loads(text)["cross_check"]["failures"] == 0


@pytest.mark.parametrize("argv,n", [
    (["sample-spectrum", "--model", "a", "--samples", "300"], 2),
    (["sample-spectrum", "--model", "b", "--n", "5", "--samples", "140"], 5),
    (["simulate-path", "--model", "b", "--n", "3", "--steps", "30", "--paths", "5"], 3),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bytes_do_not_depend_on_batch_bytes(argv, n, tmp_path, capsys, monkeypatch):
    """Reduced batches of one to three rows write the CSV and --json of the
    default batch bytes: the bound caps memory only."""
    written = []
    for batch_bytes in (algebra.FORM_BATCH_BYTES, 3 * 64 * n * n):
        monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", batch_bytes)
        out = tmp_path / f"{batch_bytes}.csv"
        code, text = run(capsys, *argv, "--json", "--out", str(out))
        assert code == 0
        written.append((text, out.read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--trials", "50", "--norm-pairs", "200"],
    ["verify-identities", "--model", "a", "--trials", "3"],
    ["sample-spectrum", "--model", "a", "--samples", "300"],
    ["sample-spectrum", "--model", "b", "--n", "3", "--samples", "20"],
    ["sample-spectrum", "--model", "b", "--n", "3", "--samples", "200"],
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


@pytest.mark.parametrize("tamper", [False, True], ids=["genuine", "tamper"])
def test_verify_algebra_is_tile_invariant(tamper, capsys, monkeypatch):
    """At the identities-small sizes verify-algebra reports the same, bar
    elapsed_ms, and exits the same (1 under --tamper) with product tiles of
    one row and of seven rows as with the default."""
    argv = ["verify-algebra", "--trials", "2000", "--norm-pairs", "20000"]
    argv += ["--tamper"] if tamper else []
    default = _suite_json(capsys, argv)
    assert default[0] == int(tamper)
    for rows in (1, 7):
        # 88 coordinates of 8 bytes per float64 tile row
        monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", rows * 88 * 8)
        assert algebra._tile_rows(np.float64) == rows
        assert _suite_json(capsys, argv) == default


@pytest.mark.parametrize("argv", [
    ["verify-algebra", "--trials", "400", "--norm-pairs", "3000", "--seed", "3"],
    ["verify-algebra", "--trials", "400", "--norm-pairs", "3000", "--seed", "3", "--tamper"],
    # the sizes of the identities-small benchmark workload
    ["verify-algebra", "--trials", "2000", "--norm-pairs", "20000", "--seed", "0"],
    ["verify-algebra", "--trials", "2000", "--norm-pairs", "20000", "--seed", "0", "--tamper"],
    ["check-dim2", "--trials", "80", "--seed", "2"],
    ["verify-identities", "--model", "a", "--trials", "15", "--seed", "5"],
], ids=" ".join)
def test_suite_json_matches_reference_kernels(argv, capsys, monkeypatch):
    """The stacked kernels print the JSON of the loop and dense references:
    the einsum product, the structured inverse with three factorisations of
    M^0 taken one stack entry at a time (raising for the resolvents, masked
    for the round trip), per-entry finite differences of each matrix of the
    stack, and per-component dimension-2 traces of one draw at a time."""
    got = _suite_json(capsys, argv)
    monkeypatch.setattr(algebra, "_multiplier", einsum_multiplier)
    monkeypatch.setattr(matrices, "_oct_inverse_stack", lambda comps: np.array(
        [reference_oct_inverse(OctonionicMatrix(c)).components for c in comps]))
    monkeypatch.setattr(verify, "_oct_inverse_masked", reference_oct_inverse_masked)
    monkeypatch.setattr(matrices, "fd_logdet_gradient", lambda mats: np.array(
        [reference_fd_logdet_gradient(m) for m in mats]))
    monkeypatch.setattr(matrices, "fd_logdet_hessian", lambda mats: np.array(
        [reference_fd_logdet_hessian(m) for m in mats]))
    monkeypatch.setattr(matrices, "_dim2_trace_residuals", lambda ux, uy: np.array(
        [reference_dim2_trace_residuals(a, b) for a, b in zip(ux, uy)]))
    assert _suite_json(capsys, argv) == got
