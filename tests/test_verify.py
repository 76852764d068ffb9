"""Verification suites: the residual tally, large-n charpoly data, negative
controls that must make the closed-form suite fail, the pairing kernel and
the batched suites against their trial loops, the round trip's redraw, skip
and give-up paths, the stacked calls each suite makes, and the resolvent memo."""

import json

import numpy as np
import pytest

from octodyson import (
    CharPolyEval,
    DiffusionModel,
    IdentityReport,
    SimulationConfig,
    calculus,
    cli,
    matrices,
    model_a,
    model_b,
    sample_matrix,
    simulate,
    verify,
)
from octodyson.calculus import generator_charpoly_ratio, measure_coefficients
from octodyson.errors import Error, SingularCore
from octodyson.matrices import OctonionicMatrix, off_spectrum_points, separated_shifts
from octodyson.verify import check_closed_forms, check_inverse_roundtrip, check_trace_identities

from oracles import (
    reference_check_closed_forms,
    reference_check_inverse_roundtrip,
    reference_check_trace_identities,
    reference_gamma_log_charpoly,
    reference_generator_log_charpoly,
    reference_generator_weights,
    reference_oct_inverse,
)


def test_non_finite_residuals_fail():
    report = IdentityReport("tally")
    report.record(0.5, 1.0)
    report.record(float("nan"), 1.0)
    report.record(float("inf"), 1.0)
    report.record(np.array([0.0, np.nan]), 1.0)
    assert (report.cases, report.failures, report.max_residual) == (5, 3, 0.5)
    assert report.nonfinite == 3
    assert not report.passed
    json.dumps(report.to_dict(), allow_nan=False)


def test_nan_residual_is_a_failure_and_nonfinite():
    """A NaN residual fails its case and is counted as non-finite, in the
    report's dict and its summary line; max_residual keeps the finite ones."""
    report = IdentityReport("tally")
    report.record(np.array([0.25, np.nan]), 1.0)
    assert (report.cases, report.failures, report.nonfinite) == (2, 1, 1)
    assert report.max_residual == 0.25
    assert report.to_dict()["nonfinite"] == 1
    assert "failures=1 " in report.summary() and "nonfinite=1 " in report.summary()


def test_check_array_counts_one_case_per_entry():
    ok = np.array([[True, False, True], [False, True, True]])
    whole = IdentityReport("tally")
    whole.record(0.25, 1.0)
    whole.check(ok)
    single = IdentityReport("tally")
    single.record(0.25, 1.0)
    for entry in ok.ravel():
        single.check(entry)
    assert (whole.cases, whole.failures) == (single.cases, single.failures) == (7, 2)
    assert whole.max_residual == single.max_residual == 0.25
    single.check(False)
    single.check(True)
    assert (single.cases, single.failures) == (9, 3)


def test_charpoly_power_sums_at_n48():
    # p(x) is a product of 384 factors of modulus above 1 here: it
    # overflows, while its logarithmic derivatives are ordinary numbers
    m = sample_matrix(SimulationConfig(kind="b", n=48, t=1.0, samples=1, seed=0), 0)
    eigs = m.eigenvalues
    x = float(off_spectrum_points(eigs, np.random.default_rng(0))[0])
    ev = CharPolyEval.from_eigenvalues(eigs, x)
    s1 = 0.0
    s2 = 0.0
    for lam in eigs.tolist():
        s1 += 1.0 / (lam - x)
        s2 += 1.0 / (lam - x) ** 2
    assert np.isfinite(ev.dlog) and np.isfinite(ev.curvature)
    assert abs(ev.dlog + s1) <= 1e-12 * abs(s1)
    assert abs(ev.curvature - s2) <= 1e-12 * s2
    assert check_closed_forms(model_b(48), trials=1).passed
    assert check_trace_identities("b", 48, trials=1).passed


@pytest.fixture
def perturb(monkeypatch):
    """Monkeypatch with the cached Gamma weight tables cleared before the
    test and after its patches are undone."""
    calculus._gamma_weights.cache_clear()
    calculus._generator_weights.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    calculus._gamma_weights.cache_clear()
    calculus._generator_weights.cache_clear()


@pytest.mark.parametrize("model", [model_a(), model_b(3)], ids=["a", "b3"])
def test_closed_forms_fail_with_scaled_gamma(perturb, model):
    stated = DiffusionModel.gamma_coefficients
    perturb.setattr(DiffusionModel, "gamma_coefficients",
                    lambda self, f, g: tuple(1.01 * c for c in stated(self, f, g)))
    assert not check_closed_forms(model, trials=5).passed


def test_closed_forms_fail_with_perturbed_antisym_rate(perturb):
    perturb.setattr(calculus, "MODEL_B_ANTISYM_RATE", 1.0 / 13.0)
    assert not check_closed_forms(model_b(3), trials=5).passed
    assert check_closed_forms(model_a(), trials=5).passed


def _scale_gamma(patch):
    stated = DiffusionModel.gamma_coefficients
    patch.setattr(DiffusionModel, "gamma_coefficients",
                  lambda self, f, g: tuple(1.01 * c for c in stated(self, f, g)))


def _antisym_rate(patch):
    patch.setattr(calculus, "MODEL_B_ANTISYM_RATE", 1.0 / 13.0)


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("patch", [None, _scale_gamma, _antisym_rate],
                         ids=["stated", "scaled-gamma", "antisym-rate"])
def test_generator_weights_match_quadruple_loop(perturb, patch, kind):
    """The stacked weights equal the quadruple loop's bytes, also under the
    negative-control patches, which must reach both."""
    if patch is not None:
        patch(perturb)
    got = calculus._generator_weights(kind)
    want = reference_generator_weights(kind)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind", ["a", "b"])
@pytest.mark.parametrize("patch", [None, _scale_gamma, _antisym_rate],
                         ids=["stated", "scaled-gamma", "antisym-rate"])
def test_pairing_kernel_matches_label_loops(perturb, patch, kind):
    """Gamma and L from the weighted Gram and trace pairings equal the label
    loops to rounding, also under the negative-control patches.  The loops'
    sequential sums are the larger error: about 40 ulp at n = 3, where the
    pairing kernel is within 2 ulp of the exact sum."""
    if patch is not None:
        patch(perturb)
    model = model_a() if kind == "a" else model_b(3)
    rng = np.random.default_rng(11)
    for index in range(4):
        m = sample_matrix(SimulationConfig(kind=kind, n=model.n, seed=5), index)
        x, y = separated_shifts(m.eigenvalues, rng)
        for got, want in (
                (calculus.gamma_log_charpoly(m, x, y, model),
                 reference_gamma_log_charpoly(m, x, y, model)),
                (calculus.gamma_log_charpoly(m, y, y, model),
                 reference_gamma_log_charpoly(m, y, y, model)),
                (calculus.generator_log_charpoly(m, x, model),
                 reference_generator_log_charpoly(m, x, model))):
            assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("kind,n,trials", [("a", 2, 20), ("b", 3, 20), ("b", 48, 2)])
def test_trace_suite_matches_trial_loop(kind, n, trials):
    got = check_trace_identities(kind, n, trials=trials, seed=4).to_dict()
    want = reference_check_trace_identities(kind, n, trials, seed=4).to_dict()
    del got["elapsed_ms"], want["elapsed_ms"]
    assert got == want


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the calls of the stacked structured-inverse kernel."""
    calls = []
    kernel = matrices._oct_inverse_stack

    def counted(comps):
        calls.append(len(comps))
        return kernel(comps)

    monkeypatch.setattr(matrices, "_oct_inverse_stack", counted)
    return calls


@pytest.mark.parametrize("model", [model_a(), model_b(3)], ids=["a", "b3"])
def test_closed_form_trial_inverts_once_per_shift(kernel_calls, monkeypatch, model):
    """Gamma(x, y), Gamma(y, x) and L(x) ask for five resolvents at two shifts
    per trial; one kernel call per batch takes both shifts of every trial."""
    check_closed_forms(model, trials=5)
    assert kernel_calls == [10]
    kernel_calls.clear()
    monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", 3 * 8 * (8 * model.n) ** 2)
    check_closed_forms(model, trials=5)
    assert kernel_calls == [6, 4]


@pytest.mark.parametrize("model", [model_a(), model_b(3)], ids=["a", "b3"])
def test_closed_form_suite_calls_the_calculus_per_trial(monkeypatch, model):
    """Per trial, in this order, through the names the suite module binds:
    Gamma(x, y), its closed form, Gamma(y, x), L(x) and its closed form,
    with one matrix and one pair of shifts; the benchmark's recorder reads
    the calls in this pattern."""
    calls = []
    for name in ("gamma_log_charpoly", "gamma_closed_form",
                 "generator_log_charpoly", "generator_closed_form"):
        def record(*args, _name=name, _fn=getattr(verify, name)):
            calls.append((_name, args))
            return _fn(*args)
        monkeypatch.setattr(verify, name, record)
    monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", 3 * 8 * (8 * model.n) ** 2)
    check_closed_forms(model, trials=4, seed=2)
    pattern = ("gamma_log_charpoly", "gamma_closed_form", "gamma_log_charpoly",
               "generator_log_charpoly", "generator_closed_form")
    assert [name for name, _ in calls] == list(pattern) * 4
    cfg = SimulationConfig(model.kind, model.n, seed=2)
    for trial in range(4):
        (_, (m, x, y, mod)), (_, (px, py)), (_, (m2, y2, x2, _)), \
            (_, (m3, x3, _)), (_, (px2, _)) = calls[5 * trial:5 * trial + 5]
        assert m is m2 is m3 and mod == model
        assert np.array_equal(m.components, sample_matrix(cfg, trial).components)
        assert (x, y) == (x2, y2) == (px.x, py.x) and x3 == x == px2.x


def _report(report: IdentityReport) -> dict:
    out = report.to_dict()
    del out["elapsed_ms"]
    return out


SUITE_SIZES = [(model_a(), 20), (model_b(4), 20), (model_b(48), 2)]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("model,trials", SUITE_SIZES, ids=["a", "b4", "b48"])
@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "three-per-batch"])
def test_closed_form_suite_matches_trial_loop(monkeypatch, batch, model, trials, seed):
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 8 * (8 * model.n) ** 2)
    assert (_report(check_closed_forms(model, trials, seed))
            == _report(reference_check_closed_forms(model, trials, seed)))


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("model,trials", SUITE_SIZES, ids=["a", "b4", "b48"])
@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "three-per-batch"])
def test_roundtrip_suite_matches_trial_loop(monkeypatch, batch, model, trials, seed):
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 8 * (8 * model.n) ** 2)
    assert (_report(check_inverse_roundtrip(model.kind, model.n, trials, seed))
            == _report(reference_check_inverse_roundtrip(model.kind, model.n, trials, seed)))


@pytest.fixture
def drawn(monkeypatch):
    """The indices the round trip draws, in order."""
    indices = []

    def recorded(cfg, rows):
        indices.extend(rows)
        return simulate.sample_stack(cfg, rows)

    monkeypatch.setattr(verify, "sample_stack", recorded)
    return indices


@pytest.mark.parametrize("kind,n,limit", [("a", 2, 2.0), ("b", 4, 5.0)])
@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "three-per-batch"])
def test_roundtrip_redraws_inside_a_batch(monkeypatch, drawn, batch, kind, n, limit):
    """A limit that rejects about half the draws: the rejected ones are
    redrawn in later batches and the report is the trial loop's."""
    monkeypatch.setattr(verify, "ROUNDTRIP_COND_LIMIT", limit)
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 8 * (8 * n) ** 2)
    got = check_inverse_roundtrip(kind, n, trials=12, seed=0)
    assert got.cases == 12 and len(drawn) > 18
    assert drawn == list(range(len(drawn)))
    assert _report(got) == _report(reference_check_inverse_roundtrip(kind, n, 12, 0))


def test_roundtrip_skips_a_refused_inverse(monkeypatch, drawn):
    """An entry the masked kernel marks as failed is skipped, as the trial
    loop skips a draw whose structured inverse raises."""
    cfg = SimulationConfig("a", 2, seed=1)
    doomed = sample_matrix(cfg, 3).components
    kernel = matrices._oct_inverse_masked
    forced = []

    def refusing(comps):
        out, errors = kernel(comps)
        for i, c in enumerate(comps):
            if np.array_equal(c, doomed):
                errors[i] = SingularCore("forced")
                forced.append(i)
        return out, errors

    def reference_refusing(m):
        if np.array_equal(m.components, doomed):
            raise SingularCore("forced")
        return reference_oct_inverse(m)

    monkeypatch.setattr(verify, "_oct_inverse_masked", refusing)
    got = check_inverse_roundtrip("a", 2, trials=10, seed=1)
    assert forced == [3] and got.cases == 10 and drawn == list(range(11))
    assert _report(got) == _report(
        reference_check_inverse_roundtrip("a", 2, 10, 1, inverse=reference_refusing))


@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "three-per-batch"])
def test_roundtrip_gives_up_below_its_draw_bound(monkeypatch, drawn, batch):
    """With every draw rejected the suite raises the trial loop's error after
    drawing each index below 20 trials + 100 once, and none beyond."""
    monkeypatch.setattr(verify, "ROUNDTRIP_COND_LIMIT", 0.0)
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 8 * 16 ** 2)
    with pytest.raises(Error) as want:
        reference_check_inverse_roundtrip("a", 2, 5, 0)
    with pytest.raises(Error) as got:
        check_inverse_roundtrip("a", 2, trials=5, seed=0)
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert drawn == list(range(20 * 5 + 100))


@pytest.fixture
def numpy_calls(monkeypatch):
    """Counts the calls of numpy's eigvalsh, inv and slogdet by name."""
    calls = []
    for name in ("eigvalsh", "inv", "slogdet"):
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def eigensolve_sides(monkeypatch):
    """The side of every matrix numpy's eigvalsh solves, call by call."""
    sides = []
    solve = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sides.append(np.shape(a)[-1])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return sides


def test_roundtrip_stacks_each_batch(numpy_calls, eigensolve_sides, monkeypatch):
    """Twenty trials at n = 2 are one batch: no eigensolve (the condition
    filter reads the planar closed form), one structured inverse (whose two
    guarded LU inverses are the only dense ones)."""
    kernel_calls = []
    kernel = matrices._oct_inverse_masked

    def counted(comps):
        kernel_calls.append(len(comps))
        return kernel(comps)

    monkeypatch.setattr(verify, "_oct_inverse_masked", counted)
    assert check_inverse_roundtrip("a", 2, trials=20, seed=0).cases == 20
    assert kernel_calls == [20]
    assert numpy_calls == ["inv", "inv"]
    assert 8 * 2 not in eigensolve_sides


@pytest.mark.parametrize("argv,n", [
    (["verify-identities", "--model", "b", "--n", "8", "--trials", "20"], 8),
    (["check-dim2", "--trials", "20"], 2),
], ids=["verify-identities-b8", "check-dim2"])
def test_suites_eigensolve_no_real_form(eigensolve_sides, capsys, argv, n):
    """The identity commands take their spectra from the n x n reduction:
    numpy's eigvalsh never sees a matrix of side 8n."""
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert set(eigensolve_sides) <= {n}


def _wide_half_gap(reduced):
    """``_reduced_spectra`` with model a's half-gap scaled by 1.01."""
    def solve(kind, comps):
        lo, hi = np.moveaxis(reduced(kind, comps), -1, 0)
        mid, half = 0.5 * lo + 0.5 * hi, 1.01 * (0.5 * hi - 0.5 * lo)
        return np.stack([mid - half, mid + half], axis=-1)
    return solve


@pytest.mark.parametrize("model,patch", [
    (model_b(4), lambda mp: mp.setattr(simulate, "HERMITIAN_ROOT", np.sqrt(6.0))),
    (model_a(), lambda mp: mp.setattr(simulate, "_reduced_spectra",
                                      _wide_half_gap(simulate._reduced_spectra))),
], ids=["b4-root-sqrt6", "a-half-gap-times-1.01"])
def test_wrong_reduction_fails_both_suites(monkeypatch, model, patch):
    """A wrong reduced spectrum fails the trace suite's dlog, sq and cross
    identities, which compare it with the dense LU inverses, and the closed
    forms' Gamma and generator cases, which compare it with the resolvents'
    quadruple sums; the symmetry cases pass."""
    patch(monkeypatch)
    trace = check_trace_identities(model.kind, model.n, 20, 1)
    closed = check_closed_forms(model, 20, 0)
    assert (trace.failures, trace.cases) == (60, 120)
    assert (closed.failures, closed.cases) == (40, 60)


def test_logdet_suite_stacks_its_derivatives(numpy_calls):
    """After the draws, one inverse for the analytic derivatives, one
    ``slogdet`` and one ``inv`` over the stencil stack."""
    assert matrices.check_logdet_derivatives(count=20, seed=3).cases == 40
    assert numpy_calls == ["inv", "slogdet", "inv"]


def test_charpoly_ratio_inverts_once(kernel_calls):
    m = sample_matrix(SimulationConfig(kind="b", n=3, seed=2), 0)
    x = float(off_spectrum_points(m.eigenvalues, np.random.default_rng(1))[0])
    generator_charpoly_ratio(m, x, model_b(3))
    assert kernel_calls == [1]


@pytest.mark.parametrize("model", [model_a(), model_b(4)], ids=["a", "b4"])
def test_memo_leaves_measured_coefficients_unchanged(monkeypatch, model):
    m = sample_matrix(SimulationConfig(kind=model.kind, n=model.n, seed=8), 3)
    memoised = measure_coefficients(model, m, np.random.default_rng(105))
    monkeypatch.setattr(calculus, "resolvent",
                        lambda mat, x: OctonionicMatrix(matrices._resolvents(
                            mat.components[None], mat.eigenvalues[None], [[x]])[0, 0]))
    fresh = sample_matrix(SimulationConfig(kind=model.kind, n=model.n, seed=8), 3)
    assert measure_coefficients(model, fresh, np.random.default_rng(105)) == memoised
