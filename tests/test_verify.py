"""Verification suites: the residual tally, large-n charpoly data, negative
controls that must make the closed-form suite fail, the pairing kernel and
the batched trace suite against their loops, and the resolvent memo."""

import json

import numpy as np
import pytest

from octodyson import (
    CharPolyEval,
    DiffusionModel,
    IdentityReport,
    SimulationConfig,
    calculus,
    matrices,
    model_a,
    model_b,
    sample_matrix,
)
from octodyson.calculus import generator_charpoly_ratio, measure_coefficients
from octodyson.matrices import OctonionicMatrix, off_spectrum_points, separated_shifts
from octodyson.verify import check_closed_forms, check_trace_identities

from oracles import (
    reference_check_trace_identities,
    reference_gamma_log_charpoly,
    reference_generator_log_charpoly,
    reference_generator_weights,
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
def test_closed_form_trial_inverts_once_per_shift(kernel_calls, model):
    # Gamma(x, y), Gamma(y, x) and L(x) ask for five resolvents at two shifts
    check_closed_forms(model, trials=1)
    assert kernel_calls == [1, 1]


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
