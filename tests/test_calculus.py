"""Carre-du-champ calculus: quadruple sums, closed forms, exponents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octodyson import (
    CharPolyEval,
    DiffusionModel,
    ExponentProblem,
    InvalidConfig,
    NoAdmissibleRoot,
    OctonionicMatrix,
    SimulationConfig,
    gamma_closed_form,
    gamma_log_charpoly,
    generator_closed_form,
    generator_log_charpoly,
    invariant_exponent,
    measure_coefficients,
    model_a,
    model_b,
    sample_matrix,
    solve_multiplicity,
)
from octodyson.calculus import STATED_COEFFICIENTS, generator_charpoly_ratio
from octodyson.matrices import off_spectrum_points

from oracles import entry_gamma_tensor, gamma_sum_bruteforce, generator_sum_bruteforce


def draw(kind, n, seed=0, index=0):
    return sample_matrix(SimulationConfig(kind=kind, n=n, t=1.0, samples=1, seed=seed), index)


def shifts(m, rng, min_gap=0.5):
    eigs = np.linalg.eigvalsh(m.real_form())
    x, y = off_spectrum_points(eigs, rng, 2)
    while abs(x - y) < min_gap:
        x, y = off_spectrum_points(eigs, rng, 2)
    return eigs, float(x), float(y)


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 3)])
def test_quadruple_sums_match_entry_level_bruteforce(kind, n):
    """The aggregated evaluators equal the raw entry-tensor sums."""
    rng = np.random.default_rng(100)
    model = DiffusionModel(kind, n)
    tensor = entry_gamma_tensor(kind, n)
    for i in range(3):
        m = draw(kind, n, seed=20, index=i)
        eigs, x, y = shifts(m, rng)
        dim = 8 * n
        ux = np.linalg.inv(m.real_form() - x * np.eye(dim))
        uy = np.linalg.inv(m.real_form() - y * np.eye(dim))
        gam = gamma_log_charpoly(m, x, y, model)
        gam_bf = gamma_sum_bruteforce(ux, uy, tensor)
        assert abs(gam - gam_bf) < 1e-10 * (1 + abs(gam_bf))
        gen = generator_log_charpoly(m, x, model)
        gen_bf = generator_sum_bruteforce(ux, tensor)
        assert abs(gen - gen_bf) < 1e-10 * (1 + abs(gen_bf))


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 3)])
def test_closed_forms(kind, n):
    rng = np.random.default_rng(101)
    model = DiffusionModel(kind, n)
    for i in range(20):
        m = draw(kind, n, seed=21, index=i)
        eigs, x, y = shifts(m, rng)
        px = CharPolyEval.from_eigenvalues(eigs, x)
        py = CharPolyEval.from_eigenvalues(eigs, y)
        gam = gamma_log_charpoly(m, x, y, model)
        assert abs(gam - gamma_closed_form(px, py)) < 1e-8 * abs(gam)
        gen = generator_log_charpoly(m, x, model)
        closed = generator_closed_form(px, model)
        assert abs(gen - closed) < 1e-8 * (1e-3 + abs(closed))


def test_gamma_symmetric_in_shifts():
    rng = np.random.default_rng(102)
    m = draw("a", 2, index=7)
    _, x, y = shifts(m, rng)
    model = model_a()
    g1 = gamma_log_charpoly(m, x, y, model)
    g2 = gamma_log_charpoly(m, y, x, model)
    assert abs(g1 - g2) < 1e-12 * (1 + abs(g1))


def test_gamma_closed_form_invariant_in_dimension_for_shared_model():
    """Same closed form (coefficient 8) for the shared model at n = 2, 3, 4."""
    rng = np.random.default_rng(103)
    for n in (2, 3, 4):
        model = model_b(n)
        m = draw("b", n, seed=22, index=n)
        eigs, x, y = shifts(m, rng)
        gam = gamma_log_charpoly(m, x, y, model)
        px = CharPolyEval.from_eigenvalues(eigs, x)
        py = CharPolyEval.from_eigenvalues(eigs, y)
        assert abs(gam - gamma_closed_form(px, py, alpha3=8.0)) < 1e-8 * abs(gam)


def test_scalar_multiple_closed_form():
    """mu Id on the scalar label: both routes computable by hand."""
    mu = 1.5
    m = OctonionicMatrix.from_scalar_part(mu * np.eye(2))
    model = model_a()
    x, y = 4.0, -3.0
    gam = gamma_log_charpoly(m, x, y, model)
    expected = 64.0 * 2 / ((mu - x) * (mu - y))
    assert abs(gam - expected) < 1e-10 * abs(expected)
    eigs = np.full(16, mu)
    px = CharPolyEval.from_eigenvalues(eigs, x)
    py = CharPolyEval.from_eigenvalues(eigs, y)
    assert abs(gamma_closed_form(px, py) - expected) < 1e-10 * abs(expected)
    gen = generator_log_charpoly(m, x, model)
    assert abs(gen - generator_closed_form(px, model)) < 1e-10 * (1 + abs(gen))


def test_confluent_limit_by_richardson():
    """gamma closed form at (x, x+h) extrapolates to the equal-shift value."""
    m = draw("a", 2, index=9)
    eigs = np.linalg.eigvalsh(m.real_form())
    x = float(np.max(np.abs(eigs))) + 1.5
    px = CharPolyEval.from_eigenvalues(eigs, x)
    target = gamma_closed_form(px, px)  # analytic limit: 8 * curvature
    h1, h2 = 1e-3, 5e-4
    g1 = gamma_closed_form(px, CharPolyEval.from_eigenvalues(eigs, x + h1))
    g2 = gamma_closed_form(px, CharPolyEval.from_eigenvalues(eigs, x + h2))
    richardson = 2.0 * g2 - g1  # first-order error cancels
    assert abs(richardson - target) < 1e-5 * abs(target)
    # and the quadruple sum needs no limit at all
    model = model_a()
    assert abs(gamma_log_charpoly(m, x, x, model) - target) < 1e-8 * abs(target)


def test_generator_ratio_change_of_variables():
    """L(p)/p = L(log p) + Gamma(log p, log p) matches the coefficient form."""
    rng = np.random.default_rng(104)
    for kind, n in (("a", 2), ("b", 3)):
        model = DiffusionModel(kind, n)
        stated = STATED_COEFFICIENTS[kind]
        m = draw(kind, n, seed=23, index=1)
        eigs, x, _ = shifts(m, rng)
        ratio = generator_charpoly_ratio(m, x, model)
        px = CharPolyEval.from_eigenvalues(eigs, x)
        expected = (stated.alpha1 * (px.dlog ** 2 - px.curvature)
                    + stated.alpha2 * px.dlog ** 2)
        assert abs(ratio - expected) < 1e-8 * (1 + abs(expected))


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 3), ("b", 4)])
def test_measured_coefficients(kind, n):
    model = DiffusionModel(kind, n)
    stated = STATED_COEFFICIENTS[kind]
    m = draw(kind, n, seed=24, index=0)
    measured = measure_coefficients(model, m, np.random.default_rng(105))
    assert abs(measured.alpha1 - stated.alpha1) < 1e-6
    assert abs(measured.alpha2 - stated.alpha2) < 1e-6
    assert abs(measured.alpha3 - stated.alpha3) < 1e-6


def test_solve_multiplicity_models():
    res_a = solve_multiplicity(ExponentProblem(-11.0, 10.5, 8.0))
    assert res_a.a == 8.0 and res_a.roots == (-2.0, 8.0)
    assert res_a.is_positive_integer and res_a.residual < 1e-12
    res_b = solve_multiplicity(ExponentProblem(-8.0, 7.875, 8.0))
    assert res_b.a == 8.0 and res_b.roots == (-8.0, 8.0)
    assert res_b.residual < 1e-12


def test_solve_multiplicity_small_lead_coefficient():
    # with a1 + a2 = 2^-24 the roots are about 1 and 1.4e8; the textbook
    # formula loses the small root to cancellation (relative error 7.6e-9)
    res = solve_multiplicity(ExponentProblem(0.0, 2.0 ** -24, 8.1388))
    assert abs(res.roots[0] - 1.0000000073235177) <= 1e-15 * 1.0000000073235177


def test_solve_multiplicity_hand_case():
    res = solve_multiplicity(ExponentProblem(-1.0, 0.0, 1.0))
    assert res.a == 1.0


def test_solve_multiplicity_errors():
    with pytest.raises(NoAdmissibleRoot):
        solve_multiplicity(ExponentProblem(1.0, 1.0, 1.0))  # complex roots
    with pytest.raises(NoAdmissibleRoot):
        solve_multiplicity(ExponentProblem(-5.0, 6.0, 2.0))  # roots -2, -1
    with pytest.raises(InvalidConfig):
        solve_multiplicity(ExponentProblem(-1.0, 1.0, 1.0))  # degenerate lead


@settings(max_examples=100)
@given(
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
    st.floats(-20, 20, allow_nan=False),
)
def test_solve_multiplicity_residual_property(a1, a2, a3):
    prob = ExponentProblem(a1, a2, a3)
    if abs(a1 + a2) < 1e-9:  # near-degenerate lead: roots lose meaning in float
        return
    try:
        res = solve_multiplicity(prob)
    except NoAdmissibleRoot:
        return
    value = res.a ** 2 * (a1 + a2) - res.a * (a1 + a3) + a3
    assert abs(value) < 1e-9 * (1 + res.a ** 2 * (abs(a1) + abs(a2)))


def test_invariant_exponents():
    assert invariant_exponent(ExponentProblem(-11.0, 10.5, 8.0), 8.0) == 4.0
    assert invariant_exponent(ExponentProblem(-8.0, 7.875, 8.0), 8.0) == 1.0
    assert invariant_exponent(ExponentProblem(-11.0, 10.5, 8.0), 0.0) == 0.0
    assert invariant_exponent(ExponentProblem(-1.0, 0.0, 1.0), 1.0) == 1.0
    with pytest.raises(InvalidConfig):
        invariant_exponent(ExponentProblem(-1.0, 2.0, 0.0), 1.0)


def test_model_validation():
    with pytest.raises(InvalidConfig):
        DiffusionModel("a", 3)
    with pytest.raises(InvalidConfig):
        DiffusionModel("c", 2)
    assert model_a().n == 2
    assert model_b(4).n == 4
