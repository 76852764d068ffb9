"""Component/real-form matrices, structured inversion, resolvents, probes."""

import numpy as np
import pytest

from octodyson import (
    CharPolyEval,
    InvalidArgument,
    NearSingularShift,
    NotSymmCompatible,
    NotSymmetric,
    OctonionicMatrix,
    SimulationConfig,
    SingularBase,
    SingularCore,
    matrices,
    oct_inverse,
    real_form,
    resolvent,
    sample_matrix,
)
from octodyson.algebra import CANONICAL_LABELS, subset_label
from octodyson.matrices import (
    ANTISYM_UNIT_2,
    _dim2_trace_residuals,
    _oct_inverse_masked,
    _oct_inverse_stack,
    _resolvents,
    check_dim2_identities,
    check_logdet_derivatives,
    dim3_counterexample,
    fd_logdet_gradient,
    fd_logdet_hessian,
    logdet_gradient,
    off_spectrum_points,
    symm_compatibility_residual,
    trace_identity_residuals,
)

from oracles import (
    components_from_real_form,
    octonionic_residual,
    reference_check_dim2_identities,
    reference_check_logdet_derivatives,
    reference_dim2_trace_residuals,
    reference_fd_logdet_gradient,
    reference_fd_logdet_hessian,
    reference_oct_inverse,
    reference_real_form,
    symm_compatibility_residual_by_pair,
)

RNG = np.random.default_rng(2024)


def draw(kind="a", n=2, seed=0, index=0):
    return sample_matrix(SimulationConfig(kind=kind, n=n, t=1.0, samples=1, seed=seed), index)


def stacked(mats):
    """Components and spectra of ``mats``, stacked as the array kernels take them."""
    return np.stack([m.components for m in mats]), np.stack([m.eigenvalues for m in mats])


def shifted(m, x):
    """``m - x Id``: the shift acts on the scalar component."""
    comps = m.components.copy()
    comps[0] = comps[0] - x * np.eye(m.n)
    return OctonionicMatrix(comps)


def test_identity_real_form():
    m = OctonionicMatrix.from_scalar_part(np.eye(2))
    np.testing.assert_array_equal(m.real_form(), np.eye(16))


def test_block_of_single_component():
    # the ({1}, empty) block of the real form is the {1} component itself
    comps = np.zeros((8, 2, 2))
    comps[subset_label([1])] = ANTISYM_UNIT_2
    rf = real_form(comps)
    pos = CANONICAL_LABELS.index(subset_label([1]))
    np.testing.assert_array_equal(rf[2 * pos:2 * pos + 2, 0:2], ANTISYM_UNIT_2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_form_matches_block_reference(n):
    """The gathered real form equals the 64 signed block copies bit for bit,
    the sign bits of zeros included, for one stack and for batches."""
    rng = np.random.default_rng(70 + n)
    single = rng.standard_normal((8, n, n))
    single[1, 0, :] = 0.0
    single[2, :, 0] = -0.0
    batch = rng.standard_normal((3, 2, 8, n, n))
    batch[..., 3, 0, 0] = 0.0
    batch[..., 5, :, 0] = -0.0
    stacks = [single, batch, np.zeros((8, n, n))]
    if n > 1:
        stacks.append(draw("b", n).components)
    for comps in stacks:
        got, want = real_form(comps), reference_real_form(comps)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_component_shape_rejected():
    for shape in ((7, 2, 2), (8, 2, 3), (8, 2)):
        with pytest.raises(InvalidArgument):
            OctonionicMatrix(np.zeros(shape))
        with pytest.raises(InvalidArgument):
            real_form(np.zeros(shape))


def test_empty_component_stack_rejected():
    with pytest.raises(InvalidArgument):
        OctonionicMatrix(np.zeros((8, 0, 0)))
    with pytest.raises(InvalidArgument):
        resolvent(OctonionicMatrix.zero(0), 1.0)


def test_real_form_symmetric_for_symmetric_components():
    m = draw("a")
    assert m.is_symmetric()
    rf = m.real_form()
    np.testing.assert_array_equal(rf, rf.T)
    mb = draw("b", n=3)
    rfb = mb.real_form()
    np.testing.assert_array_equal(rfb, rfb.T)


def test_component_extraction_roundtrip():
    for m in (draw("a"), draw("b", n=3, index=5)):
        rf = m.real_form()
        np.testing.assert_array_equal(components_from_real_form(rf), m.components)
        assert octonionic_residual(rf) == 0.0


def test_is_octonionic_rejects_generic_symmetric():
    g = RNG.standard_normal((16, 16))
    g = g + g.T
    assert octonionic_residual(g) > 1e-10


def test_is_octonionic_identity():
    assert octonionic_residual(np.eye(16)) == 0.0
    assert octonionic_residual(np.eye(24)) == 0.0


def test_oct_inverse_scalar_multiple():
    m = OctonionicMatrix.from_scalar_part(3.0 * np.eye(2))
    inv = oct_inverse(m)
    np.testing.assert_allclose(inv.components[0], np.eye(2) / 3.0, atol=1e-15)
    assert np.max(np.abs(inv.components[1:])) == 0.0


def test_oct_inverse_random_planar_draws():
    worst = 0.0
    for i in range(100):
        m = draw("a", index=i)
        if np.linalg.cond(m.real_form()) > 1e8:
            continue
        inv = oct_inverse(m)
        res = np.max(np.abs(inv.real_form() @ m.real_form() - np.eye(16)))
        worst = max(worst, res)
    assert worst < 1e-9


def test_oct_inverse_equal_antisymmetric_components():
    # diag(2, 3) scalar part plus one antisymmetric matrix on all labels:
    # 2x2 antisymmetric matrices are mutually proportional, so the
    # compatibility condition holds automatically
    comps = np.zeros((8, 2, 2))
    comps[0] = np.diag([2.0, 3.0])
    comps[1:] = 0.7 * ANTISYM_UNIT_2
    m = OctonionicMatrix(comps)
    inv = oct_inverse(m)
    np.testing.assert_allclose(inv.real_form() @ m.real_form(), np.eye(16), atol=1e-12)


def test_oct_inverse_matches_dense_inverse():
    m = draw("b", n=3, index=2)
    inv = oct_inverse(m)
    np.testing.assert_allclose(inv.real_form(), np.linalg.inv(m.real_form()), atol=1e-9)


def test_oct_inverse_error_paths():
    singular = OctonionicMatrix.from_scalar_part(np.zeros((2, 2)))
    with pytest.raises(SingularBase):
        oct_inverse(singular)

    # generic 3x3 antisymmetric components violate the compatibility condition
    comps = np.zeros((8, 3, 3))
    comps[0] = np.eye(3)
    a1 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    a2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    comps[1], comps[2] = a1, a2
    with pytest.raises(NotSymmCompatible):
        oct_inverse(OctonionicMatrix(comps))

    # unit antisymmetric part makes the core sum vanish: (z A0)^2 = -z^2 Id
    comps = np.zeros((8, 2, 2))
    comps[0] = np.eye(2)
    comps[1] = ANTISYM_UNIT_2
    with pytest.raises(SingularCore):
        oct_inverse(OctonionicMatrix(comps))


@pytest.mark.parametrize("d,singular", [(1e-14, True), (5e-13, True), (1e-11, False)])
def test_oct_inverse_condition_guard_on_diagonal_base(d, singular):
    """M^0 = diag(1, d) has condition number 1/d in every norm, so the 1-norm
    guard draws the line at 1e12 where the reference's 2-norm guard does."""
    m = OctonionicMatrix.from_scalar_part(np.diag([1.0, d]))
    if singular:
        with pytest.raises(SingularBase, match="scalar component is singular or near-singular"):
            oct_inverse(m)
        with pytest.raises(SingularBase):
            reference_oct_inverse(m)
    else:
        assert np.array_equal(oct_inverse(m).components, reference_oct_inverse(m).components)


@pytest.mark.parametrize("kind,n,draws", [("a", 2, 6), ("b", 2, 6), ("b", 8, 3), ("b", 48, 1)])
def test_oct_inverse_matches_three_factorisation_reference(kind, n, draws):
    """One inverse of M^0 and stacked products give the bits of the
    reference that factors M^0 three times, shifted and unshifted."""
    rng = np.random.default_rng(8)
    for index in range(draws):
        m = draw(kind, n=n, seed=21, index=index)
        for mat in (m, shifted(m, float(off_spectrum_points(m.eigenvalues, rng)[0]))):
            assert np.array_equal(oct_inverse(mat).components,
                                  reference_oct_inverse(mat).components)


def test_oct_inverse_error_paths_match_reference():
    singular = np.zeros((8, 2, 2))
    incompatible = np.zeros((8, 3, 3))
    incompatible[0] = np.eye(3)
    incompatible[1, 0, 1], incompatible[1, 1, 0] = 1.0, -1.0
    incompatible[2, 0, 2], incompatible[2, 2, 0] = 1.0, -1.0
    singular_core = np.zeros((8, 2, 2))
    singular_core[0] = np.eye(2)
    singular_core[1] = ANTISYM_UNIT_2
    for comps, exc in ((singular, SingularBase), (incompatible, NotSymmCompatible),
                       (singular_core, SingularCore)):
        m = OctonionicMatrix(comps)
        with pytest.raises(exc) as want:
            reference_oct_inverse(m)
        with pytest.raises(exc) as got:
            oct_inverse(m)
        assert str(got.value) == str(want.value)


def _incompatible_stack(rng, n=3):
    """Symmetric scalar part and generic antisymmetric parts: violates (*)."""
    comps = rng.standard_normal((8, n, n))
    comps[0] = comps[0] + comps[0].T + 4.0 * n * np.eye(n)
    comps[1:] = comps[1:] - comps[1:].transpose(0, 2, 1)
    return OctonionicMatrix(comps)


def spectral_shift(m):
    return float(np.max(np.abs(m.eigenvalues))) + 1.5


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 8), ("b", 48)])
def test_compatibility_residual_matches_pair_loop(kind, n):
    for index in range(3):
        m = draw(kind, n=n, seed=17, index=index)
        for mat in (m, shifted(m, spectral_shift(m))):
            got = symm_compatibility_residual(mat)
            want = symm_compatibility_residual_by_pair(mat.components)
            assert got < 1e-10
            assert abs(got - want) <= 1e-14
    bad = _incompatible_stack(np.random.default_rng(n))
    got = symm_compatibility_residual(bad)
    want = symm_compatibility_residual_by_pair(bad.components)
    assert got > 1e-3
    assert abs(got - want) <= 1e-12 * want


def test_resolvent_rejects_incompatible_matrix():
    m = _incompatible_stack(np.random.default_rng(3))
    with pytest.raises(NotSymmCompatible):
        resolvent(m, spectral_shift(m))


def test_resolvent_of_zero_matrix():
    m = OctonionicMatrix.zero(2)
    res = resolvent(m, -1.0)
    np.testing.assert_allclose(res.real_form(), np.eye(16), atol=1e-14)
    ev = CharPolyEval.from_eigenvalues(m.eigenvalues, -1.0)
    assert abs(8.0 * np.trace(res.components[0]) + ev.dlog) < 1e-14


def test_resolvent_trace_and_structure():
    m = draw("a", index=3)
    res = resolvent(m, 4.5)
    dense = np.linalg.inv(m.real_form() - 4.5 * np.eye(16))
    np.testing.assert_allclose(res.real_form(), dense, rtol=0, atol=1e-12)
    trace = 8.0 * float(np.trace(res.components[0]))
    ev = CharPolyEval.from_eigenvalues(m.eigenvalues, 4.5)
    assert abs(trace + ev.dlog) < 1e-9 * (1 + abs(trace))


def test_non_symmetric_components_rejected():
    # a generic component stack has a non-symmetric real form; the symmetric
    # eigensolver would read one triangle of it and return a plausible spectrum
    m = OctonionicMatrix(np.random.default_rng(7).standard_normal((8, 3, 3)))
    assert not m.is_symmetric()
    with pytest.raises(NotSymmetric):
        m.eigenvalues
    with pytest.raises(NotSymmetric):
        resolvent(m, 10.0)


def test_resolvent_guard():
    m = draw("a", index=4)
    eigs = np.linalg.eigvalsh(m.real_form())
    with pytest.raises(NearSingularShift):
        resolvent(m, float(eigs[0]))


def test_charpoly_zero_matrix():
    # p(x) = x^16 for the zero 2x2 matrix: p'/p(1) = 16 and
    # (p'/p)^2 - p''/p = 16^2 - 16 * 15 = 16 at x = 1
    m = OctonionicMatrix.zero(2)
    ev = CharPolyEval.from_eigenvalues(m.eigenvalues, 1.0)
    assert ev.dlog == 16.0
    assert ev.curvature == 16.0


def test_charpoly_probe_finite_at_eigenvalue():
    # p'/p has a pole at an eigenvalue: the shift is refused, not evaluated
    eigs = np.array([1.0, 1.0, 2.0, 3.0])
    with pytest.raises(NearSingularShift):
        CharPolyEval.from_eigenvalues(eigs, 2.0)


def test_charpoly_derivatives_match_polyfit():
    m = draw("b", n=2, index=6)
    x = 5.2
    ev = CharPolyEval.from_eigenvalues(m.eigenvalues, x)
    eigs = np.linalg.eigvalsh(m.real_form())
    # det(M - x Id) == det(x Id - M) in even dimension, so the polynomial
    # built from the roots matches p with the same sign, derivatives included
    coeffs = np.poly(eigs)
    p = np.polyval(coeffs, x)
    dp = np.polyval(np.polyder(coeffs), x)
    ddp = np.polyval(np.polyder(coeffs, 2), x)
    assert abs(ev.dlog - dp / p) < 1e-7 * abs(dp / p)
    curvature = (dp / p) ** 2 - ddp / p
    assert abs(ev.curvature - curvature) < 1e-6 * abs(curvature)


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 3)])
def test_trace_identities(kind, n):
    rng = np.random.default_rng(42)
    for i in range(10):
        m = draw(kind, n=n, seed=9, index=i)
        eigs = np.linalg.eigvalsh(m.real_form())
        x, y = off_spectrum_points(eigs, rng, 2)
        while abs(x - y) < 0.5:
            x, y = off_spectrum_points(eigs, rng, 2)
        residuals = trace_identity_residuals(m, float(x), float(y))
        assert max(residuals.values()) < 1e-9, residuals


def test_off_spectrum_points_land_in_bands():
    eigs = np.array([-2.0, 3.0])
    rng = np.random.default_rng(0)
    pts = off_spectrum_points(eigs, rng, 500)
    assert np.all((np.abs(pts) >= 4.0) & (np.abs(pts) <= 5.0))


def test_logdet_gradient_small_case():
    mat = np.array([[2.0, 1.0], [0.5, 3.0]])
    np.testing.assert_allclose(fd_logdet_gradient(mat), logdet_gradient(mat),
                               rtol=0, atol=1e-8)


def test_fd_logdet_matches_entry_loops():
    """One matrix, and each matrix of a (2, 3, n, n) stack."""
    rng = np.random.default_rng(17)
    for n in (1, 3, 5, 5):
        mat = rng.standard_normal((n, n))
        assert np.array_equal(fd_logdet_gradient(mat), reference_fd_logdet_gradient(mat))
        assert np.array_equal(fd_logdet_hessian(mat), reference_fd_logdet_hessian(mat))
        mats = rng.standard_normal((2, 3, n, n))
        grads, hessians = fd_logdet_gradient(mats), fd_logdet_hessian(mats)
        assert grads.shape == (2, 3, n, n) and hessians.shape == (2, 3, n, n, n, n)
        for index in np.ndindex(2, 3):
            assert np.array_equal(grads[index], reference_fd_logdet_gradient(mats[index]))
            assert np.array_equal(hessians[index], reference_fd_logdet_hessian(mats[index]))


def test_logdet_derivative_suite():
    report = check_logdet_derivatives(count=20, seed=12)
    assert report.passed and report.max_residual < 1e-5


@pytest.mark.parametrize("count,seed", [(20, 3), (20, 7), (100, 4), (100, 23)])
@pytest.mark.parametrize("batch", [None, 3], ids=["default-batch", "three-per-batch"])
def test_logdet_suite_matches_trial_loop(monkeypatch, batch, count, seed):
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 2 * 8 * 5 ** 4)
    assert (_suite_dict(check_logdet_derivatives(count, seed))
            == _suite_dict(reference_check_logdet_derivatives(count, seed)))


def test_dim2_identity_suite():
    report = check_dim2_identities(trials=150, seed=13)
    assert report.passed and report.max_residual < 1e-10


def test_dim2_trace_residuals_match_component_loop():
    rng = np.random.default_rng(19)
    for index in range(20):
        m = draw("a", seed=3, index=index)
        x, y = off_spectrum_points(m.eigenvalues, rng, 2)
        ux = resolvent(m, float(x)).components
        uy = resolvent(m, float(y)).components
        assert np.array_equal(_dim2_trace_residuals(ux, uy),
                              reference_dim2_trace_residuals(ux, uy))


def test_dim2_trace_residuals_of_a_stack_match_component_loop():
    """Row by row the bits of the one-draw loop, also where libm ``pow``
    squares a trace differently from ``x * x`` (about one draw in a thousand)."""
    rng = np.random.default_rng(29)
    ux, uy = rng.standard_normal((2, 4000, 8, 2, 2))
    want = np.array([reference_dim2_trace_residuals(a, b) for a, b in zip(ux, uy)])
    assert np.array_equal(_dim2_trace_residuals(ux, uy), want)


def test_dim2_scalar_identity_on_identity_matrix():
    m = np.eye(2)
    assert np.trace(m @ m) - np.trace(m) ** 2 == -2.0 * np.linalg.det(m)


def test_dim3_counterexample_residual():
    assert dim3_counterexample() > 0.1


def test_planar_antisym_component_of_resolvent():
    # single imaginary coordinate z on label {1}: at shift 0 the resolvent's
    # {1} component is lam * A0 with lam = z / (z^2 - det(scalar part))
    comps = np.zeros((8, 2, 2))
    comps[0] = np.diag([2.0, 3.0])
    comps[subset_label([1])] = 1.0 * ANTISYM_UNIT_2
    m = OctonionicMatrix(comps)
    inv = oct_inverse(m)
    lam = 1.0 / (1.0 - 6.0)
    np.testing.assert_allclose(inv.components[subset_label([1])], lam * ANTISYM_UNIT_2,
                               atol=1e-12)


def test_immutability():
    m = draw("a")
    with pytest.raises(ValueError):
        m.components[0, 0, 0] = 99.0


# ---------------------------------------------------------------------------
# the stacked structured-inverse kernel and the stacked resolvent


def _suite_dict(report):
    """A suite report without its timing."""
    out = report.to_dict()
    del out["elapsed_ms"]
    return out


def _shifted_stack(kind, n, draws):
    """Components of ``draws`` model draws, unshifted then shifted off the spectrum."""
    rng = np.random.default_rng(31)
    mats = [draw(kind, n=n, seed=23, index=i) for i in range(draws)]
    mats += [shifted(m, float(off_spectrum_points(m.eigenvalues, rng)[0])) for m in mats]
    return np.stack([m.components for m in mats])


@pytest.mark.parametrize("kind,n,draws", [("a", 2, 8), ("b", 4, 4), ("b", 48, 2)])
def test_stacked_kernel_matches_reference_per_entry(kind, n, draws):
    stack = _shifted_stack(kind, n, draws)
    got = _oct_inverse_stack(stack)
    for entry, inverse in zip(stack, got):
        assert np.array_equal(inverse, reference_oct_inverse(OctonionicMatrix(entry)).components)


def test_forced_batches_give_the_same_bits(monkeypatch):
    stack = _shifted_stack("a", 2, 10)
    whole = _oct_inverse_stack(stack)
    report = _suite_dict(check_dim2_identities(trials=20, seed=6))
    # three entries per batch: the stack splits into seven batches
    monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", 3 * 8 * 16 ** 2)
    assert matrices.forms_per_batch(2) == 3
    assert np.array_equal(_oct_inverse_stack(stack), whole)
    assert _suite_dict(check_dim2_identities(trials=20, seed=6)) == report


def test_stacked_kernel_raises_for_first_failing_entry():
    """The loop's error and message: the first failing entry wins, whatever
    the failures of later entries."""
    good = _shifted_stack("b", 3, 2)[2:]
    singular = np.zeros((8, 3, 3))
    incompatible = _incompatible_stack(np.random.default_rng(5)).components
    with pytest.raises(NotSymmCompatible) as want:
        reference_oct_inverse(OctonionicMatrix(incompatible))
    with pytest.raises(NotSymmCompatible) as got:
        _oct_inverse_stack(np.stack([good[0], incompatible, good[1], singular]))
    assert str(got.value) == str(want.value)
    with pytest.raises(SingularBase, match="scalar component is singular or near-singular"):
        _oct_inverse_stack(np.stack([good[0], singular, good[1], incompatible]))


@pytest.mark.parametrize("batch", [None, 2], ids=["default-batch", "two-per-batch"])
def test_masked_kernel_reports_each_failing_entry(monkeypatch, batch):
    """Every failing entry is named with the error its one-entry inverse
    raises, across batches; the others are the reference inverses."""
    good = _shifted_stack("b", 3, 2)[2:]
    singular = np.zeros((8, 3, 3))
    incompatible = _incompatible_stack(np.random.default_rng(5)).components
    stack = np.stack([good[0], incompatible, good[1], singular, good[0]])
    if batch:
        monkeypatch.setattr(matrices, "FORM_BATCH_BYTES", batch * 8 * 24 ** 2)
    out, errors = _oct_inverse_masked(stack)
    assert sorted(errors) == [1, 3]
    for index, error in errors.items():
        with pytest.raises(type(error)) as want:
            oct_inverse(OctonionicMatrix(stack[index]))
        assert str(error) == str(want.value)
    for index in (0, 2, 4):
        assert np.array_equal(
            out[index], reference_oct_inverse(OctonionicMatrix(stack[index])).components)


def test_stacked_resolvent_raises_for_first_near_shift():
    mats = [draw("a", index=i) for i in range(3)]
    far = [spectral_shift(m) for m in mats]
    near = [float(m.eigenvalues[k]) for m, k in zip(mats, (0, 3, 9))]
    with pytest.raises(NearSingularShift) as want:
        resolvent(mats[1], near[1])
    with pytest.raises(NearSingularShift) as got:
        _resolvents(*stacked(mats), [[far[0], far[0]], [far[1], near[1]], [near[2], far[2]]])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("trials", [80, 200])
@pytest.mark.parametrize("seed", [0, 2])
def test_dim2_suite_matches_trial_loop(trials, seed):
    assert (_suite_dict(check_dim2_identities(trials, seed))
            == _suite_dict(reference_check_dim2_identities(trials, seed)))


# ---------------------------------------------------------------------------
# non-finite inputs


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_resolvent_rejects_non_finite_shift(x):
    with pytest.raises(InvalidArgument):
        resolvent(draw("a"), x)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_stacked_resolvent_rejects_non_finite_shift(x):
    m = draw("a")
    with pytest.raises(InvalidArgument):
        _resolvents(*stacked([m, m]), [[spectral_shift(m)], [x]])


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_charpoly_rejects_non_finite_shift(x):
    with pytest.raises(InvalidArgument):
        CharPolyEval.from_eigenvalues(draw("a").eigenvalues, x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_components_rejected(value):
    comps = draw("a").components.copy()
    comps[3, 1, 0] = value
    with pytest.raises(InvalidArgument):
        OctonionicMatrix(comps)


# ---------------------------------------------------------------------------
# the per-matrix resolvent memo


def test_failed_resolvent_raises_again():
    bad = _incompatible_stack(np.random.default_rng(3))
    m = draw("a", index=4)
    for mat, x, exc in ((bad, spectral_shift(bad), NotSymmCompatible),
                        (m, float(m.eigenvalues[0]), NearSingularShift)):
        for _ in range(2):
            with pytest.raises(exc):
                resolvent(mat, x)
        assert mat._resolvent_memo == {}


def test_resolvent_memo_returns_the_first_result():
    m = draw("b", n=3, index=1)
    x = spectral_shift(m)
    first = resolvent(m, x)
    assert resolvent(m, x) is first
    assert np.array_equal(first.components, _resolvents(*stacked([m]), [[x]])[0, 0])
