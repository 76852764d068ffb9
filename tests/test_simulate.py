"""Sampling laws, spectrum clustering, gap statistics, Euler paths."""

import ctypes
import dataclasses
import functools
import inspect

import numpy as np
import pytest

from octodyson import (
    InsufficientData,
    InvalidConfig,
    OctonionicMatrix,
    SimulationConfig,
    algebra,
    gap_statistics,
    implied_beta,
    real_form,
    sample_matrix,
    sample_rng,
    sample_spectra,
    simulate,
)
from octodyson.blas import find_openblas
from octodyson.simulate import (
    SampledSpectra,
    _cluster_rows,
    _draw,
    _draw_layout,
    _seek_in_place,
    cluster_eigenvalues,
    sample_components,
    sample_stack,
)

from oracles import (
    beta_hermite_spectra,
    dense_spectrum,
    from_scalar_part,
    moment_ratio_by_quadrature,
    planar_distinct_eigenvalues,
    reduced_spectrum,
    reference_cross_check,
    reference_draw_increment,
    reference_euler_path,
    reference_gap_statistics,
    rejection_gap_sampler,
    spectra_record,
)


def cfg(**kw):
    base = dict(kind="a", n=2, t=1.0, samples=1, seed=0)
    base.update(kw)
    return SimulationConfig(**base)


def spectrum(m: OctonionicMatrix) -> simulate.SpectralSample:
    """Clustered spectrum of the dense real form of ``m``."""
    return cluster_eigenvalues(m.eigenvalues, 1e-6)


def clean_spectra(values) -> SampledSpectra:
    """Rows of distinct ``values`` (k, n), each of multiplicity 8, spread 0."""
    values = np.asarray(values, dtype=float)
    return SampledSpectra(values, np.full(values.shape, 8), np.zeros(len(values)))


def assert_same_spectra(got: SampledSpectra, want: SampledSpectra):
    """Equal arrays of spectra, bit for bit but for the sign of zero."""
    for name in ("distinct", "multiplicities", "spread"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        cfg(kind="a", n=3)
    with pytest.raises(InvalidConfig):
        cfg(t=0.0)
    with pytest.raises(InvalidConfig):
        cfg(t=np.inf)
    with pytest.raises(InvalidConfig):
        cfg(t=np.nan)
    with pytest.raises(InvalidConfig):
        cfg(cluster_tol=np.inf)
    with pytest.raises(InvalidConfig):
        cfg(cluster_tol=np.nan)
    with pytest.raises(InvalidConfig):
        cfg(samples=0)
    with pytest.raises(InvalidConfig):
        cfg(steps=0)
    assert cfg(kind="b", n=4).n == 4


def test_sampler_deterministic_per_index():
    c = cfg(seed=123, samples=2)
    m1 = sample_matrix(c, 1)
    m2 = sample_matrix(c, 1)
    np.testing.assert_array_equal(m1.components, m2.components)
    m0 = sample_matrix(c, 0)
    assert not np.array_equal(m0.components, m1.components)


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 5)])
def test_sample_stack_entries_equal_single_draws(kind, n):
    """Entry i of a stacked draw of samples a..b-1 is sample a + i, bit for bit."""
    c = cfg(kind=kind, n=n, seed=17, steps=3)
    stack = sample_stack(c, range(4, 11))
    assert stack.shape == (7, 8, n, n)
    for i, comps in enumerate(stack):
        assert np.array_equal(comps, sample_components(c, 4 + i))
        assert np.array_equal(np.signbit(comps), np.signbit(sample_components(c, 4 + i)))


def test_sampler_independent_of_draw_history():
    # drawing index 5 directly equals drawing it after other indices
    c = cfg(seed=9)
    for idx in (0, 3, 1):
        sample_matrix(c, idx)
    np.testing.assert_array_equal(sample_matrix(c, 5).components,
                                  sample_matrix(cfg(seed=9), 5).components)


def test_sample_structure():
    ma = sample_matrix(cfg(seed=4), 0)
    assert ma.is_symmetric()
    mb = sample_matrix(cfg(kind="b", n=3, seed=4), 0)
    assert mb.is_symmetric()
    for a in range(2, 8):
        np.testing.assert_array_equal(mb.components[a], mb.components[1])


def test_sample_variances():
    """Empirical entry variances match t times the covariance coefficients."""
    n_draws = 4000
    t = 2.0
    c = cfg(seed=77, t=t, samples=n_draws)
    diag = np.empty(n_draws)
    off = np.empty(n_draws)
    anti = np.empty(n_draws)
    for i in range(n_draws):
        comps = sample_matrix(c, i).components
        diag[i] = comps[0][0, 0]
        off[i] = comps[0][0, 1]
        anti[i] = comps[3][1, 0]
    tol = 5.0 / np.sqrt(n_draws)
    assert abs(np.var(diag) / t - 1.0) < tol
    assert abs(np.var(off) / (t / 2) - 1.0) < tol
    assert abs(np.var(anti) / (t / 2) - 1.0) < tol

    cb = cfg(kind="b", n=2, seed=78, t=t, samples=n_draws)
    shared = np.empty(n_draws)
    for i in range(n_draws):
        shared[i] = sample_matrix(cb, i).components[5][1, 0]
    assert abs(np.var(shared) / (t / 14) - 1.0) < tol


def test_tiny_time_gives_tiny_matrix():
    m = sample_matrix(cfg(t=1e-30), 0)
    assert np.max(np.abs(m.components)) < 1e-13


def test_spectrum_multiplicities():
    for i in range(50):
        s = spectrum(sample_matrix(cfg(seed=5), i))
        assert s.multiplicities == (8, 8)
        assert len(s.distinct) == 2
    for i in range(20):
        s = spectrum(sample_matrix(cfg(kind="b", n=3, seed=6), i))
        assert s.multiplicities == (8, 8, 8)


def test_spectrum_matches_planar_quadratic_oracle():
    for i in range(50):
        m = sample_matrix(cfg(seed=15), i)
        s = spectrum(m)
        lo, hi = planar_distinct_eigenvalues(m.components)
        assert abs(s.distinct[0] - lo) < 1e-10 * (1 + abs(lo))
        assert abs(s.distinct[1] - hi) < 1e-10 * (1 + abs(hi))


def test_zero_matrix_single_cluster():
    s = spectrum(OctonionicMatrix.zero(2))
    assert s.distinct == (0.0,)
    assert s.multiplicities == (16,)
    assert s.spread == 0.0


def test_cluster_eigenvalues_grouping():
    eigs = np.array([1.0, 1.0 + 1e-12, 2.0, 2.0, 2.0])
    s = cluster_eigenvalues(eigs, 1e-6)
    assert s.multiplicities == (2, 3)
    assert abs(s.distinct[0] - (1.0 + 5e-13)) < 1e-12
    assert s.spread <= 2e-12


@pytest.mark.parametrize("chunk", [1, 64, 1024])
def test_sample_spectra_chunk_invariance(chunk, monkeypatch):
    """Chunks of one sample, of 64 and of the whole run give the same arrays
    and cross-check; a shorter run gives a prefix."""
    c = cfg(kind="b", n=3, seed=31, samples=400)
    whole = sample_spectra(c)
    monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", chunk * 8 * _draw_layout("b", 3).size)
    chunked = sample_spectra(c)
    assert_same_spectra(chunked, whole)
    assert chunked.cross_check == whole.cross_check
    head = sample_spectra(cfg(kind="b", n=3, seed=31, samples=3))
    assert_same_spectra(head, SampledSpectra(whole.distinct[:3], whole.multiplicities[:3],
                                             whole.spread[:3]))


def test_chunks_follow_the_batch_bound(monkeypatch):
    """A bound below one path's normals draws each path alone; the default
    bound draws the benchmark's spectrum runs, model a at 2000 samples and
    model b at n = 16 and 512 samples, in one chunk each."""
    calls = []
    draw = simulate._draw
    monkeypatch.setattr(simulate, "_draw", lambda *a: calls.append(len(a[1])) or draw(*a))
    sample_spectra(cfg(samples=2000))
    sample_spectra(cfg(kind="b", n=16, samples=512))
    monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", 8 * 5 * _draw_layout("a", 2).size - 1)
    sample_spectra(cfg(samples=3, steps=5))
    assert calls == [2000, 512, 1, 1, 1]


def test_find_openblas_matches_numpy_build():
    if "mode" not in inspect.signature(np.show_config).parameters:
        pytest.skip("numpy.show_config cannot report the BLAS name")
    blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert (find_openblas() is not None) == ("openblas" in blas_name)


def test_hermitian_reduction():
    """Each eigenvalue of the n x n Hermitian M^0 + i sqrt(7) S, eight times
    over, is the spectrum of a model-b real form."""
    for n in (2, 3, 4):
        for i in range(20):
            m = sample_matrix(cfg(kind="b", n=n, seed=32 + n), i)
            herm = simulate._reduced_spectra("b", m.components)
            assert np.max(np.abs(m.eigenvalues - np.repeat(herm, 8))) < 1e-9
    # zero antisymmetric part: plain symmetric spectrum, eight copies
    m = from_scalar_part(np.array([[1.0, 0.2], [0.2, -0.5]]))
    herm = simulate._reduced_spectra("b", m.components)
    assert np.max(np.abs(m.eigenvalues - np.repeat(herm, 8))) < 1e-12


@pytest.mark.parametrize("kind,n,count", [("a", 2, 20), ("b", 1, 20), ("b", 3, 20),
                                          ("b", 8, 10), ("b", 48, 2)])
def test_model_spectra_match_dense_eigensolve(kind, n, count):
    """The spectra the identity suites read: ascending, 8n long, each value
    eight times, and within the cross-check's tolerance of the dense
    eigensolve of the real form.  The models start at n = 2, so the 1x1
    draws are made here: a scalar entry, every antisymmetric part zero."""
    if n == 1:
        comps = np.zeros((count, 8, 1, 1))
        comps[:, 0, 0, 0] = np.random.default_rng(41).standard_normal(count)
    else:
        comps = sample_stack(cfg(kind=kind, n=n, seed=40 + n), range(count))
    got = simulate.model_spectra(kind, comps)
    dense = np.linalg.eigvalsh(real_form(comps))
    assert got.shape == dense.shape == (count, 8 * n)
    assert np.all(np.diff(got, axis=1) >= 0.0)
    assert np.array_equal(got.reshape(count, n, 8), np.repeat(got[:, ::8, None], 8, axis=2))
    radius = np.max(np.abs(dense), axis=1)
    assert np.all(np.max(np.abs(got - dense), axis=1)
                  <= simulate.CROSS_CHECK_TOL * (1.0 + radius))


def test_implied_beta_inverts_ratio():
    """R = 1 + 2/d with d = (n - 1) + beta n (n - 1) / 2 degrees of freedom."""
    for n in (2, 3, 8):
        for beta in (1.0, 2.0, 4.0, 8.0):
            dof = (n - 1) + beta * n * (n - 1) / 2
            assert implied_beta(1.0 + 2.0 / dof, n) == pytest.approx(beta, rel=1e-12)
        assert implied_beta(1.0, n) == float("inf")
        assert implied_beta(0.5, n) == float("inf")


def test_gap_statistics_requires_samples():
    c = cfg(seed=33, samples=20)
    with pytest.raises(InsufficientData):
        gap_statistics(sample_spectra(c))
    # rows with fewer clusters do not count
    merged = sample_spectra(cfg(kind="b", n=3, seed=33, samples=200, cluster_tol=1e9))
    with pytest.raises(InsufficientData, match="with 3 clusters, got 0"):
        gap_statistics(merged)


def test_gap_statistics_deterministic():
    c = cfg(seed=34, samples=300)
    spectra = sample_spectra(c)
    s1 = gap_statistics(spectra)
    s2 = gap_statistics(spectra)
    assert s1 == s2


def test_gap_statistics_on_rejection_sampler():
    """Synthetic gaps from the target density recover their exponent."""
    rng = np.random.default_rng(35)
    for beta in (2.0, 8.0):
        gaps = rejection_gap_sampler(beta, 20000, rng)
        stats = gap_statistics(clean_spectra(np.column_stack([np.zeros_like(gaps), gaps])))
        assert abs(stats.implied_beta - beta) < max(2.0 * stats.stderr, 0.2)


@pytest.mark.parametrize("kind,beta", [("a", 8), ("b", 2)])
def test_gap_law_at_n2_is_chi_square(kind, beta):
    """At n = 2 the off-diagonal entry has beta Gaussian coordinates of
    variance t/2 and the diagonal difference variance 2t, so s^2 / 2t is
    exactly chi-square with beta + 1 degrees of freedom.  Kolmogorov-Smirnov
    at level 1e-3 on 20 000 samples of seed 0 at t = 1 (settings fixed
    before the first run); beta + 3 and beta - 1 degrees of freedom must be
    rejected."""
    from scipy import stats

    spectra = sample_spectra(cfg(kind=kind, samples=20_000, seed=0))
    assert spectra.complete.all()
    scaled = (spectra.distinct[:, 1] - spectra.distinct[:, 0]) ** 2 / 2.0
    assert stats.kstest(scaled, "chi2", args=(beta + 1,)).pvalue > 1e-3
    for df in (beta + 3, beta - 1):
        assert stats.kstest(scaled, "chi2", args=(df,)).pvalue < 1e-3


@functools.cache
def model_b_distinct(n: int, samples: int) -> np.ndarray:
    """Distinct eigenvalues, shape (samples, n), of model b at t = 1, seed 0."""
    spectra = sample_spectra(cfg(kind="b", n=n, samples=samples, seed=0))
    assert spectra.complete.all()
    return spectra.distinct


def radial(x: np.ndarray) -> np.ndarray:
    """T = sum_{i<j} (x_j - x_i)^2 = n sum_i (x_i - mean)^2 of each row."""
    return x.shape[1] * np.sum((x - x.mean(axis=1, keepdims=True)) ** 2, axis=1)


@pytest.mark.parametrize("n,samples", [(3, 20_000), (8, 4_000)])
def test_radial_law_of_model_b_is_chi_square(n, samples):
    """Under the density prod |x_i - x_j|^beta exp(-sum x^2 / 2t), T / nt is
    chi-square with d = (n - 1) + beta n (n - 1) / 2 degrees of freedom; model
    b has beta = 2.  Kolmogorov-Smirnov at level 1e-3 on seed 0 at t = 1
    (settings fixed before the first run); d with beta + 1 must be rejected."""
    from scipy import stats

    scaled = radial(model_b_distinct(n, samples)) / n
    dof = [(n - 1) + beta * n * (n - 1) / 2 for beta in (2, 3)]
    assert stats.kstest(scaled, "chi2", args=(dof[0],)).pvalue > 1e-3
    assert stats.kstest(scaled, "chi2", args=(dof[1],)).pvalue < 1e-3


@pytest.mark.parametrize("n,samples", [(3, 20_000), (8, 4_000)])
def test_local_law_of_model_b_is_beta_2(n, samples):
    """The scale-free smallest gap g / sqrt(T) sees the shape of the
    Vandermonde factor, which the radial law does not.  Two-sample
    Kolmogorov-Smirnov at level 1e-3 against as many Dumitriu-Edelman
    beta-Hermite spectra (reference seed 1; settings fixed before the first
    run): beta = 2 must be accepted, beta = 1 and beta = 4 rejected."""
    from scipy import stats

    def smallest_gap(x):
        return np.min(np.diff(x, axis=1), axis=1) / np.sqrt(radial(x))

    got = smallest_gap(model_b_distinct(n, samples))
    rng = np.random.default_rng(1)
    for beta in (2, 1, 4):
        want = smallest_gap(beta_hermite_spectra(beta, n, samples, rng))
        pvalue = stats.ks_2samp(got, want).pvalue
        assert pvalue > 1e-3 if beta == 2 else pvalue < 1e-3, (beta, pvalue)


def test_quadrature_ratio_oracle():
    assert abs(moment_ratio_by_quadrature(8.0) - 11.0 / 9.0) < 1e-6
    assert abs(moment_ratio_by_quadrature(2.0) - 5.0 / 3.0) < 1e-6


def test_moment_ratio_scale_free_in_time():
    """Ratios at t = 1 and t = 4 agree within combined uncertainty."""
    s1 = gap_statistics(sample_spectra(cfg(seed=36, t=1.0, samples=8000)))
    s4 = gap_statistics(sample_spectra(cfg(seed=37, t=4.0, samples=8000)))
    # moment2 scales by t, the ratio does not
    assert abs(s4.moment2 / s1.moment2 - 4.0) < 0.5
    db = abs(s1.implied_beta - s4.implied_beta)
    assert db < 2.0 * np.hypot(s1.stderr, s4.stderr) + 0.05


def test_implied_beta_smallish_samples():
    sa = gap_statistics(sample_spectra(cfg(seed=38, samples=12000)))
    assert 7.0 < sa.implied_beta < 9.0
    sb = gap_statistics(sample_spectra(cfg(kind="b", seed=39, samples=12000)))
    assert 1.6 < sb.implied_beta < 2.4


def euler_path(c: SimulationConfig, index: int) -> SampledSpectra:
    """The per-step spectra of path ``index`` as :func:`sample_spectra` gives them."""
    spectra = sample_spectra(dataclasses.replace(c, samples=index + 1))
    rows = slice(index * c.steps, None)
    return SampledSpectra(spectra.distinct[rows], spectra.multiplicities[rows],
                          spectra.spread[rows])


def test_euler_single_step_equals_exact_sampler():
    c_euler = cfg(seed=40, steps=1)
    c_exact = cfg(seed=40)
    path = euler_path(c_euler, 0)
    exact = sample_spectra(c_exact)
    np.testing.assert_array_equal(path.distinct, exact.distinct)
    dense = spectrum(sample_matrix(c_exact, 0))
    assert tuple(path.multiplicities[0]) == dense.multiplicities
    np.testing.assert_allclose(path.distinct[0], dense.distinct, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 3)])
def test_euler_path_matches_step_loop(kind, n):
    """A path drawn at once and summed with cumsum equals the step-by-step
    loop solved from the structure, also at an index past the first and with
    a crossing, and the step-by-step dense real forms to 1e-10 (1 + radius)
    with the same multiplicities."""
    c = cfg(kind=kind, n=n, seed=42, steps=7)
    for index in (0, 5):
        path = euler_path(c, index)
        ref = reference_euler_path(c, index)
        assert_same_spectra(path, spectra_record(ref.samples, n))
        assert path.min_gap() == ref.min_gap and not ref.crossing_detected
        dense = spectra_record(reference_euler_path(c, index, dense_spectrum).samples, n)
        np.testing.assert_array_equal(path.multiplicities, dense.multiplicities)
        scale = 1.0 + np.max(np.abs(dense.distinct), axis=1, keepdims=True)
        assert np.all(np.abs(path.distinct - dense.distinct) <= 1e-10 * scale)
    merged = cfg(kind=kind, n=n, seed=42, steps=3, cluster_tol=1e9)
    path = euler_path(merged, 1)
    ref = reference_euler_path(merged, 1)
    assert ref.crossing_detected and not path.complete.any()
    assert path.min_gap() == ref.min_gap == np.inf
    assert_same_spectra(path, spectra_record(ref.samples, n))


def test_euler_path_keeps_cluster_structure():
    spectra = sample_spectra(cfg(seed=41, steps=300, samples=3))
    assert spectra.clean.all()
    assert spectra.min_gap() > 0.0


def test_sample_rng_streams_disjoint():
    a = sample_rng(7, 0).standard_normal(4)
    b = sample_rng(7, 1).standard_normal(4)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, sample_rng(7, 0).standard_normal(4))


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 8), ("b", 16)])
def test_draw_increment_matches_reference(kind, n):
    """Each step row of a path's one normal draw, scattered, reproduces the
    triangle-by-triangle draw over t / steps from a fresh sample_rng bit for
    bit, the reference continuing its stream from step to step.  (The
    dimension-2 suite's own stream is covered by
    test_suite_json_matches_reference_kernels.)"""
    layout = _draw_layout(kind, n)
    for t, steps in [(1.0, 1), (0.37, 3), (1e-3, 5)]:
        c = cfg(kind=kind, n=n, t=t, seed=51, steps=steps)
        got = layout.scatter(_draw(c, range(6, 9), steps))
        for index, path in zip(range(6, 9), got):
            ref = sample_rng(51, index)
            for row in path:
                want = reference_draw_increment(ref, kind, n, t / steps)
                np.testing.assert_array_equal(row, want)
                np.testing.assert_array_equal(np.signbit(row), np.signbit(want))


def used_philox(seed: int) -> tuple[np.random.Philox, np.random.Generator]:
    """A Philox under ``seed`` after 2 normals and one uint32 draw, which
    leave one buffered word unread and half a 64-bit word buffered."""
    bitgen = np.random.Philox(key=seed)
    rng = np.random.Generator(bitgen)
    rng.standard_normal(2)
    rng.integers(0, 10, dtype=np.uint32)
    assert (bitgen.state["buffer_pos"], bitgen.state["has_uint32"]) == (3, 1)
    return bitgen, rng


@pytest.mark.parametrize("index", [0, 1, 1023, 1024, 2 ** 64 + 3, 2 ** 128 - 1])
@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
def test_seek_in_place_matches_sample_rng(seed, index):
    """The in-place seek of a used generator leaves the counter, buffer
    position and uint32 flag of a fresh sample_rng(seed, index), and its
    stream: 37 normals, then a uint32."""
    bitgen, rng = used_philox(seed)
    _seek_in_place(bitgen)(index)
    fresh = sample_rng(seed, index)
    got, want = bitgen.state, fresh.bit_generator.state
    assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert (got["buffer_pos"], got["has_uint32"]) == (want["buffer_pos"], want["has_uint32"])
    np.testing.assert_array_equal(rng.standard_normal(37), fresh.standard_normal(37))
    assert rng.integers(2 ** 32, dtype=np.uint32) == fresh.integers(2 ** 32, dtype=np.uint32)


def test_probe_accepts_installed_numpy():
    """A numpy that moves the fields of philox_state fails here, rather than
    silently slowing every draw."""
    assert simulate._in_place_seek_works(), (
        f"numpy {np.__version__}: philox_state no longer matches simulate._PhiloxState, "
        "so the sampler builds a sample_rng at every index")


class _ShiftedPhiloxState(ctypes.Structure):
    """simulate._PhiloxState with ``buffer_pos`` read from buffer[0]: every
    field stays inside numpy's struct, one is misplaced."""

    _fields_ = [("counter", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("skipped", ctypes.c_uint64),
                ("buffer_pos", ctypes.c_int),
                ("rest", ctypes.c_byte * 28),
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def test_probe_rejects_shifted_layout_and_draw_falls_back(monkeypatch):
    assert _ShiftedPhiloxState.buffer_pos.offset == simulate._PhiloxState.buffer.offset
    assert ctypes.sizeof(_ShiftedPhiloxState) == ctypes.sizeof(simulate._PhiloxState)
    c = cfg(kind="b", n=3, seed=2 ** 63 + 5, steps=3)
    fast = _draw(c, range(5, 70), 3)
    monkeypatch.setattr(simulate, "_PhiloxState", _ShiftedPhiloxState)
    probe = functools.cache(simulate._in_place_seek_works.__wrapped__)
    monkeypatch.setattr(simulate, "_in_place_seek_works", probe)
    assert not probe()
    assert _draw(c, range(5, 70), 3).tobytes() == fast.tobytes()


def test_cluster_rows_match_cluster_eigenvalues(monkeypatch):
    draws = [np.linalg.eigvalsh(real_form(sample_components(cfg(seed=60), i)))
             for i in range(3)]
    rows = np.array([
        np.r_[np.full(8, -1.0), np.full(8, 2.0)] + 1e-14 * np.arange(16),  # regular
        np.r_[np.full(8, 1.0), np.full(8, 1.0 + 1e-9)],  # a merged pair
        np.r_[np.full(3, -2.0), np.full(5, -1.0), np.full(8, 4.0)],  # a split cluster: cut
        np.r_[np.full(7, -1.0), np.full(9, 2.0)],  # a break off the multiples of 8
        np.linalg.eigvalsh(real_form(np.zeros((8, 2, 2)))),  # all equal
        *draws,
    ])
    for tol in (1e-6, 0.0, 10.0):  # 10: every row merges into one cluster
        assert_same_spectra(SampledSpectra(*_cluster_rows(rows, tol, 8)),
                            spectra_record([cluster_eigenvalues(r, tol) for r in rows], 2))
    # only the four rows without clusters of eight leave the chunk-wide path
    fallbacks = []
    monkeypatch.setattr(simulate, "cluster_eigenvalues",
                        lambda e, tol: fallbacks.append(e) or cluster_eigenvalues(e, tol))
    _cluster_rows(rows, 1e-6, 8)
    assert len(fallbacks) == 4
    monkeypatch.undo()
    assert _cluster_rows(rows, 10.0, 8)[1][0].tolist() == [16, 0]
    b3 = cfg(kind="b", n=3, seed=62)
    rows3 = np.array([np.linalg.eigvalsh(real_form(sample_components(b3, i)))
                      for i in range(5)])
    assert_same_spectra(SampledSpectra(*_cluster_rows(rows3, 1e-6, 8)),
                        spectra_record([cluster_eigenvalues(r, 1e-6) for r in rows3], 3))


@pytest.mark.parametrize("step", [-1, 0, 1], ids=["below", "at", "above"])
def test_reduced_rows_clean_exactly_above_threshold(step, monkeypatch):
    """A reduced row is clean when every gap exceeds cluster_tol (1 + max|x|):
    with the radius 1 and cluster_tol 0.25 the threshold is 0.5, and the gap
    from 0 to g is g exactly, so g one float below, at and above 0.5 tests
    the comparison.  The rows equal cluster_eigenvalues of their eight-fold
    repeat, and only rows at or below the threshold reach it."""
    g = np.nextafter(0.5, 0.5 + step) if step else 0.5
    rows = np.array([[-1.0, 0.0, g], [-1.0, 0.0, 1.0]])
    fallbacks = []
    monkeypatch.setattr(simulate, "cluster_eigenvalues",
                        lambda e, tol: fallbacks.append(e) or cluster_eigenvalues(e, tol))
    got = SampledSpectra(*_cluster_rows(rows, 0.25, 1))
    monkeypatch.undo()
    assert_same_spectra(got, spectra_record(
        [cluster_eigenvalues(np.repeat(r, 8), 0.25) for r in rows], 3))
    assert len(fallbacks) == (step <= 0)
    assert got.clean.tolist() == [step > 0, True]


def test_clean_run_builds_no_spectral_sample(monkeypatch):
    """Clean rows, reduced and dense, stay in arrays: a run of clean rows
    builds no SpectralSample; a merged run builds one per row."""
    built = []
    spectral_sample = simulate.SpectralSample
    monkeypatch.setattr(simulate, "SpectralSample",
                        lambda *a: built.append(a) or spectral_sample(*a))
    for kind, n in (("a", 2), ("b", 5)):
        spectra = sample_spectra(cfg(kind=kind, n=n, seed=66, samples=300))
        assert spectra.clean.all() and spectra.cross_check.rows == 5
    assert built == []
    sample_spectra(cfg(seed=66, samples=10, cluster_tol=1e9))
    assert len(built) == 10 + 1  # every reduced row, and the one checked dense row


@pytest.mark.parametrize("kind,n,samples", [("a", 2, 700), ("b", 5, 400)])
def test_batched_cross_check_matches_row_by_row(kind, n, samples, monkeypatch):
    """The cross-check eigensolves its rows in batches of forms_per_batch(n)
    forms; with batches of three its block equals the reference's, which
    solves and compares one row at a time."""
    c = cfg(kind=kind, n=n, seed=68, samples=samples)
    comps = sample_stack(c, range(0, samples, 64))
    want = reference_cross_check([dense_spectrum(kind, x, c.cluster_tol) for x in comps],
                                 [reduced_spectrum(kind, x, c.cluster_tol) for x in comps])
    monkeypatch.setattr(algebra, "FORM_BATCH_BYTES", 3 * 8 * (8 * n) ** 2)
    forms = []
    real_form = simulate.real_form
    monkeypatch.setattr(simulate, "real_form",
                        lambda stack: forms.append(len(stack)) or real_form(stack))
    got = sample_spectra(c).cross_check
    assert dataclasses.asdict(got) == want
    assert forms == [3] * (len(comps) // 3) + [len(comps) % 3] * (len(comps) % 3 > 0)
    assert len(forms) >= 3


def assert_matches_reference(got, want, exact: bool):
    """``got`` equals the reference statistics: bit for bit in everything but
    the standard error when ``exact``, else to rounding."""
    if exact:
        np.testing.assert_equal(dataclasses.astuple(got)[:-1], dataclasses.astuple(want)[:-1])
    else:
        np.testing.assert_allclose(dataclasses.astuple(got)[:-1],
                                   dataclasses.astuple(want)[:-1], rtol=1e-12)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-9)


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 2), ("b", 3), ("b", 5)])
def test_gap_statistics_matches_reference(kind, n):
    """The scaled, column-at-a-time statistic and the influence-function
    variance give the unscaled pairwise moments and the np.cov standard error;
    at n = 2, T is one squared gap, so every moment is exact."""
    spectra = sample_spectra(cfg(kind=kind, n=n, seed=61, samples=400))
    assert_matches_reference(gap_statistics(spectra), reference_gap_statistics(spectra),
                             exact=n == 2)


def test_equal_gaps_have_infinite_exponent_and_stderr():
    """Equal gaps have moment ratio exactly 1: the exponent and its
    standard error are infinite."""
    equal = clean_spectra([(0.0, 1.0)] * 150)
    got = gap_statistics(equal)
    assert got.ratio == 1.0 and got.implied_beta == np.inf and got.stderr == np.inf
    np.testing.assert_equal(dataclasses.astuple(got),
                            dataclasses.astuple(reference_gap_statistics(equal)))


@pytest.mark.parametrize("n,dof", [(2, 9), (3, 8)])
def test_delta_stderr_matches_spread_of_estimates(n, dof):
    """T / nt ~ chi-square(d): d = 9 is model a (n = 2, beta = 8), d = 8 is
    model b at n = 3 (beta = 2).  Over 400 independent sets of 2000 draws
    (seed 0; settings and bound fixed before the first run) the standard
    deviation of the estimates is within 15 % of the mean reported stderr,
    so a standard error off by a factor sqrt(2) fails."""
    sets = np.random.default_rng(0).chisquare(dof, (400, 2000))
    stats = [simulate._ratio_statistics(x, n, 1.0) for x in sets]
    spread = np.std([s.implied_beta for s in stats], ddof=1)
    reported = np.mean([s.stderr for s in stats])
    assert abs(spread / reported - 1.0) < 0.15


@pytest.mark.parametrize("t", [1e-6, 0.37, 1e3, 1e40])
def test_gap_statistics_scaling_changes_no_finite_value(t):
    """Dividing the gaps by a power of two is exact: the statistics equal
    those of the unscaled gaps."""
    spectra = sample_spectra(cfg(kind="b", seed=67, samples=300, t=t))
    assert_matches_reference(gap_statistics(spectra), reference_gap_statistics(spectra),
                             exact=True)
