"""Sampling laws, spectrum clustering, gap statistics, Euler paths."""

import dataclasses
import inspect
import sys
import threading

import numpy as np
import pytest

from octodyson import (
    InsufficientData,
    InvalidArgument,
    InvalidConfig,
    OctonionicMatrix,
    SimulationConfig,
    euler_path,
    gap_statistics,
    hermitian_reduction_residual,
    implied_beta,
    real_form,
    sample_matrix,
    sample_rng,
    sample_spectra,
    simulate,
    spectrum,
)
from octodyson.blas import find_openblas
from octodyson.simulate import (
    SpectralSample,
    _cluster_rows,
    _draw,
    _draw_layout,
    _seek,
    cluster_eigenvalues,
    sample_components,
)

from oracles import (
    moment_ratio_by_quadrature,
    planar_distinct_eigenvalues,
    reference_draw_increment,
    reference_euler_path,
    reference_gap_statistics,
    rejection_gap_sampler,
)


def cfg(**kw):
    base = dict(kind="a", n=2, t=1.0, samples=1, seed=0)
    base.update(kw)
    return SimulationConfig(**base)


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


def test_sample_spectra_thread_invariance(cpus, monkeypatch):
    c = cfg(kind="b", n=3, seed=31, samples=400)
    cpus(1)
    serial = sample_spectra(c)
    monkeypatch.setattr(simulate, "CHUNK_ROWS", 64)
    cpus(4)
    threaded = sample_spectra(c)
    assert serial == threaded
    # more threads than samples: one chunk per sample
    cpus(8)
    assert sample_spectra(cfg(kind="b", n=3, seed=31, samples=3)) == serial[:3]


def test_sample_spectra_pool_stress(cpus, monkeypatch):
    """More threads than cores, one-sample chunks and a short switch
    interval: a chunk lost or run twice would change the result."""
    c = cfg(kind="b", n=3, seed=63, samples=120)
    cpus(1)
    serial = sample_spectra(c)
    monkeypatch.setattr(simulate, "CHUNK_ROWS", 1)
    cpus(8)
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: results.append(sample_spectra(c)))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert results == [serial]


def test_find_openblas_matches_numpy_build():
    if "mode" not in inspect.signature(np.show_config).parameters:
        pytest.skip("numpy.show_config cannot report the BLAS name")
    blas_name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert (find_openblas() is not None) == ("openblas" in blas_name)


@pytest.fixture
def blas_at_three():
    """The loaded OpenBLAS set to three threads, its count restored after."""
    blas = find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread control in this process")
    before = blas.get()
    blas.set(3)
    yield blas
    blas.set(before)


def test_pool_holds_blas_at_one_and_restores_it(blas_at_three, cpus, monkeypatch):
    c = cfg(kind="b", n=3, seed=64, samples=40)
    cpus(1)
    serial = sample_spectra(c)
    counts = []
    real_form = simulate.real_form
    monkeypatch.setattr(simulate, "real_form",
                        lambda comps: counts.append(blas_at_three.get()) or real_form(comps))
    monkeypatch.setattr(simulate, "CHUNK_ROWS", 5)
    cpus(2)
    assert sample_spectra(c) == serial
    assert len(counts) == 8 and set(counts) == {1}
    assert blas_at_three.get() == 3
    counts.clear()
    cpus(1)
    sample_spectra(c)
    assert set(counts) == {3}  # a serial run leaves the BLAS alone


def test_pool_restores_blas_when_a_chunk_raises(blas_at_three, cpus, monkeypatch):
    """A failing chunk propagates its exception, and the BLAS thread count
    comes back, whether one chunk or every chunk fails."""
    c = cfg(kind="b", n=3, seed=65, samples=40)
    real_form = simulate.real_form
    lock = threading.Lock()
    calls = []

    def fail_third(comps):
        with lock:
            calls.append(None)
            third = len(calls) == 3
        if third:
            raise InvalidArgument("chunk failed")
        return real_form(comps)

    def fail(comps):
        raise InvalidArgument("chunk failed")

    monkeypatch.setattr(simulate, "CHUNK_ROWS", 5)
    cpus(2)
    for patched in (fail_third, fail):
        monkeypatch.setattr(simulate, "real_form", patched)
        with pytest.raises(InvalidArgument, match="chunk failed"):
            sample_spectra(c)
        assert blas_at_three.get() == 3


def test_hermitian_reduction():
    for n in (2, 3, 4):
        for i in range(20):
            m = sample_matrix(cfg(kind="b", n=n, seed=32 + n), i)
            assert hermitian_reduction_residual(m) < 1e-9
    # zero antisymmetric part: plain symmetric spectrum, eight copies
    m0 = np.array([[1.0, 0.2], [0.2, -0.5]])
    m = OctonionicMatrix.from_scalar_part(m0)
    assert hermitian_reduction_residual(m) < 1e-12
    with pytest.raises(InvalidArgument):
        hermitian_reduction_residual(sample_matrix(cfg(seed=1), 0))


def test_implied_beta_inverts_ratio():
    for beta in (1.0, 2.0, 8.0):
        assert abs(implied_beta(1.0 + 2.0 / (beta + 1.0)) - beta) < 1e-12
    assert implied_beta(1.0) == float("inf")


def test_gap_statistics_requires_samples():
    c = cfg(seed=33, samples=20)
    with pytest.raises(InsufficientData):
        gap_statistics(sample_spectra(c))


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
        samples = [SpectralSample((0.0, float(g)), (8, 8), 0.0) for g in gaps]
        stats = gap_statistics(samples)
        assert abs(stats.implied_beta - beta) < max(2.0 * stats.stderr, 0.2)


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


def test_euler_single_step_equals_exact_sampler():
    c_euler = cfg(seed=40, steps=1)
    c_exact = cfg(seed=40)
    path = euler_path(c_euler, 0)
    assert path.samples[0] == spectrum(sample_matrix(c_exact, 0))


@pytest.mark.parametrize("kind,n", [("a", 2), ("b", 3)])
def test_euler_path_matches_step_loop(kind, n):
    """A path drawn at once and summed with cumsum equals the step-by-step
    loop, also at an index past the first and with a crossing."""
    c = cfg(kind=kind, n=n, seed=42, steps=7)
    for index in (0, 5):
        assert euler_path(c, index) == reference_euler_path(c, index)
    merged = cfg(kind=kind, n=n, seed=42, steps=3, cluster_tol=1e9)
    path = euler_path(merged, 1)
    assert path.crossing_detected and path.min_gap == np.inf
    assert path == reference_euler_path(merged, 1)


def test_euler_path_keeps_cluster_structure():
    c = cfg(seed=41, steps=300)
    for idx in range(3):
        path = euler_path(c, idx)
        assert not path.crossing_detected
        assert path.min_gap > 0.0
        assert all(s.multiplicities == (8, 8) for s in path.samples)


def test_sample_rng_streams_disjoint():
    a = sample_rng(7, 0).standard_normal(4)
    b = sample_rng(7, 1).standard_normal(4)
    assert not np.allclose(a, b)
    np.testing.assert_array_equal(a, sample_rng(7, 0).standard_normal(4))


def rng_state(rng: np.random.Generator) -> str:
    return repr(rng.bit_generator.state)


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


@pytest.mark.parametrize("index", [0, 1, 1023, 1024, 2 ** 64 + 3])
@pytest.mark.parametrize("seed", [0, 2 ** 63 + 5])
def test_counter_reset_matches_sample_rng(seed, index):
    """Resetting a used generator to an index's counter block gives the
    normals of a fresh sample_rng(seed, index); 2**64 + 3 sets the high
    counter word."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    key = rng.bit_generator.state["state"]["key"]
    rng.standard_normal(3)
    rng.integers(0, 10, dtype=np.uint32)  # leaves half a 64-bit word buffered
    _seek(rng, key, index)
    fresh = sample_rng(seed, index)
    assert rng_state(rng) == rng_state(fresh)
    np.testing.assert_array_equal(rng.standard_normal(37), fresh.standard_normal(37))


def test_cluster_rows_match_cluster_eigenvalues(monkeypatch):
    draws = [np.linalg.eigvalsh(real_form(sample_components(cfg(seed=60), i)))
             for i in range(3)]
    rows = np.array([
        np.r_[np.full(8, -1.0), np.full(8, 2.0)] + 1e-14 * np.arange(16),  # regular
        np.r_[np.full(8, 1.0), np.full(8, 1.0 + 1e-9)],  # a merged pair
        np.r_[np.full(3, -2.0), np.full(5, -1.0), np.full(8, 4.0)],  # a split cluster
        np.r_[np.full(7, -1.0), np.full(9, 2.0)],  # a break off the multiples of 8
        np.linalg.eigvalsh(real_form(np.zeros((8, 2, 2)))),  # all equal
        *draws,
    ])
    for tol in (1e-6, 0.0, 10.0):  # 10: every row merges into one cluster
        assert _cluster_rows(rows, tol) == [cluster_eigenvalues(r, tol) for r in rows]
    # only the four rows without clusters of eight leave the chunk-wide path
    fallbacks = []
    monkeypatch.setattr(simulate, "cluster_eigenvalues",
                        lambda e, tol: fallbacks.append(e) or cluster_eigenvalues(e, tol))
    _cluster_rows(rows, 1e-6)
    assert len(fallbacks) == 4
    monkeypatch.undo()
    assert _cluster_rows(rows, 10.0)[0].multiplicities == (16,)
    b3 = cfg(kind="b", n=3, seed=62)
    rows3 = np.array([np.linalg.eigvalsh(real_form(sample_components(b3, i)))
                      for i in range(5)])
    assert _cluster_rows(rows3, 1e-6) == [cluster_eigenvalues(r, 1e-6) for r in rows3]


def test_gap_statistics_matches_replicate_loop(monkeypatch):
    spectra = sample_spectra(cfg(seed=61, samples=400))
    seed = simulate.BOOTSTRAP_SEED
    monkeypatch.setattr(simulate, "BOOTSTRAP_SEED", 9)
    for bootstrap in (1, 64, 130):
        monkeypatch.setattr(simulate, "BOOTSTRAP_REPLICATES", bootstrap)
        assert gap_statistics(spectra) == reference_gap_statistics(spectra, bootstrap, 9)
    # replicates that draw only the equal gaps have moment ratio 1 and an
    # infinite implied exponent, so the standard error is infinite
    equal = [SpectralSample((0.0, 1.0), (8, 8), 0.0)] * 150
    equal.append(SpectralSample((0.0, 2.0), (8, 8), 0.0))
    monkeypatch.setattr(simulate, "BOOTSTRAP_SEED", seed)
    monkeypatch.setattr(simulate, "BOOTSTRAP_REPLICATES", 100)
    got = gap_statistics(equal)
    want = reference_gap_statistics(equal, 100, seed)
    assert got.stderr == np.inf
    np.testing.assert_equal(dataclasses.astuple(got), dataclasses.astuple(want))


@pytest.mark.parametrize("t", [1e-6, 0.37, 1e3, 1e40])
def test_gap_statistics_scaling_changes_no_finite_value(t, monkeypatch):
    """Dividing the gaps by a power of two is exact: the statistics equal
    those of the unscaled gaps."""
    monkeypatch.setattr(simulate, "BOOTSTRAP_REPLICATES", 130)
    spectra = sample_spectra(cfg(kind="b", seed=67, samples=300, t=t))
    assert gap_statistics(spectra) == reference_gap_statistics(spectra, 130,
                                                               simulate.BOOTSTRAP_SEED)


@pytest.mark.parametrize("n", [1, 2, 3, 101, 150, 19_999, 20_000])
def test_bootstrap_block_draw_matches_row_draws(n):
    """One (rows, n) integer draw gives the indices of ``rows`` draws of n,
    and leaves the counter generator in the same state."""
    rows = 64
    by_row = np.random.Generator(np.random.Philox(key=5))
    block = np.random.Generator(np.random.Philox(key=5))
    want = np.array([by_row.integers(0, n, n) for _ in range(rows)])
    got = block.integers(0, n, (rows, n))
    np.testing.assert_array_equal(got, want)
    np.testing.assert_equal(block.bit_generator.state, by_row.bit_generator.state)
