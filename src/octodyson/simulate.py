"""Monte Carlo sampling of the two matrix diffusions and spectral statistics.

Entries of both models are driftless Brownian motions, so the time-t law is
exactly Gaussian with variances ``t`` times the carre-du-champ coefficients;
exact Gaussian sampling carries no discretization error.  Euler paths of
``steps`` Gaussian increments serve trajectory-level checks only.

Randomness is counter-based: sample ``index`` under seed ``s`` draws from a
Philox stream whose counter starts at ``index * 2**128``, so the stream is a
pure function of ``(seed, index)`` and results are bitwise reproducible
regardless of how work is split across threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .calculus import MODEL_B_ANTISYM_RATE
from .errors import InsufficientData, InvalidConfig
from .matrices import OctonionicMatrix, real_form

#: Fixed seed of the bootstrap resampler (kept independent of the sampling
#: seed so identical sample sets always yield identical standard errors).
BOOTSTRAP_SEED = 0x5EED_B007


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one sampling run.

    ``kind`` selects the model ("a" forces ``n == 2``); ``t`` is the time
    horizon of the Brownian entries; ``steps`` is the number of increments
    of an Euler path (:func:`euler_path`; the exact sampler ignores it).
    ``cluster_tol`` is the relative gap threshold separating eigenvalue
    clusters.

    Raises
    ------
    InvalidConfig
    """

    kind: str
    n: int
    t: float = 1.0
    samples: int = 1
    seed: int = 0
    steps: int = 1
    cluster_tol: float = 1e-6

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise InvalidConfig(f"kind must be 'a' or 'b', got {self.kind!r}")
        if self.kind == "a" and self.n != 2:
            raise InvalidConfig("model 'a' requires n = 2")
        if self.n < 2:
            raise InvalidConfig("n must be at least 2")
        if self.samples < 1:
            raise InvalidConfig("samples must be >= 1")
        if not self.t > 0:
            raise InvalidConfig("t must be positive")
        if self.steps < 1:
            raise InvalidConfig("steps must be >= 1")


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one sample: disjoint 2**128 counter block
    per index under a common key."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _symmetric_from_draws(n: int, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    m = np.zeros((n, n))
    m[np.diag_indices(n)] = diag
    iu = np.triu_indices(n, 1)
    m[iu] = upper
    m.T[iu] = upper
    return m


def _antisymmetric_from_draws(n: int, upper: np.ndarray) -> np.ndarray:
    m = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    m[iu] = -upper
    m.T[iu] = upper
    return m


def _draw_increment(rng: np.random.Generator, kind: str, n: int, dt: float) -> np.ndarray:
    """One Gaussian increment of the component stack over time ``dt``.

    Fixed draw order (scalar diagonal, scalar upper triangle, then the
    antisymmetric data) keeps streams reproducible across call sites.
    """
    n_off = n * (n - 1) // 2
    comps = np.zeros((8, n, n))
    diag = rng.standard_normal(n) * math.sqrt(dt)
    upper = rng.standard_normal(n_off) * math.sqrt(dt / 2.0)
    comps[0] = _symmetric_from_draws(n, diag, upper)
    if kind == "a":
        for a in range(1, 8):
            z = rng.standard_normal(n_off) * math.sqrt(dt / 2.0)
            comps[a] = _antisymmetric_from_draws(n, z)
    else:
        z = rng.standard_normal(n_off) * math.sqrt(dt * MODEL_B_ANTISYM_RATE)
        shared = _antisymmetric_from_draws(n, z)
        comps[1:] = shared
    return comps


def sample_components(cfg: SimulationConfig, index: int) -> np.ndarray:
    """Component stack of sample ``index`` under the exact time-t law."""
    rng = sample_rng(cfg.seed, index)
    return _draw_increment(rng, cfg.kind, cfg.n, cfg.t)


def sample_matrix(cfg: SimulationConfig, index: int) -> OctonionicMatrix:
    """Exact Gaussian draw of the model at time ``cfg.t``; deterministic in
    ``(cfg.seed, index)``."""
    return OctonionicMatrix(sample_components(cfg, index))


@dataclass(frozen=True)
class SpectralSample:
    """Distinct eigenvalues of one draw with multiplicities.

    ``distinct`` is strictly ascending; ``spread`` is the largest
    within-cluster eigenvalue range (ideally at rounding level).
    """

    distinct: tuple[float, ...]
    multiplicities: tuple[int, ...]
    spread: float

    @property
    def total(self) -> int:
        return int(sum(self.multiplicities))


def cluster_eigenvalues(eigenvalues: np.ndarray, cluster_tol: float) -> SpectralSample:
    """Greedy clustering of sorted eigenvalues.

    A new cluster starts wherever the gap to the previous eigenvalue exceeds
    ``cluster_tol * (1 + spectral radius)``.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    radius = float(np.max(np.abs(eigs))) if len(eigs) else 0.0
    threshold = cluster_tol * (1.0 + radius)
    distinct = []
    mults = []
    spread = 0.0
    start = 0
    for i in range(1, len(eigs) + 1):
        if i == len(eigs) or eigs[i] - eigs[i - 1] > threshold:
            group = eigs[start:i]
            distinct.append(float(np.mean(group)))
            mults.append(len(group))
            spread = max(spread, float(group[-1] - group[0]))
            start = i
    return SpectralSample(tuple(distinct), tuple(mults), spread)


def spectrum(m: OctonionicMatrix, cluster_tol: float = 1e-6) -> SpectralSample:
    """Clustered spectrum of the real form.

    Raises
    ------
    NotSymmetric
    """
    return cluster_eigenvalues(m.eigenvalues, cluster_tol)


def sample_spectra(cfg: SimulationConfig, threads: int = 1,
                   chunk: int = 1024) -> list[SpectralSample]:
    """Spectra of all configured samples.

    Work is split over index chunks; each sample is generated from its own
    counter stream and written to its own output slot, so the result is
    identical for any thread count.
    """
    results: list[SpectralSample | None] = [None] * cfg.samples

    def run_chunk(lo: int, hi: int) -> None:
        stack = np.empty((hi - lo, 8, cfg.n, cfg.n))
        for idx in range(lo, hi):
            stack[idx - lo] = sample_components(cfg, idx)
        forms = real_form(stack)
        eigs = np.linalg.eigvalsh(forms)
        for idx in range(lo, hi):
            results[idx] = cluster_eigenvalues(eigs[idx - lo], cfg.cluster_tol)

    bounds = [(lo, min(lo + chunk, cfg.samples)) for lo in range(0, cfg.samples, chunk)]
    if threads <= 1 or len(bounds) == 1:
        for lo, hi in bounds:
            run_chunk(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda b: run_chunk(*b), bounds))
    return results  # type: ignore[return-value]


def hermitian_reduction_residual(m: OctonionicMatrix) -> float:
    """Spectral mismatch between the real form and its Hermitian reduction.

    For a draw with one shared antisymmetric component S, the real-form
    spectrum is eight copies of the spectrum of the n x n Hermitian matrix
    M^0 + i sqrt(7) S (the sum of the seven imaginary units squares to -7,
    acting like a rescaled imaginary unit).  Returns the max absolute
    difference of the sorted multisets.
    """
    comps = m.components
    for a in range(2, 8):
        if not np.array_equal(comps[a], comps[1]):
            raise ValueError("requires all nonscalar components equal (shared structure)")
    h = comps[0] + 1j * math.sqrt(7.0) * comps[1]
    herm = np.linalg.eigvalsh(h)
    return float(np.max(np.abs(m.eigenvalues - np.repeat(herm, 8))))


def implied_beta(ratio: float) -> float:
    """Gap exponent implied by the moment ratio E[s^4]/E[s^2]^2.

    Under the gap law s^beta exp(-c s^2 / 2) the ratio equals
    1 + 2/(beta + 1) independently of the scale c.
    """
    if ratio <= 1.0:
        return float("inf")
    return 2.0 / (ratio - 1.0) - 1.0


@dataclass(frozen=True)
class GapStatistics:
    """Scale-free gap moments for two-cluster samples."""

    count: int
    moment2: float
    moment4: float
    ratio: float
    implied_beta: float
    stderr: float


def gap_statistics(samples, bootstrap: int = 1000,
                   bootstrap_seed: int = BOOTSTRAP_SEED) -> GapStatistics:
    """Moments of the eigenvalue gap s = x2 - x1 over two-cluster samples.

    ``stderr`` is a bootstrap standard error of the implied exponent.

    Raises
    ------
    InsufficientData
        If fewer than 100 samples have exactly two clusters.
    """
    gaps = np.array([
        s.distinct[1] - s.distinct[0] for s in samples if len(s.distinct) == 2
    ])
    if len(gaps) < 100:
        raise InsufficientData(f"need >= 100 two-cluster samples, got {len(gaps)}")
    g2 = gaps ** 2
    g4 = g2 ** 2
    m2 = float(np.mean(g2))
    m4 = float(np.mean(g4))
    ratio = m4 / (m2 * m2)
    rng = np.random.Generator(np.random.Philox(key=bootstrap_seed))
    betas = np.empty(bootstrap)
    n = len(gaps)
    for b in range(bootstrap):
        idx = rng.integers(0, n, n)
        r2 = float(np.mean(g2[idx]))
        r4 = float(np.mean(g4[idx]))
        betas[b] = implied_beta(r4 / (r2 * r2))
    return GapStatistics(
        count=n,
        moment2=m2,
        moment4=m4,
        ratio=ratio,
        implied_beta=implied_beta(ratio),
        stderr=float(np.std(betas)),
    )


@dataclass(frozen=True)
class EulerPath:
    """Per-step spectra of one discrete-time trajectory."""

    samples: tuple[SpectralSample, ...]
    crossing_detected: bool
    min_gap: float


def euler_path(cfg: SimulationConfig, index: int = 0) -> EulerPath:
    """One Euler trajectory: ``cfg.steps`` Gaussian increments of variance
    ``(t/steps) x`` the covariance coefficients, spectrum recorded per step.

    With ``steps == 1`` the endpoint reproduces :func:`sample_matrix`
    exactly (same stream, same draw order).  A crossing is flagged if the
    cluster count ever drops below ``n`` (distinct values collide at step
    resolution); ``min_gap`` is the smallest distinct-value gap seen.
    """
    rng = sample_rng(cfg.seed, index)
    dt = cfg.t / cfg.steps
    comps = np.zeros((8, cfg.n, cfg.n))
    out = []
    crossing = False
    min_gap = float("inf")
    for _ in range(cfg.steps):
        comps = comps + _draw_increment(rng, cfg.kind, cfg.n, dt)
        sample = cluster_eigenvalues(OctonionicMatrix(comps).eigenvalues, cfg.cluster_tol)
        out.append(sample)
        if len(sample.distinct) < cfg.n:
            crossing = True
        if len(sample.distinct) > 1:
            gaps = np.diff(sample.distinct)
            min_gap = min(min_gap, float(np.min(gaps)))
    return EulerPath(tuple(out), crossing, min_gap)
