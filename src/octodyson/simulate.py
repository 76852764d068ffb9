"""Monte Carlo sampling of the two matrix diffusions and spectral statistics.

Entries of both models are driftless Brownian motions, so the time-t law is
exactly Gaussian with variances ``t`` times the carre-du-champ coefficients;
exact Gaussian sampling carries no discretization error.  Euler paths of
``steps`` increments, for trajectory checks only, share :func:`sample_spectra`.

Randomness is counter-based: sample (or path) ``index`` under seed ``s``
draws from a Philox stream keyed by ``s`` whose 256-bit counter starts at
``index * 2**128``, so the stream is a pure function of ``(seed, index)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
:func:`sample_rng` builds that generator for one index.  The sampler builds
one Philox per chunk of indices instead and, before each index, resets its
counter to ``index * 2**128`` with an empty output buffer: the generator is
then in exactly the state a fresh :func:`sample_rng` would have, so each
index's normals, and hence the output bytes, cannot depend on the chunk size
or on the thread count.  What varies with those is only which generator
object does the drawing, and on which thread.  The thread count is not an
input: :func:`thread_count` derives it from the matrix size, the usable CPUs
and the BLAS that numpy loaded.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .blas import find_openblas
from .calculus import MODEL_B_ANTISYM_RATE, DiffusionModel
from .errors import InsufficientData, InvalidArgument, InvalidConfig
from .matrices import OctonionicMatrix, forms_per_batch, real_form, spectral_radius

#: Fixed seed of the bootstrap resampler (kept independent of the sampling
#: seed so identical sample sets always yield identical standard errors).
BOOTSTRAP_SEED = 0x5EED_B007
#: Bootstrap replicates behind the standard error of the implied exponent.
BOOTSTRAP_REPLICATES = 1000


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one sampling run.

    ``kind`` and ``n`` must name a :class:`~octodyson.calculus.DiffusionModel`
    ("a" forces ``n == 2``), which alone judges them; ``t`` is the time
    horizon of the Brownian entries; ``steps`` is the number of increments
    of each path, with spectra recorded per step (1: the exact time-t law).
    ``cluster_tol`` is the relative gap threshold separating eigenvalue
    clusters; it and ``t`` must be positive and finite.

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
        DiffusionModel(self.kind, self.n)
        if self.samples < 1:
            raise InvalidConfig("samples must be >= 1")
        if not 0 < self.t < math.inf:
            raise InvalidConfig("t must be positive and finite")
        if self.steps < 1:
            raise InvalidConfig("steps must be >= 1")
        if not 0 < self.cluster_tol < math.inf:
            raise InvalidConfig("cluster_tol must be positive and finite")


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator for one sample: disjoint 2**128 counter block
    per index under a common key."""
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))


def _seek(rng: np.random.Generator, key: np.ndarray, index: int) -> None:
    """Put a Philox generator keyed by ``key`` into the state of a fresh
    ``sample_rng(seed, index)``: counter ``index << 128``, buffer empty."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, index & 0xFFFF_FFFF_FFFF_FFFF, index >> 64],
                                      dtype=np.uint64),
                  "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


@dataclass(frozen=True)
class _DrawLayout:
    """Where the normals of one increment go in the (8, n, n) stack.

    One increment is ``size`` standard normals in a fixed order: the scalar
    diagonal, the scalar upper triangle (row-major), then the antisymmetric
    upper triangles (seven for model "a", one shared for model "b").  Normal
    ``source[e]``, times its scale and ``sign[e]``, lands at flat position
    ``target[e]`` of the stack; every other entry is zero.  ``scale_index[i]``
    selects the scale of normal ``i``: 0 for the diagonal (variance dt), 1
    for the scalar off-diagonal and model "a"'s antisymmetric entries (dt/2),
    2 for model "b"'s shared antisymmetric entries (dt / 14).
    """

    n: int
    size: int
    scale_index: np.ndarray
    source: np.ndarray
    target: np.ndarray
    sign: np.ndarray

    def scale(self, dt: float) -> np.ndarray:
        """Per-normal standard deviations of an increment over ``dt``."""
        return np.array([math.sqrt(dt), math.sqrt(dt / 2.0),
                         math.sqrt(dt * MODEL_B_ANTISYM_RATE)])[self.scale_index]

    def scatter(self, scaled: np.ndarray) -> np.ndarray:
        """Component stacks, shape (..., 8, n, n), from scaled normals of
        shape (..., size)."""
        n = self.n
        comps = np.zeros(scaled.shape[:-1] + (8 * n * n,))
        comps[..., self.target] = scaled[..., self.source] * self.sign
        return comps.reshape(scaled.shape[:-1] + (8, n, n))


@functools.lru_cache(maxsize=16)
def _draw_layout(kind: str, n: int) -> _DrawLayout:
    rows, cols = np.triu_indices(n, 1)
    n_off = len(rows)
    diag = np.arange(n)
    source = [diag, n + np.arange(n_off), n + np.arange(n_off)]
    target = [diag * (n + 1), rows * n + cols, cols * n + rows]
    sign = [np.ones(n + 2 * n_off)]
    for c in range(1, 8):
        start = n + n_off * (c if kind == "a" else 1)
        upper = start + np.arange(n_off)
        source += [upper, upper]
        target += [c * n * n + rows * n + cols, c * n * n + cols * n + rows]
        sign += [-np.ones(n_off), np.ones(n_off)]
    size = n + n_off * (8 if kind == "a" else 2)
    scale_index = np.ones(size, dtype=np.intp)
    scale_index[:n] = 0
    if kind == "b":
        scale_index[n + n_off:] = 2
    arrays = [scale_index] + [np.concatenate(part) for part in (source, target, sign)]
    for a in arrays:
        a.setflags(write=False)
    return _DrawLayout(n, size, *arrays)


def _draw(cfg: SimulationConfig, indices: range, steps: int) -> np.ndarray:
    """Scaled normals of ``steps`` increments over ``cfg.t / steps`` per index,
    shape (len(indices), steps, size).  One Philox, reset to each index's
    counter block, fills its rows with one ``standard_normal`` call."""
    layout = _draw_layout(cfg.kind, cfg.n)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    key = rng.bit_generator.state["state"]["key"]
    normals = np.empty((len(indices), steps, layout.size))
    for index, path in zip(indices, normals):
        _seek(rng, key, index)
        rng.standard_normal(out=path)
    normals *= layout.scale(cfg.t / steps)
    return normals


def sample_stack(cfg: SimulationConfig, indices: range) -> np.ndarray:
    """Component stacks of the samples ``indices``, shape (len(indices), 8, n, n):
    the exact time-t draws of :func:`sample_spectra`, whatever ``cfg.steps``."""
    return _draw_layout(cfg.kind, cfg.n).scatter(_draw(cfg, indices, 1)[:, 0])


def sample_components(cfg: SimulationConfig, index: int) -> np.ndarray:
    """Component stack of sample ``index``: the one-entry :func:`sample_stack`."""
    return sample_stack(cfg, range(index, index + 1))[0]


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


def cluster_eigenvalues(eigenvalues: np.ndarray, cluster_tol: float) -> SpectralSample:
    """Greedy clustering of sorted eigenvalues.

    A new cluster starts wherever the gap to the previous eigenvalue exceeds
    ``cluster_tol * (1 + spectral radius)``.
    """
    eigs = np.sort(np.asarray(eigenvalues, dtype=np.float64))
    threshold = cluster_tol * (1.0 + spectral_radius(eigs))
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


def _cluster_rows(eigs: np.ndarray, cluster_tol: float) -> list[SpectralSample]:
    """:func:`cluster_eigenvalues` of every row of ``eigs`` (ascending rows
    of length 8n), equal to it row by row.

    The thresholds and gaps of all rows are computed at once.  A row whose
    gaps exceed its threshold exactly at positions 8, 16, ... holds n
    clusters of eight, and ``reshape(n, 8).mean(-1)`` sums each cluster in
    the same pairwise order as ``np.mean`` of the cluster; every other row
    goes through :func:`cluster_eigenvalues`.
    """
    rows, m = eigs.shape
    threshold = cluster_tol * (1.0 + np.max(np.abs(eigs), axis=1))
    regular_breaks = np.arange(1, m) % 8 == 0
    regular = np.all((np.diff(eigs, axis=1) > threshold[:, None]) == regular_breaks, axis=1)
    groups = eigs.reshape(rows, m // 8, 8)
    means = groups.mean(axis=-1).tolist()
    widest = np.max(groups[..., 7] - groups[..., 0], axis=1)
    spreads = np.where(widest > 0.0, widest, 0.0).tolist()
    mults = (8,) * (m // 8)
    return [SpectralSample(tuple(means[i]), mults, spreads[i]) if regular[i]
            else cluster_eigenvalues(eigs[i], cluster_tol)
            for i in range(rows)]


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_count(n: int) -> int:
    """The thread count :func:`sample_spectra` runs with at matrix size ``n``.

    Every usable CPU when n >= 3 and the loaded OpenBLAS can be held to one
    thread while the chunks run, else 1: a BLAS that spreads each call over
    the cores as well would compete with the pool for them, and at n = 2 a
    second thread measured no faster and kept its freed chunk memory in its
    own malloc arena.  The output bytes do not depend on it; a CPU affinity
    mask (``taskset``) bounds it.
    """
    return usable_cpus() if n >= 3 and find_openblas() is not None else 1


#: Most rows (path steps) in one chunk of :func:`sample_spectra`, bar a long path.
CHUNK_ROWS = 1024


def _chunk_spectra(cfg: SimulationConfig, batch: int, indices: range) -> list[SpectralSample]:
    """Spectra of every step of the paths ``indices``: partial sums of their
    increments, eigensolved ``batch`` real forms at a time, clustered at once."""
    layout = _draw_layout(cfg.kind, cfg.n)
    rows = _draw(cfg, indices, cfg.steps)
    if cfg.steps > 1:
        np.cumsum(rows, axis=1, out=rows)
    rows = rows.reshape(-1, layout.size)
    eigs = np.empty((len(rows), 8 * cfg.n))
    for a in range(0, len(rows), batch):
        eigs[a:a + batch] = np.linalg.eigvalsh(real_form(layout.scatter(rows[a:a + batch])))
    return _cluster_rows(eigs, cfg.cluster_tol)


def sample_spectra(cfg: SimulationConfig) -> list[SpectralSample]:
    """Spectra of every step of all configured paths, in (index, step) order;
    at ``steps == 1``, those of ``sample_components(cfg, i)`` for each ``i``.

    Work is split into chunks of whole paths, at most :data:`CHUNK_ROWS`
    rows or one path, and into at least ``thread_count(cfg.n)`` chunks, each
    run by :func:`_chunk_spectra`.  With more than one thread the chunks run
    on a thread pool while the loaded OpenBLAS is held to one thread, and a
    batch holds 1/threads of :data:`~octodyson.matrices.FORM_BATCH_BYTES`, so
    that all threads together hold no more forms than a serial run.  Every
    step acts on each path alone, so the result is identical for any chunk
    size and thread count.
    """
    threads = thread_count(cfg.n)
    size = min(max(1, CHUNK_ROWS // cfg.steps), -(-cfg.samples // threads))
    chunks = [range(lo, min(lo + size, cfg.samples)) for lo in range(0, cfg.samples, size)]
    workers = min(threads, len(chunks))
    run_chunk = functools.partial(_chunk_spectra, cfg, max(1, forms_per_batch(cfg.n) // workers))
    if workers == 1:
        parts = map(run_chunk, chunks)
    else:
        # more than one thread means an OpenBLAS was found; a failing chunk
        # cancels the chunks not yet started, and the BLAS count comes back
        # once the pool has shut down
        with find_openblas().held_at_one(), ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, chunks))
    return list(itertools.chain.from_iterable(parts))


def hermitian_reduction_residual(m: OctonionicMatrix) -> float:
    """Spectral mismatch between the real form and its Hermitian reduction.

    For a draw with one shared antisymmetric component S, the real-form
    spectrum is eight copies of the spectrum of the n x n Hermitian matrix
    M^0 + i sqrt(7) S (the sum of the seven imaginary units squares to -7,
    acting like a rescaled imaginary unit).  Returns the max absolute
    difference of the sorted multisets.

    Raises
    ------
    InvalidArgument
        If the seven nonscalar components are not all equal.
    """
    comps = m.components
    for a in range(2, 8):
        if not np.array_equal(comps[a], comps[1]):
            raise InvalidArgument("requires all nonscalar components equal (shared structure)")
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


def gap_statistics(samples) -> GapStatistics:
    """Moments of the eigenvalue gap s = x2 - x1 over two-cluster samples.

    The moments are taken of the gaps divided by a power of two near the
    largest, which is exact, so that the fourth powers do not overflow at
    large ``t``; only the reported ``moment2`` and ``moment4`` are scaled
    back, and ``moment4`` alone may then be infinite.  ``stderr`` is the
    standard deviation of the implied exponent over
    :data:`BOOTSTRAP_REPLICATES` bootstrap replicates drawn with
    :data:`BOOTSTRAP_SEED`; it is infinite when some replicate implies an
    infinite exponent.

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
    scale = 2.0 ** int(np.frexp(gaps.max())[1])
    g2 = (gaps / scale) ** 2
    g4 = g2 ** 2
    m2 = float(np.mean(g2))
    m4 = float(np.mean(g4))
    ratio = m4 / (m2 * m2)
    rng = np.random.Generator(np.random.Philox(key=BOOTSTRAP_SEED))
    betas = np.empty(BOOTSTRAP_REPLICATES)
    n = len(gaps)
    # blocks of at most 64 replicates bound the index scratch at 64 n
    # integers; one block draw gives the indices of its rows drawn one by
    # one, and a row mean sums in the same order as np.mean of that row alone
    for lo in range(0, BOOTSTRAP_REPLICATES, 64):
        idx = rng.integers(0, n, (min(64, BOOTSTRAP_REPLICATES - lo), n))
        r2 = g2[idx].mean(axis=1)
        ratios = g4[idx].mean(axis=1) / (r2 * r2)
        betas[lo:lo + len(idx)] = [implied_beta(r) for r in ratios.tolist()]
    # float products overflow to inf, where ** and ldexp would raise
    s2 = scale * scale
    return GapStatistics(
        count=n,
        moment2=m2 * s2,
        moment4=m4 * s2 * s2,
        ratio=ratio,
        implied_beta=implied_beta(ratio),
        stderr=float(np.std(betas)) if np.isfinite(betas).all() else math.inf,
    )


@dataclass(frozen=True)
class EulerPath:
    """Per-step spectra of one discrete-time trajectory."""

    samples: tuple[SpectralSample, ...]
    crossing_detected: bool
    min_gap: float

    @classmethod
    def from_samples(cls, samples, n: int) -> EulerPath:
        """The path of per-step spectra ``samples`` at matrix size ``n``; it
        crosses if distinct values ever collide (fewer than ``n`` clusters)."""
        gaps = [float(np.min(np.diff(s.distinct))) for s in samples if len(s.distinct) > 1]
        return cls(tuple(samples), any(len(s.distinct) < n for s in samples),
                   min([math.inf, *gaps]))


def euler_path(cfg: SimulationConfig, index: int = 0) -> EulerPath:
    """One Euler trajectory: ``cfg.steps`` Gaussian increments of variance
    ``(t/steps) x`` the covariance coefficients, spectrum recorded per step.

    With ``steps == 1`` the endpoint reproduces :func:`sample_matrix`
    exactly (same stream, same draw order).
    """
    return EulerPath.from_samples(
        _chunk_spectra(cfg, forms_per_batch(cfg.n), range(index, index + 1)), cfg.n)
