"""Monte Carlo sampling of the two matrix diffusions and spectral statistics.

Entries of both models are driftless Brownian motions, so the time-t law is
exactly Gaussian with variances ``t`` times the carre-du-champ coefficients;
exact Gaussian sampling carries no discretization error.  Euler paths of
``steps`` increments, for trajectory checks only, share :func:`sample_spectra`.

Spectra are solved from each draw's structure, not from its 8n x 8n real
form.  The seven imaginary units of model "b" sum to an element squaring to
-7, so its real form is I (x) M^0 + J (x) S with J^2 = -7, whose spectrum is
that of the n x n Hermitian matrix M^0 + i sqrt(7) S, eight times over.
Model "a" (n = 2) has the planar closed form (a + b)/2 -+ sqrt((a - b)^2/4 +
|q|^2) (Dray & Manogue, "The octonionic eigenvalue problem", 1998).  The
dense real form stays the reference: every row whose position index * steps
+ step is a multiple of :data:`CROSS_CHECK_EVERY` is also eigensolved and
clustered in its real form, and the run's :class:`CrossCheck` reports how
many such rows differ from their reduced row by more than
:data:`CROSS_CHECK_TOL` (1 + spectral radius), and the widest dense cluster.

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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blas import find_openblas
from .calculus import MODEL_B_ANTISYM_RATE, DiffusionModel
from .errors import InsufficientData, InvalidArgument, InvalidConfig
from .matrices import (
    OctonionicMatrix,
    entries_per_batch,
    real_form,
    spectral_radius,
)

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


#: Each thread's Philox state dict, which :func:`_seek` rewrites in place.
_philox_state = threading.local()


def _seek(rng: np.random.Generator, key: np.ndarray, index: int) -> None:
    """Put a Philox generator keyed by ``key`` into the state of a fresh
    ``sample_rng(seed, index)``: counter ``index << 128``, buffer empty.

    Each thread builds its state dict once; a call writes the index into its
    counter array in place, sets the key and assigns the dict, which the
    generator copies.  Every other field keeps its initial value, so no call
    depends on an earlier one.
    """
    state = getattr(_philox_state, "dict", None)
    if state is None:
        state = _philox_state.dict = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
    inner = state["state"]
    counter = inner["counter"]
    counter[2] = index & 0xFFFF_FFFF_FFFF_FFFF
    counter[3] = index >> 64
    inner["key"] = key
    rng.bit_generator.state = state


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

    def scatter(self, scaled: np.ndarray, components: int = 8) -> np.ndarray:
        """The first ``components`` components of the stacks, shape (...,
        components, n, n), from scaled normals of shape (..., size).  The
        entries of each component follow those of the one before, so a prefix
        of the tables fills them, with the bits of the full stack."""
        n = self.n
        used = n + n * (n - 1) * components
        comps = np.zeros(scaled.shape[:-1] + (components * n * n,))
        comps[..., self.target[:used]] = scaled[..., self.source[:used]] * self.sign[:used]
        return comps.reshape(scaled.shape[:-1] + (components, n, n))


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
    within-cluster eigenvalue range.  A sampled row repeats each reduced
    eigenvalue eight times, so its spread is 0 wherever its clusters are
    those eight copies; the rounding-level spread of the dense real form is
    reported by :attr:`CrossCheck.max_spread`.
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
#: The root of -7 that the seven imaginary units of a model-b draw act as.
HERMITIAN_ROOT = math.sqrt(7.0)
#: Rows whose position index * steps + step is a multiple of this are also
#: eigensolved in their dense real form.
CROSS_CHECK_EVERY = 64
#: Largest difference, in units of 1 + spectral radius, between a checked
#: row's dense and reduced spectra.
CROSS_CHECK_TOL = 1e-10


def _reduced_spectra(kind: str, comps: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape (..., n), of model draws solved from
    their structure; each is an eigenvalue of multiplicity 8 of the real form.

    Model "b" reads components 0 and 1 of ``comps`` (..., k >= 2, n, n), the
    scalar part M^0 and the shared S, and eigensolves M^0 + i sqrt(7) S.
    Model "a" reads the diagonal a, b and the eight coordinates of the entry
    q of a 2x2 stack: (a + b)/2 -+ sqrt((a - b)^2/4 + |q|^2), through
    ``hypot`` so that nothing overflows where the dense eigensolve does not.
    """
    if kind == "b":
        scalar, shared = comps[..., 0, :, :], comps[..., 1, :, :]
        return np.linalg.eigvalsh(scalar + 1j * (HERMITIAN_ROOT * shared))
    a, b = comps[..., 0, 0, 0], comps[..., 0, 1, 1]
    half = np.hypot(0.5 * a - 0.5 * b, np.hypot.reduce(comps[..., :, 0, 1], axis=-1))
    mid = 0.5 * a + 0.5 * b
    return np.stack([mid - half, mid + half], axis=-1)


@dataclass(frozen=True)
class CrossCheck:
    """The dense real-form check of sampled spectra.

    ``rows`` rows were also eigensolved in their real form and clustered;
    ``failures`` of them have other multiplicities than their reduced row or
    a distinct value farther from it than :data:`CROSS_CHECK_TOL` (1 + the
    reduced row's spectral radius).  ``max_mismatch`` is the largest such
    scaled distance (infinite where the multiplicities differ) and
    ``max_spread`` the widest dense cluster range.  Checks of disjoint rows
    add.
    """

    rows: int = 0
    failures: int = 0
    max_mismatch: float = 0.0
    max_spread: float = 0.0

    def __add__(self, other: CrossCheck) -> CrossCheck:
        return CrossCheck(self.rows + other.rows, self.failures + other.failures,
                          max(self.max_mismatch, other.max_mismatch),
                          max(self.max_spread, other.max_spread))


class SampledSpectra(NamedTuple):
    """What :func:`sample_spectra` returns: the spectra in (index, step)
    order and their :class:`CrossCheck`."""

    samples: list[SpectralSample]
    cross_check: CrossCheck


def _cross_check(cfg: SimulationConfig, rows: np.ndarray, reduced) -> CrossCheck:
    """Check the reduced spectra ``reduced`` of the scaled draws ``rows``
    against their real forms, eigensolved and clustered one at a time: the
    checked rows are few, and one form holds the least memory."""
    layout = _draw_layout(cfg.kind, cfg.n)
    check = CrossCheck()
    for row, got in zip(rows, reduced):
        dense, = _cluster_rows(np.linalg.eigvalsh(real_form(layout.scatter(row[None]))),
                               cfg.cluster_tol)
        mismatch = math.inf
        if dense.multiplicities == got.multiplicities:
            mismatch = (max(abs(x - y) for x, y in zip(dense.distinct, got.distinct))
                        / (1.0 + max(map(abs, got.distinct))))
        check += CrossCheck(1, int(not mismatch <= CROSS_CHECK_TOL), mismatch, dense.spread)
    return check


def _chunk_spectra(cfg: SimulationConfig, workers: int, indices: range) -> SampledSpectra:
    """Spectra of every step of the paths ``indices``: partial sums of their
    increments, solved from their structure a batch at a time, each value
    repeated eight times and clustered at once, with the dense check of the
    rows at multiples of :data:`CROSS_CHECK_EVERY`.  A batch of reduced
    solves holds 1/``workers`` of :data:`~octodyson.matrices.FORM_BATCH_BYTES`."""
    layout = _draw_layout(cfg.kind, cfg.n)
    rows = _draw(cfg, indices, cfg.steps)
    if cfg.steps > 1:
        np.cumsum(rows, axis=1, out=rows)
    rows = rows.reshape(-1, layout.size)
    kept = 2 if cfg.kind == "b" else 8
    # the kept components, and for model b the Hermitian stack with its
    # temporaries: about four times the components' bytes per row
    batch = max(1, entries_per_batch(4 * 8 * kept * cfg.n ** 2) // workers)
    distinct = np.empty((len(rows), cfg.n))
    for a in range(0, len(rows), batch):
        distinct[a:a + batch] = _reduced_spectra(cfg.kind, layout.scatter(rows[a:a + batch], kept))
    samples = _cluster_rows(np.repeat(distinct, 8, axis=1), cfg.cluster_tol)
    first = -indices.start * cfg.steps % CROSS_CHECK_EVERY
    check = _cross_check(cfg, rows[first::CROSS_CHECK_EVERY], samples[first::CROSS_CHECK_EVERY])
    return SampledSpectra(samples, check)


def sample_spectra(cfg: SimulationConfig) -> SampledSpectra:
    """Spectra of every step of all configured paths, in (index, step) order,
    with their dense cross-check; at ``steps == 1``, the spectra of
    ``sample_components(cfg, i)`` for each ``i``.

    Work is split into chunks of whole paths, at most :data:`CHUNK_ROWS`
    rows or one path, and into at least ``thread_count(cfg.n)`` chunks, each
    run by :func:`_chunk_spectra`.  With more than one thread the chunks run
    on a thread pool while the loaded OpenBLAS is held to one thread, and a
    batch holds 1/threads of :data:`~octodyson.matrices.FORM_BATCH_BYTES`, so
    that all threads together hold no more than a serial run.  Every step
    acts on each path alone, and the checked rows are fixed by their
    position, so the result is identical for any chunk size and thread count.
    """
    threads = thread_count(cfg.n)
    size = min(max(1, CHUNK_ROWS // cfg.steps), -(-cfg.samples // threads))
    chunks = [range(lo, min(lo + size, cfg.samples)) for lo in range(0, cfg.samples, size)]
    workers = min(threads, len(chunks))
    run_chunk = functools.partial(_chunk_spectra, cfg, workers)
    if workers == 1:
        parts = list(map(run_chunk, chunks))
    else:
        # more than one thread means an OpenBLAS was found; a failing chunk
        # cancels the chunks not yet started, and the BLAS count comes back
        # once the pool has shut down
        with find_openblas().held_at_one(), ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_chunk, chunks))
    return SampledSpectra(list(itertools.chain.from_iterable(p.samples for p in parts)),
                          sum((p.cross_check for p in parts), CrossCheck()))


def hermitian_reduction_residual(m: OctonionicMatrix) -> float:
    """Spectral mismatch between the real form and its Hermitian reduction.

    For a draw with one shared antisymmetric component S, the real-form
    spectrum is eight copies of the spectrum of the n x n Hermitian matrix
    M^0 + i sqrt(7) S (the sum of the seven imaginary units squares to -7,
    acting like a rescaled imaginary unit), which the sampler solves for
    model "b".  Returns the max absolute difference of the sorted multisets.

    Raises
    ------
    InvalidArgument
        If the seven nonscalar components are not all equal.
    """
    comps = m.components
    for a in range(2, 8):
        if not np.array_equal(comps[a], comps[1]):
            raise InvalidArgument("requires all nonscalar components equal (shared structure)")
    herm = _reduced_spectra("b", comps)
    return float(np.max(np.abs(m.eigenvalues - np.repeat(herm, 8))))


def implied_beta(ratio: float, n: int) -> float:
    """Spectral exponent implied by the moment ratio R = E[T^2] / E[T]^2 of
    the radial statistic T = sum_{i<j} (x_j - x_i)^2 of n distinct eigenvalues.

    Under the spectral law prod |x_i - x_j|^beta exp(-sum x_i^2 / 2t), T / nt
    is chi-square with d = (n - 1) + beta n (n - 1) / 2 degrees of freedom,
    so R = 1 + 2/d independently of t, and
    beta = 2 (2/(R - 1) - (n - 1)) / (n (n - 1)).  At n = 2, T is the squared
    gap and this is 2/(R - 1) - 1 exactly.  Infinite when R <= 1.
    """
    if ratio <= 1.0:
        return math.inf
    return 2.0 * (2.0 / (ratio - 1.0) - (n - 1)) / (n * (n - 1))


@dataclass(frozen=True)
class GapStatistics:
    """Radial spectral moments over the ``count`` samples with n clusters.

    ``moment2`` and ``moment4`` are E[T] and E[T^2] of the radial statistic
    T = sum_{i<j} (x_j - x_i)^2 (at n = 2, E[s^2] and E[s^4] of the gap s);
    ``ratio`` is E[T^2] / E[T]^2 and ``implied_beta`` its exponent, with the
    delta-method standard error ``stderr``.
    """

    count: int
    moment2: float
    moment4: float
    ratio: float
    implied_beta: float
    stderr: float


def _ratio_statistics(x: np.ndarray, n: int, unit: float) -> GapStatistics:
    """Moments, ratio, exponent and standard error from ``x``, the radial
    statistics divided by ``unit`` ** 0.5 (the moments are scaled back by
    ``unit`` and its square).

    The ratio R = b / a^2 of the means a of x and b of x^2 has, by the delta
    method, the variance of (x^2 - 2 (b/a) x) / a^2 over the count, which is
    the gradient of R contracted with the sample covariance of (x, x^2); the
    exponent's error is that times |d beta / d R| = 4 / ((R - 1)^2 n (n - 1)).
    """
    count = len(x)
    a = float(np.mean(x))
    b = float(np.mean(x ** 2))
    ratio = b / (a * a)
    beta = implied_beta(ratio, n)
    stderr = math.inf
    if math.isfinite(beta):
        spread = math.sqrt(float(np.var(x * (x - 2.0 * b / a), ddof=1)) / count) / (a * a)
        stderr = 4.0 * spread / ((ratio - 1.0) ** 2 * (n * (n - 1)))
    # float products overflow to inf, where ** and ldexp would raise
    return GapStatistics(count=count, moment2=a * unit, moment4=b * unit * unit, ratio=ratio,
                         implied_beta=beta, stderr=stderr)


def gap_statistics(samples, n: int) -> GapStatistics:
    """Spectral exponent of the samples with exactly ``n`` clusters, from the
    moments of T = sum_{i<j} (x_j - x_i)^2 over their distinct values (see
    :func:`implied_beta`); O(count n^2) work and O(count n) memory.

    The pairwise differences are divided by a power of two near the largest
    spread x_n - x_1, which is exact, so that the squares of T do not
    overflow at large ``t``; only the reported ``moment2`` and ``moment4`` are
    scaled back, and ``moment4`` alone may then be infinite.  ``stderr`` is
    the delta-method standard error of the exponent (van der Vaart,
    *Asymptotic Statistics*, ch. 3), infinite when the exponent is.

    Raises
    ------
    InsufficientData
        If fewer than 100 samples have exactly ``n`` clusters.
    """
    rows = [s.distinct for s in samples if len(s.distinct) == n]
    if len(rows) < 100:
        raise InsufficientData(f"need >= 100 samples with {n} clusters, got {len(rows)}")
    values = np.array(rows)
    scale = 2.0 ** int(np.frexp(np.max(values[:, -1] - values[:, 0]))[1])
    radial = np.zeros(len(rows))
    for i in range(n - 1):
        radial += np.sum(((values[:, i + 1:] - values[:, i, None]) / scale) ** 2, axis=1)
    return _ratio_statistics(radial, n, scale * scale)


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
    exactly (same stream, same draw order).  The spectra are those of
    :func:`sample_spectra`; the path's cross-check is not returned.
    """
    return EulerPath.from_samples(_chunk_spectra(cfg, 1, range(index, index + 1)).samples, cfg.n)
