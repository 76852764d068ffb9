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
clustered in its real form, a batch of forms at a time, and the run's
:class:`CrossCheck` reports how many such rows differ from their reduced row
by more than :data:`CROSS_CHECK_TOL` (1 + spectral radius), and the widest
dense cluster.  A reduced row needs no clustering when every gap between its
adjacent values exceeds the clustering threshold: its values are its n
clusters, each of multiplicity 8.  Only the other rows are clustered, as the
eight copies of each value.  The spectra come back as arrays
(:class:`SampledSpectra`).

Randomness is counter-based: sample (or path) ``index`` under seed ``s``
draws from a Philox stream keyed by ``s`` whose 256-bit counter starts at
``index * 2**128``, so the stream is a pure function of ``(seed, index)``
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
:func:`sample_rng` builds that generator for one index.  The sampler builds
one Philox per chunk of indices instead and, before each index, seeks it:
it writes the counter ``index * 2**128`` and an empty output buffer into
numpy's ``philox_state`` in place (:func:`_seek_in_place`).  The generator
is then in the state a fresh :func:`sample_rng` would have, in every field
that a draw reads, so each index's normals, and hence the output bytes,
cannot depend on the chunk size.  That struct is private to numpy, so a
probe (:func:`_in_place_seek_works`), run once per process at the first
draw, checks its layout against the generator's state dict and the seek
against :func:`sample_rng`; where it finds a mismatch the sampler assigns
the state dict instead (:func:`_seek`), which is slower but gives the same
bytes.  The chunks run one after another on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .calculus import MODEL_B_ANTISYM_RATE, DiffusionModel
from .errors import InsufficientData, InvalidConfig
from .matrices import (
    OctonionicMatrix,
    entries_per_batch,
    forms_per_batch,
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


#: The low 64 bits of an index: the third word of its counter block.
_WORD = 0xFFFF_FFFF_FFFF_FFFF


def _seek(rng: np.random.Generator, state: dict, index: int) -> None:
    """Put a Philox generator into the state of a fresh ``sample_rng(seed,
    index)``: counter ``index << 128``, buffer empty.  The sampler's seek
    where :func:`_in_place_seek_works` rejects numpy's layout.

    ``state`` is the state dict of a fresh Philox under the same key.  A call
    writes the index into its counter array in place and assigns the dict,
    which the generator validates and copies; every other field keeps its
    initial value, so no call depends on an earlier one.
    """
    counter = state["state"]["counter"]
    counter[2] = index & _WORD
    counter[3] = index >> 64
    rng.bit_generator.state = state


class _PhiloxState(ctypes.Structure):
    """numpy's ``philox_state``, which ``Philox.ctypes.state_address`` points
    to: pointers to the 4-word counter and the 2-word key, the output buffer
    of one block with the position of its next word, and the upper half of
    a word that a uint32 draw left."""

    _fields_ = [("counter", ctypes.POINTER(ctypes.c_uint64 * 4)),
                ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
                ("buffer_pos", ctypes.c_int),
                ("buffer", ctypes.c_uint64 * 4),
                ("has_uint32", ctypes.c_int),
                ("uinteger", ctypes.c_uint32)]


def _seek_in_place(bitgen: np.random.Philox) -> Callable[[int], None]:
    """A seek of ``bitgen`` to the state of a fresh ``sample_rng(seed, index)``
    that writes numpy's ``philox_state`` in place, without the validation
    and copies of a state-dict assignment (:func:`_seek`).

    A call writes the counter (0, 0, index mod 2**64, index >> 64), sets
    ``buffer_pos`` to 4 (the buffer is spent) and ``has_uint32`` to 0.  The
    stale buffer words and ``uinteger`` are never read before a draw
    rewrites them, so every draw after the seek is that of the fresh
    generator.  The seek is valid while ``bitgen`` lives, and only where
    :func:`_in_place_seek_works`.
    """
    view = _PhiloxState.from_address(bitgen.ctypes.state_address)
    counter = view.counter.contents

    def seek(index: int) -> None:
        counter[0] = 0
        counter[1] = 0
        counter[2] = index & _WORD
        counter[3] = index >> 64
        view.buffer_pos = 4
        view.has_uint32 = 0

    return seek


def _fields_match(bitgen: np.random.Philox, view: _PhiloxState) -> bool:
    """Whether the fields of ``view`` read what ``bitgen.state`` says."""
    state = bitgen.state
    return ([*view.counter.contents], [*view.key.contents], view.buffer_pos,
            view.has_uint32, view.uinteger) == (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer_pos"], state["has_uint32"], state["uinteger"])


@functools.cache
def _in_place_seek_works() -> bool:
    """Whether :class:`_PhiloxState` is the installed numpy's layout, so that
    :func:`_seek_in_place` may be used; checked once per process, at the
    first draw.

    numpy keeps the struct, the counter and the key as fields of the Philox
    object, so all three must lie inside it before anything is read through
    the struct.  Its fields must then read the generator's state dict, on
    a fresh generator and after 2 normals and one uint32 draw, which leave
    one word of the buffer unread and half a word in ``uinteger``.  Last,
    seeks of that used generator to an index below and one above 2**64 must
    give the normals of :func:`sample_rng`.
    """
    seed = 2 ** 63 + 5
    bitgen = np.random.Philox(key=seed)
    view = _PhiloxState.from_address(bitgen.ctypes.state_address)
    start, end = id(bitgen), id(bitgen) + type(bitgen).__basicsize__

    def inside(address, size: int) -> bool:
        return address is not None and start <= address and address + size <= end

    if not (inside(ctypes.addressof(view), ctypes.sizeof(view))
            and inside(ctypes.cast(view.counter, ctypes.c_void_p).value, 32)
            and inside(ctypes.cast(view.key, ctypes.c_void_p).value, 16)
            and _fields_match(bitgen, view)):
        return False
    rng = np.random.Generator(bitgen)
    rng.standard_normal(2)
    rng.integers(0, 10, dtype=np.uint32)
    if not _fields_match(bitgen, view):
        return False
    seek = _seek_in_place(bitgen)
    for index in (1, 2 ** 64 + 7):
        seek(index)
        if not np.array_equal(rng.standard_normal(8), sample_rng(seed, index).standard_normal(8)):
            return False
    return True


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
    shape (len(indices), steps, size).  One Philox, sought to each index's
    counter block, fills its rows with one ``standard_normal`` call."""
    layout = _draw_layout(cfg.kind, cfg.n)
    bitgen = np.random.Philox(key=cfg.seed)
    rng = np.random.Generator(bitgen)
    if _in_place_seek_works():
        seek = _seek_in_place(bitgen)
    else:
        seek = functools.partial(_seek, rng, bitgen.state)
    fill = rng.standard_normal
    normals = np.empty((len(indices), steps, layout.size))
    for index, path in zip(indices, normals):
        seek(index)
        fill(out=path)
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
    within-cluster eigenvalue range.
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


def _cluster_rows(eigs: np.ndarray, cluster_tol: float,
                  copies: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`cluster_eigenvalues` of every ascending row of ``eigs`` (k, m)
    repeated ``8 // copies`` times, as the arrays of :class:`SampledSpectra`
    with n = m / copies: ``copies`` is 8 for dense real forms and 1 for
    reduced values, each of which stands for eight equal eigenvalues.

    The thresholds and gaps of all rows are computed at once.  A row whose
    gaps exceed its threshold exactly after every ``copies``-th value holds
    n clusters of multiplicity 8, and ``reshape(n, copies).mean(-1)`` sums
    each cluster in the same pairwise order as ``np.mean`` of the cluster
    (at ``copies`` 1 the means are the values).  Only the other rows go
    through :func:`cluster_eigenvalues`.
    """
    rows, m = eigs.shape
    n = m // copies
    threshold = cluster_tol * (1.0 + np.max(np.abs(eigs), axis=1))
    breaks = np.arange(1, m) % copies == 0
    regular = np.all((np.diff(eigs, axis=1) > threshold[:, None]) == breaks, axis=1)
    groups = eigs.reshape(rows, n, copies)
    distinct = groups.mean(axis=-1)
    widest = np.max(groups[..., -1] - groups[..., 0], axis=1)
    spread = np.where(widest > 0.0, widest, 0.0)
    mults = np.full((rows, n), 8)
    for i in np.flatnonzero(~regular):
        s = cluster_eigenvalues(np.repeat(eigs[i], 8 // copies), cluster_tol)
        distinct[i] = (s.distinct + (math.nan,) * n)[:n]
        mults[i] = (s.multiplicities + (0,) * n)[:n]
        spread[i] = s.spread
    return distinct, mults, spread


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


def model_spectra(kind: str, comps: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape (..., 8n), of the real forms of model
    draws ``comps`` (..., 8, n, n): each value of :func:`_reduced_spectra`
    eight times.  No real form is built or eigensolved."""
    return np.repeat(_reduced_spectra(kind, comps), 8, axis=-1)


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


@dataclass(frozen=True, eq=False)
class SampledSpectra:
    """What :func:`sample_spectra` returns: the spectra of its k rows in
    (index, step) order, as arrays, and their :class:`CrossCheck`.

    Row i has ``distinct[i]``, ascending, with ``multiplicities[i]`` (both
    shape (k, n)) and the widest within-cluster range ``spread[i]``: 0 where
    its clusters are the eight copies of its reduced values.  A row with
    fewer than n clusters is padded with NaN values of multiplicity 0; no
    row has more, as the copies of a value are equal.
    """

    distinct: np.ndarray
    multiplicities: np.ndarray
    spread: np.ndarray
    cross_check: CrossCheck = CrossCheck()

    def __len__(self) -> int:
        return len(self.distinct)

    @property
    def complete(self) -> np.ndarray:
        """Which rows have n clusters."""
        return np.all(self.multiplicities > 0, axis=1)

    @property
    def clean(self) -> np.ndarray:
        """Which rows have n clusters of multiplicity 8."""
        return np.all(self.multiplicities == 8, axis=1)

    def min_gap(self) -> float:
        """The smallest gap between adjacent distinct values of any row;
        infinite when no row has two clusters."""
        gaps = np.diff(self.distinct, axis=1)
        return float(np.min(gaps, initial=math.inf, where=self.multiplicities[:, 1:] > 0))


def _cross_check(cfg: SimulationConfig, rows: np.ndarray, reduced: np.ndarray,
                 mults: np.ndarray) -> CrossCheck:
    """Check the reduced spectra ``reduced`` with multiplicities ``mults`` of
    the scaled draws ``rows`` against their real forms, eigensolved and
    clustered :func:`~octodyson.matrices.forms_per_batch` forms at a time."""
    layout = _draw_layout(cfg.kind, cfg.n)
    step = forms_per_batch(cfg.n)
    check = CrossCheck()
    for a in range(0, len(rows), step):
        eigs = np.linalg.eigvalsh(real_form(layout.scatter(rows[a:a + step])))
        dense, dense_mults, spread = _cluster_rows(eigs, cfg.cluster_tol, 8)
        got, got_mults = reduced[a:a + step], mults[a:a + step]
        present = got_mults > 0
        mismatch = (np.max(np.abs(dense - got), axis=1, initial=0.0, where=present)
                    / (1.0 + np.max(np.abs(got), axis=1, initial=0.0, where=present)))
        mismatch[np.any(dense_mults != got_mults, axis=1)] = math.inf
        check += CrossCheck(len(got), int(np.count_nonzero(~(mismatch <= CROSS_CHECK_TOL))),
                            float(np.max(mismatch)), float(np.max(spread)))
    return check


def _chunk_spectra(cfg: SimulationConfig, indices: range) -> tuple[np.ndarray, ...]:
    """Spectra of every step of the paths ``indices``: partial sums of their
    increments, solved from their structure a batch at a time and clustered
    at once, with the scaled draws of the rows at multiples of
    :data:`CROSS_CHECK_EVERY`, which the cross-check reads."""
    layout = _draw_layout(cfg.kind, cfg.n)
    rows = _draw(cfg, indices, cfg.steps)
    if cfg.steps > 1:
        np.cumsum(rows, axis=1, out=rows)
    rows = rows.reshape(-1, layout.size)
    kept = 2 if cfg.kind == "b" else 8
    # the kept components, and for model b the Hermitian stack with its
    # temporaries: about four times the components' bytes per row
    batch = entries_per_batch(4 * 8 * kept * cfg.n ** 2)
    distinct = np.empty((len(rows), cfg.n))
    for a in range(0, len(rows), batch):
        distinct[a:a + batch] = _reduced_spectra(cfg.kind, layout.scatter(rows[a:a + batch], kept))
    first = -indices.start * cfg.steps % CROSS_CHECK_EVERY
    return (*_cluster_rows(distinct, cfg.cluster_tol, 1),
            rows[first::CROSS_CHECK_EVERY].copy())


def sample_spectra(cfg: SimulationConfig) -> SampledSpectra:
    """Spectra of every step of all configured paths, in (index, step) order,
    with their dense cross-check; at ``steps == 1``, the spectra of
    ``sample_components(cfg, i)`` for each ``i``.

    Work is split into chunks of whole paths, at most :data:`CHUNK_ROWS`
    rows or one path, each run by :func:`_chunk_spectra` in turn.  Every
    step acts on each path alone, and the checked rows are fixed by their
    position, so the result is identical for any chunk size.
    """
    size = max(1, CHUNK_ROWS // cfg.steps)
    parts = [_chunk_spectra(cfg, range(lo, min(lo + size, cfg.samples)))
             for lo in range(0, cfg.samples, size)]
    distinct, mults, spread, checked = map(np.concatenate, zip(*parts))
    check = _cross_check(cfg, checked, distinct[::CROSS_CHECK_EVERY], mults[::CROSS_CHECK_EVERY])
    return SampledSpectra(distinct, mults, spread, check)


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


def gap_statistics(spectra: SampledSpectra) -> GapStatistics:
    """Spectral exponent of the rows of ``spectra`` with n clusters, from the
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
        If fewer than 100 rows have n clusters.
    """
    values = spectra.distinct[spectra.complete]
    count, n = values.shape
    if count < 100:
        raise InsufficientData(f"need >= 100 samples with {n} clusters, got {count}")
    scale = 2.0 ** int(np.frexp(np.max(values[:, -1] - values[:, 0]))[1])
    radial = np.zeros(count)
    for i in range(n - 1):
        radial += np.sum(((values[:, i + 1:] - values[:, i, None]) / scale) ** 2, axis=1)
    return _ratio_statistics(radial, n, scale * scale)
