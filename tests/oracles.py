"""Independent oracles for the test suite.

Everything here is deliberately built by a different route than the library
code it checks: quadruple sums from the raw entry-level covariance tensor,
moment ratios from quadrature, gap laws from a rejection sampler,
spectral laws from the tridiagonal beta-Hermite model, radial moments
without scaling and their standard error from ``np.cov``, 2x2
spectra from the explicit quadratic formula, components read back off the
blocks of a real form, and the compatibility condition pair by pair.  The
reference constructions at the end are the straightforward forms of the hot
paths: the sampler one matrix and one triangle at a time, spectra one draw
at a time, from the structure (the Hermitian reduction of model b, the
planar closed form of model a) or from the dense real form, with the
sampler's cross-check row by row, the arrays of spectra one row at a time,
Euler paths one step and one solve at a time, the octonion product as the
dense contraction with the structure tensor, term by term and as sign-label
arithmetic on basis elements, the exact algebra suites and the generator
sign weights as loops over label tuples, the structured inverse with its
three factorisations of M^0, and the finite differences and dimension-2
traces one entry or component at a time.  The vectorised library code must
reproduce them bit for bit.  The identity suites run one trial, one
resolvent, one structured inverse, one reduced spectrum and one dense
inverse at a time, on the library's draws and random streams, and the
Gamma and generator sums one label pair at a time; the suites must
reproduce their reports, the pairing sums their values to rounding.
Spectrum CSV rows are joined cell by cell from
:func:`~octodyson.reporting.fmt17` and ``str``.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np

from octodyson import verify
from octodyson.algebra import _TABLE_ROWS, CANONICAL_LABELS, FLOAT_TOL, SIGN_TABLE
from octodyson.calculus import (
    MODEL_B_ANTISYM_RATE,
    DiffusionModel,
    gamma_closed_form,
    gamma_log_charpoly,
    generator_closed_form,
    generator_log_charpoly,
)
from octodyson.errors import (
    Error,
    NearSingularShift,
    NotSymmCompatible,
    SingularBase,
    SingularCore,
)
from octodyson.matrices import (
    ANTISYM_UNIT_2,
    COND_LIMIT,
    DIM2_TOL,
    FD_STEP,
    SYMM_TOL,
    CharPolyEval,
    OctonionicMatrix,
    logdet_gradient,
    off_spectrum_points,
    real_form,
    separated_shifts,
    shift_guard,
)
from octodyson.reporting import IdentityReport, fmt17
from octodyson.simulate import (
    GapStatistics,
    SampledSpectra,
    SimulationConfig,
    SpectralSample,
    cluster_eigenvalues,
    sample_matrix,
    sample_rng,
)
from octodyson.verify import CLOSED_FORM_TOL, ROUNDTRIP_TOL, TRACE_TOL


def entry_gamma_tensor(kind: str, n: int) -> np.ndarray:
    """Full covariance tensor G[I, J, K, L] over real-form entries.

    Built directly from the block sign structure and the delta-form
    component rules; no reuse of the library's aggregated weights.
    """
    m = 8 * n
    g = np.zeros((m, m, m, m))
    for pa, a in enumerate(CANONICAL_LABELS):
        for pb, b in enumerate(CANONICAL_LABELS):
            f = a ^ b
            sf = SIGN_TABLE[f, b]
            for pc, c in enumerate(CANONICAL_LABELS):
                for pd, d in enumerate(CANONICAL_LABELS):
                    gg = c ^ d
                    sg = SIGN_TABLE[gg, d]
                    if kind == "a":
                        if f != gg:
                            continue
                        c1, c2 = 0.5, 0.5 * SIGN_TABLE[f, f]
                    else:
                        if f == 0 and gg == 0:
                            c1, c2 = 0.5, 0.5
                        elif f != 0 and gg != 0:
                            c1, c2 = 1.0 / 14.0, -1.0 / 14.0
                        else:
                            continue
                    s = float(sf * sg)
                    # first line: delta_ik delta_jl; second: delta_il delta_jk
                    for i in range(n):
                        for j in range(n):
                            g[pa * n + i, pb * n + j, pc * n + i, pd * n + j] += s * c1
                            g[pa * n + i, pb * n + j, pc * n + j, pd * n + i] += s * c2
    return g


def gamma_sum_bruteforce(ux: np.ndarray, uy: np.ndarray, g: np.ndarray) -> float:
    """sum_{ijkl} U(x)_ji U(y)_lk G[i,j,k,l]."""
    return float(np.einsum("ji,lk,ijkl->", ux, uy, g))


def generator_sum_bruteforce(ux: np.ndarray, g: np.ndarray) -> float:
    """-sum_{ijkl} U(x)_jk U(x)_li G[i,j,k,l] (zero-drift models)."""
    return -float(np.einsum("jk,li,ijkl->", ux, ux, g))


def moment_ratio_by_quadrature(beta: float) -> float:
    """E[s^4]/E[s^2]^2 under density proportional to s^beta exp(-s^2/2)."""
    from scipy.integrate import quad

    def moment(k: float) -> float:
        val, _ = quad(lambda s: s ** (beta + k) * np.exp(-s * s / 2.0), 0.0, np.inf)
        return val

    m0 = moment(0.0)
    return (moment(4.0) / m0) / (moment(2.0) / m0) ** 2


def rejection_gap_sampler(beta: float, size: int, rng: np.random.Generator,
                          s_max: float = 12.0) -> np.ndarray:
    """Draws from density proportional to s^beta exp(-s^2/2) on (0, s_max)."""
    mode = np.sqrt(beta)
    peak = mode ** beta * np.exp(-mode * mode / 2.0)
    out = np.empty(size)
    filled = 0
    while filled < size:
        batch = max(4 * (size - filled), 1024)
        s = rng.uniform(0.0, s_max, batch)
        u = rng.uniform(0.0, peak, batch)
        keep = s[u < s ** beta * np.exp(-s * s / 2.0)]
        take = min(len(keep), size - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    return out


def planar_distinct_eigenvalues(components: np.ndarray) -> tuple[float, float]:
    """The two distinct real-form eigenvalues of a 2x2 structured draw.

    For scalar part [[a, c], [c, b]] and antisymmetric parts z_A times the
    antisymmetric unit, the entry pair is (c -+ sum z_A w_A), and the two
    eigenvalues are (a+b)/2 -+ sqrt((a-b)^2/4 + c^2 + sum z_A^2).
    """
    m0 = components[0]
    a, b, c = m0[0, 0], m0[1, 1], m0[0, 1]
    q2 = c * c + sum(components[k][1, 0] ** 2 for k in range(1, 8))
    half = np.sqrt(0.25 * (a - b) ** 2 + q2)
    mid = 0.5 * (a + b)
    return mid - half, mid + half


def components_from_real_form(matrix: np.ndarray) -> np.ndarray:
    """The component stack read off the first block column of an 8n x 8n
    matrix: the (A, identity-label) block of a real form is ``M^A``."""
    n = matrix.shape[-1] // 8
    comps = np.empty((8, n, n))
    for pa, a in enumerate(CANONICAL_LABELS):
        comps[a] = matrix[pa * n:(pa + 1) * n, 0:n]
    return comps


def octonionic_residual(matrix: np.ndarray) -> float:
    """Max-norm distance from ``matrix`` to the real form its blocks imply."""
    return float(np.max(np.abs(matrix - real_form(components_from_real_form(matrix)))))


def symm_compatibility_residual_by_pair(components: np.ndarray) -> float:
    """Worst scaled residual of M^A (M^0)^-1 M^B == M^B (M^0)^-1 M^A, one
    label pair at a time, each scaled by 1 + |M^A| |M^B|."""
    m0_inv = np.linalg.inv(components[0])
    worst = 0.0
    for a in range(8):
        for b in range(a + 1, 8):
            lhs = components[a] @ m0_inv @ components[b]
            rhs = components[b] @ m0_inv @ components[a]
            scale = 1.0 + np.linalg.norm(components[a]) * np.linalg.norm(components[b])
            worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return worst


# ---------------------------------------------------------------------------
# reference constructions of the sampling hot path


def reference_draw_increment(rng: np.random.Generator, kind: str, n: int,
                             dt: float) -> np.ndarray:
    """Component-stack increment built triangle by triangle, with separate
    normal draws for the scalar diagonal, the scalar upper triangle and each
    antisymmetric upper triangle."""

    def symmetric(diag, upper):
        m = np.zeros((n, n))
        m[np.diag_indices(n)] = diag
        iu = np.triu_indices(n, 1)
        m[iu] = upper
        m.T[iu] = upper
        return m

    def antisymmetric(upper):
        m = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        m[iu] = -upper
        m.T[iu] = upper
        return m

    n_off = n * (n - 1) // 2
    comps = np.zeros((8, n, n))
    diag = rng.standard_normal(n) * math.sqrt(dt)
    upper = rng.standard_normal(n_off) * math.sqrt(dt / 2.0)
    comps[0] = symmetric(diag, upper)
    if kind == "a":
        for a in range(1, 8):
            z = rng.standard_normal(n_off) * math.sqrt(dt / 2.0)
            comps[a] = antisymmetric(z)
    else:
        z = rng.standard_normal(n_off) * math.sqrt(dt * MODEL_B_ANTISYM_RATE)
        comps[1:] = antisymmetric(z)
    return comps


def reference_real_form(components: np.ndarray) -> np.ndarray:
    """Real form assembled block by block: 64 signed block copies."""
    comps = np.asarray(components, dtype=np.float64)
    n = comps.shape[-1]
    out = np.zeros(comps.shape[:-3] + (8 * n, 8 * n))
    for pa, a in enumerate(CANONICAL_LABELS):
        for pb, b in enumerate(CANONICAL_LABELS):
            block = SIGN_TABLE[a ^ b, b] * comps[..., a ^ b, :, :]
            out[..., pa * n:(pa + 1) * n, pb * n:(pb + 1) * n] = block
    return out


def dense_spectrum(kind: str, comps: np.ndarray, cluster_tol: float) -> SpectralSample:
    """Clustered spectrum of one draw's block-by-block real form, eigensolved
    alone."""
    return cluster_eigenvalues(np.linalg.eigvalsh(reference_real_form(comps)), cluster_tol)


def reduced_eigenvalues(kind: str, comps: np.ndarray) -> np.ndarray:
    """The 8n real-form eigenvalues of one draw from its structure, eigensolved
    alone: the eigenvalues of M^0 + i sqrt(7) S for model b, the planar
    closed form (a + b)/2 -+ hypot((a - b)/2, |q|) for model a, each eight
    times."""
    if kind == "b":
        values = np.linalg.eigvalsh(comps[0] + 1j * (math.sqrt(7.0) * comps[1]))
    else:
        a, b = comps[0, 0, 0], comps[0, 1, 1]
        half = np.hypot(0.5 * a - 0.5 * b, np.hypot.reduce(comps[:, 0, 1]))
        values = np.array([0.5 * a + 0.5 * b - half, 0.5 * a + 0.5 * b + half])
    return np.repeat(values, 8)


def reduced_spectrum(kind: str, comps: np.ndarray, cluster_tol: float) -> SpectralSample:
    """Clustered :func:`reduced_eigenvalues` of one draw."""
    return cluster_eigenvalues(reduced_eigenvalues(kind, comps), cluster_tol)


def reference_cross_check(dense, reduced) -> dict:
    """The cross_check block of the checked rows, one row at a time, from
    their dense and reduced spectra."""
    mismatches = [
        max(abs(d - r) for d, r in zip(ds.distinct, rs.distinct))
        / (1.0 + max(abs(r) for r in rs.distinct))
        if ds.multiplicities == rs.multiplicities else math.inf
        for ds, rs in zip(dense, reduced)]
    return {"rows": len(mismatches), "failures": sum(not m <= 1e-10 for m in mismatches),
            "max_mismatch": max([0.0, *mismatches]),
            "max_spread": max([0.0, *(s.spread for s in dense)])}


def spectra_record(samples, n: int) -> SampledSpectra:
    """The arrays of per-draw spectra ``samples``, built one row at a time:
    each row's distinct values and multiplicities cut to ``n`` or padded with
    NaN values of multiplicity 0, and its spread."""
    rows = [(list(s.distinct[:n]) + [math.nan] * (n - len(s.distinct)),
             list(s.multiplicities[:n]) + [0] * (n - len(s.multiplicities)), s.spread)
            for s in samples]
    return SampledSpectra(np.array([r[0] for r in rows], dtype=float).reshape(-1, n),
                          np.array([r[1] for r in rows], dtype=int).reshape(-1, n),
                          np.array([r[2] for r in rows], dtype=float))


class ReferencePath(NamedTuple):
    """Per-step spectra of one trajectory, whether it crosses (some step has
    fewer than n clusters) and its smallest gap between adjacent clusters."""

    samples: list
    crossing_detected: bool
    min_gap: float


def reference_euler_path(cfg: SimulationConfig, index: int,
                         solve=reduced_spectrum) -> ReferencePath:
    """Path ``index`` one step at a time: each increment drawn triangle by
    triangle from ``sample_rng(cfg.seed, index)`` over ``t / steps``, added to
    the running stack, and its spectrum solved alone by ``solve``."""
    rng = sample_rng(cfg.seed, index)
    dt = cfg.t / cfg.steps
    comps = np.zeros((8, cfg.n, cfg.n))
    out = []
    crossing = False
    min_gap = float("inf")
    for _ in range(cfg.steps):
        comps = comps + reference_draw_increment(rng, cfg.kind, cfg.n, dt)
        sample = solve(cfg.kind, comps, cfg.cluster_tol)
        out.append(sample)
        if len(sample.distinct) < cfg.n:
            crossing = True
        if len(sample.distinct) > 1:
            min_gap = min(min_gap, float(np.min(np.diff(sample.distinct))))
    return ReferencePath(out, crossing, min_gap)


def reference_gap_statistics(spectra: SampledSpectra) -> GapStatistics:
    """Radial moments of the rows with n clusters (no multiplicity 0) without
    any scaling, T summed one pair of distinct values at a time, and the
    standard error as the gradient of the exponent in (E T, E T^2)
    contracted with the ``np.cov`` matrix of (T, T^2)."""
    n = spectra.distinct.shape[1]
    x = np.array([row for row, mults in zip(spectra.distinct, spectra.multiplicities)
                  if 0 not in mults])
    t = np.zeros(len(x))
    for i, j in itertools.combinations(range(n), 2):
        t += (x[:, j] - x[:, i]) ** 2
    m2 = float(np.mean(t))
    m4 = float(np.mean(t ** 2))
    ratio = m4 / (m2 * m2)
    if ratio <= 1.0:
        return GapStatistics(len(t), m2, m4, ratio, math.inf, math.inf)
    pairs = n * (n - 1) / 2
    beta = (2.0 / (ratio - 1.0) - (n - 1)) / pairs
    # d beta / d R times d R / d (m2, m4)
    grad = -2.0 / (ratio - 1.0) ** 2 / pairs * np.array([-2.0 * m4 / m2 ** 3, 1.0 / m2 ** 2])
    stderr = math.sqrt(grad @ np.cov(np.vstack([t, t ** 2])) @ grad / len(t))
    return GapStatistics(len(t), m2, m4, ratio, beta, stderr)


def beta_hermite_spectra(beta: float, n: int, size: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Ascending eigenvalues, shape (size, n), of the Dumitriu-Edelman
    tridiagonal beta-Hermite model (J. Math. Phys. 43, 5830, 2002): N(0, 2)
    diagonal and chi_{beta (n-1)}, ..., chi_beta off the diagonal, times
    1/sqrt(2); its eigenvalue density is prod |x_i - x_j|^beta exp(-sum x^2/2)."""
    h = np.zeros((size, n, n))
    k = np.arange(n)
    h[:, k, k] = rng.normal(0.0, math.sqrt(2.0), (size, n))
    off = np.sqrt(rng.chisquare(beta * np.arange(n - 1, 0, -1), (size, n - 1)))
    h[:, k[1:], k[:-1]] = off
    h[:, k[:-1], k[1:]] = off
    return np.linalg.eigvalsh(h / math.sqrt(2.0))


def reference_spectrum_csv_row(ids, kind: str, n: int, t: float, sample) -> str:
    """One spectrum CSV row, without its newline, joined cell by cell: the
    integer ``ids``, then the draw; draws with an unexpected cluster count
    are cut to ``n`` or NaN-padded."""
    xs = list(sample.distinct)
    ms = list(sample.multiplicities)
    xs = xs[:n] + [float("nan")] * max(0, n - len(xs))
    ms = ms[:n] + [0] * max(0, n - len(ms))
    cells = [str(i) for i in ids] + [kind, str(n), fmt17(t)]
    cells += [fmt17(x) for x in xs]
    cells += [str(int(m)) for m in ms]
    cells.append(fmt17(sample.spread))
    return ",".join(cells)


def einsum_multiplier(table: np.ndarray):
    """The algebra product of ``table`` as the dense contraction with its
    float structure tensor T[a, b, a^b] = sign(a, b)."""
    tensor = np.zeros((8, 8, 8))
    for a in range(8):
        for b in range(8):
            tensor[a, b, a ^ b] = table[a, b]

    def product(x, y):
        return np.einsum("...a,...b,abk->...k", x, y, tensor)

    return product


def term_multiplier(table: np.ndarray):
    """The algebra product of ``table`` one output coordinate and one term at
    a time: (xy)_k = 0 + sum over a = 0..7 of sign(a, a^k) (x_a y_{a^k}), in
    float64.  Unlike the dense contraction it multiplies no coordinate by a
    zero structure entry, so an infinite coordinate gives infinities, not NaN."""

    def product(x, y):
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for k in range(8):
            for a in range(8):
                out[..., k] += table[a, a ^ k] * (x[..., a] * y[..., a ^ k])
        return out

    return product


def basis_mul(sa: int, a: int, sb: int, b: int, table: np.ndarray) -> tuple[int, int]:
    """Exact product of signed basis elements as (sign, label) pairs:
    (sa w_a)(sb w_b) = sa sb sign(a, b) w_{a^b}."""
    return sa * sb * int(table[a, b]), a ^ b


def reference_nonassociativity_witness(table: np.ndarray):
    """First basis triple, in itertools order, whose two bracketings differ."""
    for a, b, c in itertools.product(range(8), repeat=3):
        lhs = basis_mul(*basis_mul(1, a, 1, b, table), 1, c, table)
        rhs = basis_mul(1, a, *basis_mul(1, b, 1, c, table), table)
        if lhs != rhs:
            return a, b, c
    return None


def _cycle_sign(t: np.ndarray, a: int, b: int, c: int, d: int) -> int:
    return int(t[b ^ c, c] * t[c ^ d, d] * t[d ^ a, a] * t[a ^ b, b])


def reference_cyclic_sign_sum(table: np.ndarray) -> tuple[int, int]:
    """The 4-cycle sign sum and tuple count, one quadruple at a time."""
    total = 0
    count = 0
    for a, b, c, d in itertools.product(range(8), repeat=4):
        if a != b and c != d and b != c and a != d:
            total += _cycle_sign(table, a, b, c, d)
            count += 1
    return total, count


def reference_table_structure(table: np.ndarray) -> IdentityReport:
    """The table-structure suite, one cell and one check at a time."""
    t = table
    report = IdentityReport("table-structure")
    for b in range(8):
        report.check(t[0, b] == 1)
        report.check(t[b, 0] == 1)
    report.check(t[0, 0] == 1)
    for a in range(1, 8):
        report.check(t[a, a] == -1)
    for a, b in itertools.product(range(1, 8), repeat=2):
        if a != b:
            report.check(t[a, b] == -t[b, a])
    for (row, a), (col, b) in itertools.product(enumerate(CANONICAL_LABELS), repeat=2):
        report.check(int(t[a, b]) == _TABLE_ROWS[row][col])
    return report


def reference_sign_identities(table: np.ndarray) -> IdentityReport:
    """The sign-identity suite, one label tuple and one check at a time."""
    t = table
    report = IdentityReport("sign-identities")
    for a, b in itertools.product(range(8), repeat=2):
        report.check(t[a ^ b, b] == t[a, b] * t[b, b])
        report.check(t[a ^ b, a] * t[a ^ b, b] == t[a ^ b, a ^ b])
    for a, b, c in itertools.product(range(8), repeat=3):
        if a ^ b:
            report.check(t[a ^ c, a] * t[b ^ c, b] == -t[a ^ c, b] * t[b ^ c, a])
    for a, b, c, d in itertools.product(range(8), repeat=4):
        if a ^ b ^ c ^ d == 0:
            report.check(_cycle_sign(t, a, b, c, d) == t[b ^ d, b ^ d])
    report.check(reference_cyclic_sign_sum(t)[0] == 392)
    return report


def reference_moufang(trials: int, seed: int, table: np.ndarray) -> IdentityReport:
    """The Moufang suite with the basis laws in sign-label arithmetic, one
    triple or pair at a time, and the random laws through the dense contraction."""

    def m(p, q):
        return basis_mul(p[0], p[1], q[0], q[1], table)

    report = IdentityReport("moufang-alternativity", seed=seed)
    for a, b, c in itertools.product(range(8), repeat=3):
        x, y, z = (1, a), (1, b), (1, c)
        report.check(m(z, m(x, m(z, y))) == m(m(m(z, x), z), y))
        report.check(m(m(m(x, z), y), z) == m(x, m(m(z, y), z)))
        report.check(m(m(z, x), m(y, z)) == m(m(z, m(x, y)), z))
        report.check(m(m(z, x), m(y, z)) == m(z, m(m(x, y), z)))
    for a, b in itertools.product(range(8), repeat=2):
        x, y = (1, a), (1, b)
        report.check(m(m(x, x), y) == m(x, m(x, y)))
        report.check(m(m(y, x), x) == m(y, m(x, x)))

    f = einsum_multiplier(table)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, 8))
    y = rng.standard_normal((trials, 8))
    z = rng.standard_normal((trials, 8))
    pairs = [
        (f(z, f(x, f(z, y))), f(f(f(z, x), z), y)),
        (f(f(f(x, z), y), z), f(x, f(f(z, y), z))),
        (f(f(z, x), f(y, z)), f(f(z, f(x, y)), z)),
        (f(f(z, x), f(y, z)), f(z, f(f(x, y), z))),
        (f(f(x, x), y), f(x, f(x, y))),
        (f(f(y, x), x), f(y, f(x, x))),
    ]
    for lhs, rhs in pairs:
        report.record(np.max(np.abs(lhs - rhs), axis=-1), FLOAT_TOL)
    return report


def reference_imaginary_sum_square(table: np.ndarray) -> IdentityReport:
    """(sum of the seven imaginary units)^2 == -7, summed over the 49 signed
    basis products."""
    square = [0] * 8
    for a, b in itertools.product(range(1, 8), repeat=2):
        s, k = basis_mul(1, a, 1, b, table)
        square[k] += s
    report = IdentityReport("imaginary-sum-square")
    report.check(square == [-7, 0, 0, 0, 0, 0, 0, 0])
    return report


def reference_generator_weights(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Generator sign weights accumulated one block quadruple at a time."""
    model = DiffusionModel(kind, 2)
    w_elem = np.zeros((8, 8))
    w_tr = np.zeros((8, 8))
    for a, b, c, d in itertools.product(range(8), repeat=4):
        c1, c2 = model.gamma_coefficients(a ^ b, c ^ d)
        if c1 == 0.0 and c2 == 0.0:
            continue
        theta = float(_cycle_sign(SIGN_TABLE, a, b, c, d))
        w_elem[b ^ c, d ^ a] += theta * c1
        w_tr[b ^ c, d ^ a] += theta * c2
    return w_elem, w_tr


def _reference_symm_residual(m: OctonionicMatrix) -> float:
    comps = m.components
    try:
        m0_inv = np.linalg.inv(comps[0])
    except np.linalg.LinAlgError as exc:
        raise SingularBase("scalar component is singular") from exc
    a, b = np.triu_indices(8, 1)
    left = comps @ m0_inv
    diff = np.abs(left[a] @ comps[b] - left[b] @ comps[a]).max(axis=(1, 2))
    norms = np.linalg.norm(comps, axis=(1, 2))
    return float(np.max(diff / (1.0 + norms[a] * norms[b])))


def reference_oct_inverse(m: OctonionicMatrix) -> OctonionicMatrix:
    """Structured inverse with M^0 factored three times (condition number,
    inverse, and the inverse inside the compatibility residual) and each
    component product formed on its own."""
    comps = m.components
    if np.linalg.cond(comps[0]) > COND_LIMIT:
        raise SingularBase("scalar component is singular or near-singular")
    m0_inv = np.linalg.inv(comps[0])

    worst = _reference_symm_residual(m)
    if worst > SYMM_TOL:
        raise NotSymmCompatible(f"compatibility residual {worst:.3e} exceeds {SYMM_TOL:.1e}")

    core = np.zeros_like(comps[0])
    for c in range(8):
        core += comps[c] @ m0_inv @ comps[c]
    if np.linalg.cond(core) > COND_LIMIT:
        raise SingularCore("core sum is singular or near-singular")
    n0 = np.linalg.inv(core)

    out = np.empty_like(comps)
    out[0] = n0
    for a in range(1, 8):
        out[a] = -n0 @ comps[a] @ m0_inv
    return OctonionicMatrix(out)


def reference_oct_inverse_masked(comps: np.ndarray) -> tuple[np.ndarray, dict]:
    """:func:`reference_oct_inverse` of each entry of a (k, 8, n, n) stack, with
    the error of each failing entry by index in place of its inverse (zeros)."""
    out = np.zeros_like(comps)
    errors = {}
    for i, entry in enumerate(comps):
        try:
            out[i] = reference_oct_inverse(OctonionicMatrix(entry)).components
        except Error as exc:
            errors[i] = exc
    return out, errors


def reference_fd_logdet_gradient(matrix: np.ndarray) -> np.ndarray:
    """Central differences of log|det|, one perturbed entry at a time."""
    h = FD_STEP
    n = matrix.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            up = matrix.copy(); up[i, j] += h
            dn = matrix.copy(); dn[i, j] -= h
            out[i, j] = (float(np.linalg.slogdet(up)[1])
                         - float(np.linalg.slogdet(dn)[1])) / (2 * h)
    return out


def reference_fd_logdet_hessian(matrix: np.ndarray) -> np.ndarray:
    """Central differences of the analytic gradient, one entry at a time."""
    h = FD_STEP
    n = matrix.shape[0]
    out = np.empty((n, n, n, n))
    for k in range(n):
        for l in range(n):
            up = matrix.copy(); up[k, l] += h
            dn = matrix.copy(); dn[k, l] -= h
            out[:, :, k, l] = (logdet_gradient(up) - logdet_gradient(dn)) / (2 * h)
    return out


def _rel(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def reference_dim2_trace_residuals(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """The dimension-2 resolvent-component residuals one component at a
    time: the pairing identity for C = 1..7, the square identity for
    C = 1..7, then the scalar identity."""
    a0 = ANTISYM_UNIT_2
    pairing, square = [], []
    for c in range(1, 8):
        pairing.append(_rel(float(np.trace(ux[c] @ a0)) * float(np.trace(uy[c] @ a0)),
                            -2.0 * float(np.trace(ux[c] @ uy[c]))))
        square.append(_rel(float(np.trace(ux[c] @ a0 @ ux[c] @ a0)),
                           -float(np.trace(ux[c] @ ux[c]))))
    scalar = _rel(float(np.trace(ux[0] @ a0 @ ux[0] @ a0)),
                  float(np.trace(ux[0] @ ux[0])) - float(np.trace(ux[0])) ** 2)
    return np.array(pairing + square + [scalar])


def reference_trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b) from the formed product."""
    return float(np.trace(a @ b))


def reference_resolvent(m: OctonionicMatrix, x: float, eigs=None) -> OctonionicMatrix:
    """Resolvent at one shift: the guard against the spectrum ``eigs`` (by
    default the dense one), then the three-factorisation structured inverse
    of ``m - x Id``."""
    eigs = m.eigenvalues if eigs is None else eigs
    if np.min(np.abs(eigs - x)) <= shift_guard(eigs):
        raise NearSingularShift(f"shift {x} is within the guard distance of the spectrum")
    comps = m.components.copy()
    comps[0] = comps[0] - x * np.eye(m.n)
    return reference_oct_inverse(OctonionicMatrix(comps))


def reference_trace_identity_residuals(m: OctonionicMatrix, eigs: np.ndarray, x: float,
                                       y: float) -> dict:
    """The trace identities of one matrix with spectrum ``eigs``, with one
    resolvent and one dense inverse per shift and every trace of its own."""
    ucx = reference_resolvent(m, x, eigs).components
    ucy = reference_resolvent(m, y, eigs).components
    rf = reference_real_form(m.components)
    eye = np.eye(rf.shape[0])
    dx = np.linalg.inv(rf - x * eye)
    dy = np.linalg.inv(rf - y * eye)
    trace_x = float(np.trace(dx))
    signed = [float(SIGN_TABLE[c, c]) * float(np.trace(ucx[c] @ ucy[c])) for c in range(8)]
    pairing = max(_rel(float(np.sum(ucx[c] * ucy[c])), signed[c]) for c in range(8))
    cross_trace = float(np.sum(dx * dy.T))
    px = CharPolyEval.from_eigenvalues(eigs, x)
    py = CharPolyEval.from_eigenvalues(eigs, y)
    return {
        "full-trace": _rel(trace_x, 8.0 * float(np.trace(ucx[0]))),
        "transpose-pairing": pairing,
        "product-trace": _rel(cross_trace, 8.0 * sum(signed)),
        "dlog": _rel(trace_x, -px.dlog),
        "sq": _rel(float(np.sum(dx * dx.T)), px.curvature),
        "cross": _rel(cross_trace, (px.dlog - py.dlog) / (y - x)),
    }


def reference_check_trace_identities(kind: str, n: int, trials: int, seed: int) -> IdentityReport:
    """The trace suite one trial at a time, each draw's spectrum from its own
    reduction."""
    rng = np.random.default_rng(seed)
    cfg = SimulationConfig(kind=kind, n=n, t=1.0, samples=1, seed=seed)
    report = IdentityReport(f"trace-identities-model-{kind}-n{n}", seed=seed)
    for i in range(trials):
        m = sample_matrix(cfg, i)
        eigs = reduced_eigenvalues(kind, m.components)
        x, y = separated_shifts(eigs, rng)
        for r in reference_trace_identity_residuals(m, eigs, float(x), float(y)).values():
            report.record(r, TRACE_TOL)
    return report


def reference_check_dim2_identities(trials: int, seed: int) -> IdentityReport:
    """The dimension-2 suite one trial at a time: draw i is model-a sample i
    of the counter stream, its spectrum from its own reduction; its shifts,
    then its scalar 2x2 matrix, come from ``default_rng(seed)``."""
    cfg = SimulationConfig(kind="a", n=2, seed=seed)
    rng = np.random.default_rng(seed)
    report = IdentityReport("dim2-trace-identities", seed=seed)
    for i in range(trials):
        m = sample_matrix(cfg, i)
        eigs = reduced_eigenvalues("a", m.components)
        x, y = off_spectrum_points(eigs, rng, 2)
        report.record(reference_dim2_trace_residuals(
            reference_resolvent(m, float(x), eigs).components,
            reference_resolvent(m, float(y), eigs).components), DIM2_TOL)
        mm = rng.standard_normal((2, 2))
        report.record(_rel(float(np.trace(mm @ mm)) - float(np.trace(mm)) ** 2,
                           -2.0 * float(np.linalg.det(mm))), DIM2_TOL)
    return report


def reference_gamma_log_charpoly(m: OctonionicMatrix, x: float, y: float,
                                 model: DiffusionModel) -> float:
    """The Gamma quadruple sum one label pair at a time: each nonzero pair
    (f, g) adds 64 sign(f, f) sign(g, g) times c1 <U^f(x), U^g(y)> and c2
    tr[U^f(x) U^g(y)]."""
    ucx = reference_resolvent(m, x).components
    ucy = reference_resolvent(m, y).components
    total = 0.0
    for f in range(8):
        for g in range(8):
            c1, c2 = model.gamma_coefficients(f, g)
            if c1 == 0.0 and c2 == 0.0:
                continue
            s = 64.0 * float(SIGN_TABLE[f, f] * SIGN_TABLE[g, g])
            total += s * c1 * float(np.sum(ucx[f] * ucy[g]))
            total += s * c2 * float(np.trace(ucx[f] @ ucy[g]))
    return total


def reference_generator_log_charpoly(m: OctonionicMatrix, x: float,
                                     model: DiffusionModel) -> float:
    """The generator quadruple sum one nonzero elementwise weight at a time,
    plus the trace weights contracted with the component traces."""
    uc = reference_resolvent(m, x).components
    w_elem, w_tr = reference_generator_weights(model.kind)
    traces = np.array([np.trace(uc[f]) for f in range(8)])
    total = 0.0
    for f, g in zip(*np.nonzero(w_elem)):
        total += w_elem[f, g] * float(np.sum(uc[f] * uc[g]))
    return -(total + float(traces @ w_tr @ traces))


def reference_check_closed_forms(model: DiffusionModel, trials: int, seed: int) -> IdentityReport:
    """The closed-form suite one trial at a time: each draw's spectrum from
    its own reduction, its shifts drawn, and its resolvents taken by the
    calculus through the per-matrix memo."""
    cfg = SimulationConfig(model.kind, model.n, seed=seed)
    rng = np.random.default_rng(seed)
    report = IdentityReport(f"closed-forms-model-{model.kind}-n{model.n}", seed=seed)
    for i in range(trials):
        m = sample_matrix(cfg, i)
        eigs = reduced_eigenvalues(model.kind, m.components)
        x, y = separated_shifts(eigs, rng)
        px = CharPolyEval.from_eigenvalues(eigs, x)
        py = CharPolyEval.from_eigenvalues(eigs, y)
        gam = gamma_log_charpoly(m, x, y, model)
        closed = gamma_closed_form(px, py)
        gam_sym = gamma_log_charpoly(m, y, x, model)
        gen = generator_log_charpoly(m, x, model)
        closed_gen = generator_closed_form(px, model)
        if model.kind == "a":
            scale = 3.0 * abs(px.curvature) + 0.5 * px.dlog ** 2
        else:
            scale = abs(closed_gen)
        report.record([abs(gam - closed) / abs(closed),
                       abs(gam - gam_sym) / (1.0 + abs(gam)),
                       abs(gen - closed_gen) / max(abs(closed_gen), 1e-3 * scale)],
                      CLOSED_FORM_TOL)
    return report


def reference_check_inverse_roundtrip(kind: str, n: int, trials: int, seed: int,
                                      inverse=reference_oct_inverse) -> IdentityReport:
    """The round trip one draw at a time: draw index after index, skip a
    draw whose reduced spectrum's condition number is above
    ``verify.ROUNDTRIP_COND_LIMIT`` (read at call time) or one whose
    ``inverse`` raises, and give up at index 20 trials + 100."""
    cfg = SimulationConfig(kind, n, seed=seed)
    report = IdentityReport(f"inverse-roundtrip-model-{kind}-n{n}", seed=seed)
    index = 0
    while report.cases < trials:
        if index >= 20 * trials + 100:
            raise Error("too many ill-conditioned draws; check the sampler")
        m = sample_matrix(cfg, index)
        index += 1
        moduli = np.abs(reduced_eigenvalues(kind, m.components))
        if moduli.max() > verify.ROUNDTRIP_COND_LIMIT * moduli.min():
            continue
        try:
            inv = inverse(m)
        except Error:
            continue
        product = reference_real_form(inv.components) @ reference_real_form(m.components)
        report.record(float(np.max(np.abs(product - np.eye(8 * n)))), ROUNDTRIP_TOL)
    return report


def reference_check_logdet_derivatives(count: int, seed: int) -> IdentityReport:
    """The log-det suite one matrix at a time, its finite differences one
    entry at a time."""
    rng = np.random.default_rng(seed)
    report = IdentityReport("logdet-derivatives", seed=seed)
    for _ in range(count):
        matrix = rng.standard_normal((5, 5))
        tries = 0
        while np.linalg.cond(matrix) > 200.0:
            matrix = rng.standard_normal((5, 5))
            tries += 1
            if tries > 100:
                raise Error("could not draw a well-conditioned matrix")
        g_an = logdet_gradient(matrix)
        g_fd = reference_fd_logdet_gradient(matrix)
        report.record(float(np.linalg.norm(g_fd - g_an) / np.linalg.norm(g_an)), 1e-5)
        inv = np.linalg.inv(matrix)
        h_an = -np.einsum("jk,li->ijkl", inv, inv)
        h_fd = reference_fd_logdet_hessian(matrix)
        report.record(float(np.linalg.norm((h_fd - h_an).ravel())
                            / np.linalg.norm(h_an.ravel())), 1e-5)
    return report
