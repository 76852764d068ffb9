"""Matrices with octonion entries: component form, real form, inversion.

An n x n matrix with octonion entries is stored as 8 real n x n component
matrices ``M^A``, one per basis label.  Its real form is the 8n x 8n block
matrix with block (A, B) equal to ``sign(A^B, B) * M^{A^B}``, blocks laid out
in the canonical label order.  The real form of a symmetric matrix (scalar
component symmetric, the others antisymmetric) is a symmetric real matrix,
so its spectrum is real.

Matrix products of real forms do not mirror products of the underlying
octonionic matrices (the algebra is nonassociative), but inverses are
special: under the compatibility condition

    M^A (M^0)^-1 M^B == M^B (M^0)^-1 M^A   for all A, B          (*)

the inverse of the real form is again the real form of an octonionic matrix,
with components given in closed form by :func:`oct_inverse`.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import CANONICAL_LABELS, CONJUGATION_SIGNS, SIGN_TABLE
from .errors import (
    Error,
    InvalidArgument,
    NearSingularShift,
    NotSymmCompatible,
    NotSymmetric,
    SingularBase,
    SingularCore,
)
from .reporting import IdentityReport

#: The 2x2 antisymmetric unit; every 2x2 antisymmetric matrix is a multiple.
ANTISYM_UNIT_2 = np.array([[0.0, -1.0], [1.0, 0.0]])
ANTISYM_UNIT_2.setflags(write=False)

#: Tolerance of the compatibility condition (*) in :func:`oct_inverse`.
SYMM_TOL = 1e-10
#: 1-norm condition number above which :func:`oct_inverse` calls a factor singular.
COND_LIMIT = 1e12
#: Label pairs A < B of the compatibility condition.
_LABEL_PAIRS = np.triu_indices(8, 1)
#: Step of the central differences of log det.
FD_STEP = 1e-5
#: Tolerance of the dimension-2 trace identities.
DIM2_TOL = 1e-10
#: Bytes of 8n x 8n forms, or of as large products, one stacked batch holds.
FORM_BATCH_BYTES = 2 ** 20


def entries_per_batch(entry_bytes: int) -> int:
    """Entries of ``entry_bytes`` bytes one batch of :data:`FORM_BATCH_BYTES`
    holds, at least one."""
    return max(1, FORM_BATCH_BYTES // entry_bytes)


def forms_per_batch(n: int) -> int:
    """Entries of dimension ``n`` one batch of :data:`FORM_BATCH_BYTES` holds."""
    return entries_per_batch(8 * (8 * n) ** 2)


@dataclass(frozen=True)
class OctonionicMatrix:
    """Immutable component form of a matrix with octonion entries.

    Parameters
    ----------
    components : ndarray, shape (8, n, n)
        Real component matrices indexed by basis bitmask label.

    Raises
    ------
    InvalidArgument
        If the components are not finite or not of shape (8, n, n), n >= 1.
    """

    components: np.ndarray

    def __post_init__(self):
        comps = np.array(self.components, dtype=np.float64)
        if comps.ndim != 3 or comps.shape[0] != 8 or not 0 < comps.shape[1] == comps.shape[2]:
            raise InvalidArgument(f"components need shape (8, n, n), n >= 1, got {comps.shape}")
        if not np.isfinite(comps).all():
            raise InvalidArgument("components must be finite")
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components.shape[1]

    @classmethod
    def zero(cls, n: int) -> "OctonionicMatrix":
        return cls(np.zeros((8, n, n)))

    @classmethod
    def from_scalar_part(cls, m0) -> "OctonionicMatrix":
        """Matrix whose only nonzero component is the identity-label one."""
        m0 = np.asarray(m0, dtype=np.float64)
        comps = np.zeros((8,) + m0.shape)
        comps[0] = m0
        return cls(comps)

    def real_form(self) -> np.ndarray:
        return real_form(self.components)

    def is_symmetric(self) -> bool:
        """True iff the scalar component is symmetric and the rest antisymmetric."""
        comps = self.components
        return np.array_equal(comps, CONJUGATION_SIGNS[:, None, None] * comps.transpose(0, 2, 1))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of the real form (read-only), solved once
        per matrix.

        Raises
        ------
        NotSymmetric
            If the real form is not symmetric; a symmetric eigensolver
            would silently read one triangle of it.
        """
        if not self.is_symmetric():
            raise NotSymmetric("the scalar component must be symmetric and the "
                               "others antisymmetric")
        eigs = np.linalg.eigvalsh(self.real_form())
        eigs.setflags(write=False)
        return eigs

    #: :func:`resolvent` results by shift; a failed call stores nothing.
    _resolvent_memo = cached_property(lambda self: {})


@lru_cache(maxsize=16)
def _real_form_source(n: int) -> np.ndarray:
    """Where each entry of the 8n x 8n real form comes from, built once per
    ``n``: a flat index into the (8, n, n) stack followed by its negation,
    so a block of sign -1 reads from the second half.

    Left writable: ``np.take`` converts a read-only index array on every
    call, which made it five times slower at n = 48.
    """
    block = np.arange(n * n).reshape(n, n)
    source = np.empty((8 * n, 8 * n), dtype=np.intp)
    for pa, a in enumerate(CANONICAL_LABELS):
        for pb, b in enumerate(CANONICAL_LABELS):
            negated = SIGN_TABLE[a ^ b, b] < 0
            source[pa * n:(pa + 1) * n, pb * n:(pb + 1) * n] = (
                (8 * negated + (a ^ b)) * n * n + block)
    return source


def real_form(components: np.ndarray) -> np.ndarray:
    """Real 8n x 8n form of the component stack (blocks in canonical order).

    Accepts one stack of shape (8, n, n) or a batch (..., 8, n, n).  Block
    (A, B) is ``sign(A^B, B) * M^{A^B}``, gathered by one ``np.take`` from
    the flattened stack followed by its negation (a quarter of the output's
    size).  Negation is exact, so this equals the signed block products bit
    for bit, signed zeros included.

    Raises
    ------
    InvalidArgument
        If the trailing shape is not (8, n, n).
    """
    comps = np.asarray(components, dtype=np.float64)
    n = comps.shape[-1]
    if comps.shape[-3:] != (8, n, n):
        raise InvalidArgument(f"components must end in shape (8, n, n), got {comps.shape}")
    flat = comps.reshape(comps.shape[:-3] + (8 * n * n,))
    return np.take(np.concatenate((flat, -flat), axis=-1), _real_form_source(n), axis=-1)


def _compatibility(comps: np.ndarray, m0_inv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst residual of (*) per (k, 8, n, n) entry, and the products it is read from."""
    prod = (comps @ m0_inv[:, None])[:, :, None] @ comps[:, None]
    a, b = _LABEL_PAIRS
    diff = np.abs(prod[:, a, b] - prod[:, b, a]).max(axis=(-2, -1))
    norms = np.linalg.norm(comps, axis=(-2, -1))
    return np.max(diff / (1.0 + norms[:, a] * norms[:, b]), axis=-1), prod


def symm_compatibility_residual(m: OctonionicMatrix) -> float:
    """Worst scaled residual of the compatibility condition (*).

    Each pair (A, B) is scaled by ``1 + |M^A| |M^B|`` so the returned value
    is comparable against a fixed tolerance.
    """
    try:
        m0_inv = np.linalg.inv(m.components[0])
    except np.linalg.LinAlgError as exc:
        raise SingularBase("scalar component is singular") from exc
    return float(_compatibility(m.components[None], m0_inv[None])[0][0])


def _guarded_inv(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LU inverses of the (k, n, n) stack ``a`` (NaN for a singular entry), and
    which entries are singular or have |a|_1 |a^-1|_1 above :data:`COND_LIMIT`."""
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        a_inv = np.full_like(a, np.nan)
        for entry, out in zip(a, a_inv):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[...] = np.linalg.inv(entry)
    cond = np.linalg.norm(a, 1, axis=(1, 2)) * np.linalg.norm(a_inv, 1, axis=(1, 2))
    return a_inv, ~(cond <= COND_LIMIT)


def _oct_inverse_masked(comps: np.ndarray) -> tuple[np.ndarray, dict[int, Error]]:
    """:func:`oct_inverse` of each (k, 8, n, n) entry, over batches of :func:`forms_per_batch`,
    without raising: the inverses (meaningless for a failing entry), and the error each
    failing entry would raise, by index: singular base, (*), singular core, in that order."""
    out = np.empty_like(comps)
    errors: dict[int, Error] = {}
    step = forms_per_batch(comps.shape[-1])
    for lo in range(0, len(comps), step):
        chunk = comps[lo:lo + step]
        m0_inv, base_bad = _guarded_inv(chunk[:, 0])
        worst, prod = _compatibility(chunk, m0_inv)
        n0, core_bad = _guarded_inv(sum(prod[:, c, c] for c in range(8)))
        for i in np.flatnonzero(base_bad | (worst > SYMM_TOL) | core_bad).tolist():
            if base_bad[i]:
                errors[lo + i] = SingularBase("scalar component is singular or near-singular")
            elif worst[i] > SYMM_TOL:
                errors[lo + i] = NotSymmCompatible(f"compatibility residual {worst[i]:.3e} "
                                                   f"exceeds {SYMM_TOL:.1e}")
            else:
                errors[lo + i] = SingularCore("core sum is singular or near-singular")
        out[lo:lo + step] = np.concatenate((n0[:, None], -n0[:, None] @ chunk[:, 1:]
                                            @ m0_inv[:, None]), axis=1)
    return out, errors


def _oct_inverse_stack(comps: np.ndarray) -> np.ndarray:
    """:func:`_oct_inverse_masked` that raises what the first failing entry would."""
    out, errors = _oct_inverse_masked(comps)
    if errors:
        raise errors[min(errors)]
    return out


def oct_inverse(m: OctonionicMatrix) -> OctonionicMatrix:
    """Structured inverse of an octonionic matrix.

    Requires an invertible scalar component, the compatibility condition (*)
    within :data:`SYMM_TOL`, and an invertible core sum.  The result ``N``
    satisfies ``real_form(N) @ real_form(M) == Id`` and has components

        N^0 = (sum_C M^C (M^0)^-1 M^C)^-1,
        N^A = -N^0 M^A (M^0)^-1              for A != 0.

    The one-entry case of :func:`_oct_inverse_stack`: M^0 is inverted once,
    one product serves both (*) and the core sum, one more gives the N^A.

    Raises
    ------
    SingularBase, NotSymmCompatible, SingularCore
    """
    return OctonionicMatrix(_oct_inverse_stack(m.components[None])[0])


def spectral_radius(eigenvalues: np.ndarray) -> float:
    return float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0


def shift_guard(eigenvalues: np.ndarray):
    """Minimum allowed distance from a resolvent shift to the spectrum of
    length 8n, (1 + spectral radius) / 16n; one per row of a stack of spectra."""
    return 0.5 * (1.0 + np.max(np.abs(eigenvalues), axis=-1)) / eigenvalues.shape[-1]


def off_spectrum_points(eigenvalues: np.ndarray, rng: np.random.Generator,
                        count: int = 1) -> np.ndarray:
    """Draw shifts uniformly from the two unit bands just outside the spectrum.

    Points land in [-R-2, -R-1] or [R+1, R+2] with R the spectral radius, so
    every resolvent evaluated there is well conditioned.
    """
    rad = spectral_radius(eigenvalues)
    pts = rad + 1.0 + rng.uniform(0.0, 1.0, size=count)
    signs = np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0)
    return signs * pts


def separated_shifts(eigenvalues: np.ndarray, rng: np.random.Generator):
    """Two off-spectrum shifts at least 0.5 apart."""
    x, y = off_spectrum_points(eigenvalues, rng, 2)
    while abs(x - y) < 0.5:
        x, y = off_spectrum_points(eigenvalues, rng, 2)
    return x, y


def _resolvents(comps: np.ndarray, eigs: np.ndarray, shifts) -> np.ndarray:
    """Structured inverses of ``comps[i] - shifts[i, j] Id`` for a (k, 8, n, n) stack
    with (k, 8n) spectra ``eigs``, shape (k, s, 8, n, n); first raises
    InvalidArgument for a non-finite shift, NearSingularShift at the first (i, j)
    within :func:`shift_guard` of the spectrum."""
    shifts = np.asarray(shifts, dtype=np.float64)
    if not np.isfinite(shifts).all():
        raise InvalidArgument("resolvent shifts must be finite")
    near = (np.min(np.abs(eigs[:, None] - shifts[..., None]), axis=-1)
            <= shift_guard(eigs)[:, None])
    if near.any():
        raise NearSingularShift(f"shift {shifts[near][0]} is within the guard distance "
                                "of the spectrum")
    comps = np.repeat(comps[:, None], shifts.shape[1], axis=1)
    comps[:, :, 0] -= shifts[..., None, None] * np.eye(comps.shape[-1])
    return _oct_inverse_stack(comps.reshape((-1,) + comps.shape[2:])).reshape(comps.shape)


def _memoise_resolvents(mats, eigs: np.ndarray, shifts) -> None:
    """Store in each matrix's :func:`resolvent` memo its row of the (k, s) ``shifts``,
    from one :func:`_resolvents` call on the k matrices ``mats`` with (k, 8n) spectra
    ``eigs``; raises what that call raises, storing nothing."""
    inverses = _resolvents(np.stack([m.components for m in mats]), eigs, shifts)
    for m, row, stack in zip(mats, np.asarray(shifts, dtype=np.float64).tolist(), inverses):
        m._resolvent_memo.update(zip(row, map(OctonionicMatrix, stack)))


def resolvent(m: OctonionicMatrix, x: float) -> OctonionicMatrix:
    """Resolvent of the real form at a finite shift ``x`` beyond :func:`shift_guard`:
    the structured inverse of ``m - x Id`` (:func:`oct_inverse`), the one-entry
    case of the stacked resolvent, memoised per matrix and shift.

    Raises
    ------
    InvalidArgument, NearSingularShift, NotSymmetric
    SingularBase, NotSymmCompatible, SingularCore
    """
    if x not in m._resolvent_memo:
        _memoise_resolvents([m], m.eigenvalues[None], [[x]])
    return m._resolvent_memo[x]


@dataclass(frozen=True)
class CharPolyEval:
    """Logarithmic shift-derivatives of p(x) = det(real form - x * Id).

    ``dlog`` is p'/p and ``curvature`` is (p'/p)^2 - p''/p, the trace of the
    squared resolvent.  Both are power sums of 1/(lam_k - x), so p itself,
    a product of 8n factors that overflows at n = 48, is never formed.
    """

    x: float
    dlog: float
    curvature: float

    @classmethod
    def from_eigenvalues(cls, eigenvalues: np.ndarray, x: float) -> "CharPolyEval":
        """Evaluate from the spectrum: dlog = -sum 1/(lam_k - x) and
        curvature = sum 1/(lam_k - x)^2.

        Raises
        ------
        InvalidArgument, NearSingularShift
            If ``x`` is not finite, or is an eigenvalue, where p'/p has a pole.
        """
        if not np.isfinite(x):
            raise InvalidArgument(f"shift {x} is not finite")
        d = np.asarray(eigenvalues, dtype=np.float64) - x
        if np.any(d == 0.0):
            raise NearSingularShift(f"shift {x} is an eigenvalue")
        r = 1.0 / d
        return cls(float(x), -float(np.sum(r)), float(np.sum(r * r)))


# ---------------------------------------------------------------------------
# trace identities of resolvent components


def _rel(lhs, rhs):
    return abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))


def _trace_residual_rows(comps: np.ndarray, eigs: np.ndarray, shifts) -> np.ndarray:
    """:func:`trace_identity_residuals` of a (k, 8, n, n) stack with (k, 8n) spectra
    ``eigs`` at its (k, 2) shifts, one row per entry, each trace taken over the stack."""
    shifts = np.asarray(shifts, dtype=np.float64)
    ucx, ucy = np.moveaxis(_resolvents(comps, eigs, shifts), 1, 0)
    rf = real_form(comps)
    dx, dy = (np.linalg.inv(rf - s[:, None, None] * np.eye(rf.shape[-1])) for s in shifts.T)
    trace_x = np.trace(dx, axis1=1, axis2=2)
    # sign(C, C) tr[U^C(x) U^C(y)], one stacked product for all eight C
    signed = CONJUGATION_SIGNS * np.trace(ucx @ ucy, axis1=2, axis2=3)
    # tr(dx dy) = sum_ij dx_ij dy_ji, so no 8n x 8n product is formed
    cross_trace = np.sum(dx * dy.transpose(0, 2, 1), axis=(1, 2))
    # p'/p = -sum r and the curvature sum r^2, r = 1/(lam - x), indexed [entry, shift]
    r = 1.0 / (eigs[:, None] - shifts[..., None])
    dlog = -np.sum(r, axis=-1)
    curvature = np.sum(r * r, axis=-1)
    return np.stack((
        _rel(trace_x, 8.0 * np.trace(ucx[:, 0], axis1=1, axis2=2)),
        np.max(_rel(np.sum(ucx * ucy, axis=(2, 3)), signed), axis=1),
        _rel(cross_trace, 8.0 * sum(signed[:, c] for c in range(8))),
        _rel(trace_x, -dlog[:, 0]),
        _rel(np.sum(dx * dx.transpose(0, 2, 1), axis=(1, 2)), curvature[:, 0]),
        _rel(cross_trace, (dlog[:, 0] - dlog[:, 1]) / (shifts[:, 1] - shifts[:, 0]))), axis=1)


def trace_identity_residuals(m: OctonionicMatrix, x: float, y: float) -> dict[str, float]:
    """Scaled residuals of the component-trace and charpoly-trace identities
    (the one-matrix case of the stacked rows the trace suite takes).

    Checks, for resolvents U at off-spectrum shifts x != y, with U the LU
    inverse of the shifted real form and U^C the components of the
    structured inverse :func:`resolvent` (two independent routes):

    * ``full-trace``: trace U(x) == 8 trace U(x)^0;
    * ``transpose-pairing``: sum_ij U(x)^F_ij U(y)^F_ij ==
      sign(F,F) tr[U(x)^F U(y)^F] per component F;
    * ``product-trace``: tr[U(x) U(y)] == 8 sum_C sign(C,C) tr[U^C U^C];
    * ``dlog``: trace U(x) == -p'/p(x);
    * ``sq``: tr U(x)^2 == (p'/p)^2 - p''/p;
    * ``cross``: tr[U(x)U(y)] == (p'/p(x) - p'/p(y)) / (y - x).
    """
    names = ("full-trace", "transpose-pairing", "product-trace", "dlog", "sq", "cross")
    rows = _trace_residual_rows(m.components[None], m.eigenvalues[None], [[x, y]])
    return dict(zip(names, rows[0].tolist()))


# ---------------------------------------------------------------------------
# log-determinant derivatives


def logdet_gradient(matrix: np.ndarray) -> np.ndarray:
    """Analytic d(log det)/dR_ij, i.e. the transposed inverse."""
    return np.linalg.inv(matrix).T


def _central_differences(fn, matrix: np.ndarray) -> np.ndarray:
    """(fn(R + h E_kl) - fn(R - h E_kl)) / 2h for every entry (k, l) of each (n, n)
    matrix of a (..., n, n) stack, with h = FD_STEP and ``fn`` called once on the
    stack of all 2 n^2 points of every matrix, shape (..., 2, n, n, n, n)."""
    n = matrix.shape[-1]
    lead = matrix.shape[:-2]
    k, l = np.indices((n, n))
    stack = np.broadcast_to(matrix[..., None, None, None, :, :], lead + (2, n, n, n, n)).copy()
    stack[..., 0, k, l, k, l] += FD_STEP
    stack[..., 1, k, l, k, l] -= FD_STEP
    up, down = np.moveaxis(fn(stack), len(lead), 0)
    return (up - down) / (2 * FD_STEP)


def fd_logdet_gradient(matrix: np.ndarray) -> np.ndarray:
    """Central differences of log|det|, either sign of det, of one (n, n) matrix or
    each of a (..., n, n) stack, from one stacked ``slogdet``."""
    return _central_differences(lambda stack: np.linalg.slogdet(stack)[1], matrix)


def fd_logdet_hessian(matrix: np.ndarray) -> np.ndarray:
    """Central differences of the analytic gradient of one (n, n) matrix or each of a
    (..., n, n) stack, indexed [..., i, j, k, l], from one stacked ``inv``.

    The pure double stencil on log det has a roundoff floor of eps/h^2
    (about 1e-6 relative at h = 1e-5), too coarse to certify a 1e-5
    tolerance; differencing the gradient, itself validated against pure
    log-det differences, keeps the noise at eps/h.
    """
    diff = _central_differences(np.linalg.inv, matrix)
    # [..., k, l, j, i] -> [..., i, j, k, l]: the gradient is the transposed inverse
    lead = tuple(range(diff.ndim - 4))
    return np.ascontiguousarray(diff.transpose(lead + tuple(len(lead) + a for a in (3, 2, 0, 1))))


def check_logdet_derivatives(count: int = 100, seed: int = 3) -> IdentityReport:
    """Central differences vs analytic log-det derivatives.

    Draws well-conditioned random 5x5 matrices (redrawing above condition
    number 200) and compares the full gradient and Hessian in relative
    Frobenius norm, to 1e-5.  The draws are taken one matrix at a time; then
    each batch of :func:`entries_per_batch` draws, sized by its stencil stack,
    takes one ``inv`` for the analytic derivatives and one stacked
    :func:`fd_logdet_gradient` and :func:`fd_logdet_hessian`.  The norms
    stay per matrix: a stacked ``axis=`` norm rounds differently.
    """
    rng = np.random.default_rng(seed)
    step = entries_per_batch(2 * 8 * 5 ** 4)
    with IdentityReport("logdet-derivatives", seed=seed).timed() as report:
        for lo in range(0, count, step):
            mats = np.empty((min(count, lo + step) - lo, 5, 5))
            for matrix in mats:
                matrix[...] = rng.standard_normal((5, 5))
                tries = 0
                while np.linalg.cond(matrix) > 200.0:
                    matrix[...] = rng.standard_normal((5, 5))
                    tries += 1
                    if tries > 100:
                        raise Error("could not draw a well-conditioned matrix")
            inv = np.linalg.inv(mats)
            g_an = inv.transpose(0, 2, 1)  # logdet_gradient, one stacked inverse
            # d^2(log det)/dR_ij dR_kl = -(R^-1)_jk (R^-1)_li
            h_an = -np.einsum("mjk,mli->mijkl", inv, inv)
            g_fd = fd_logdet_gradient(mats)
            h_fd = fd_logdet_hessian(mats)
            for m in range(len(mats)):
                report.record(float(np.linalg.norm(g_fd[m] - g_an[m])
                                    / np.linalg.norm(g_an[m])), 1e-5)
                report.record(float(np.linalg.norm((h_fd[m] - h_an[m]).ravel())
                                    / np.linalg.norm(h_an[m].ravel())), 1e-5)
    return report


# ---------------------------------------------------------------------------
# dimension-2 trace identities and their higher-dimension obstruction


def _dim2_trace_residuals(ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Resolvent-component residuals of one draw, or one row per draw of a
    stack, one stacked product per trace.  Squares use libm ``pow`` through
    ``float_power``, as ``float ** 2`` does; ``x * x`` differs in ~0.1 % of cases."""
    a0 = ANTISYM_UNIT_2
    t_x, t_xa, t_ya, t_xy, t_xx, t_xaxa = (np.trace(p, axis1=-2, axis2=-1) for p in (
        ux, ux @ a0, uy @ a0, ux @ uy, ux @ ux, ux @ a0 @ ux @ a0))
    return np.concatenate((_rel(t_xa[..., 1:] * t_ya[..., 1:], -2.0 * t_xy[..., 1:]),
                           _rel(t_xaxa[..., 1:], -t_xx[..., 1:]),
                           _rel(t_xaxa[..., :1], t_xx[..., :1] - np.float_power(t_x[..., :1], 2))),
                          axis=-1)


def check_dim2_identities(trials: int = 1_000, seed: int = 4) -> IdentityReport:
    """Trace identities special to 2x2 matrices, on random structured draws.

    With ``A0`` the antisymmetric unit and U the resolvent components at two
    off-spectrum shifts, each draw checks, for every nonscalar component C:

    * tr(U(x)^C A0) tr(U(y)^C A0) == -2 tr(U(x)^C U(y)^C),
    * tr(U(x)^C A0 U(x)^C A0)     == -tr((U(x)^C)^2),
    * tr(U^0 A0 U^0 A0)           == tr((U^0)^2) - (tr U^0)^2,

    plus the scalar 2x2 identity tr(M^2) - (tr M)^2 == -2 det(M), each to
    :data:`DIM2_TOL`.  Draw i is the model-a sample i at t = 1 of the counter
    stream under ``seed`` (:func:`~octodyson.simulate.sample_stack`); its two
    shifts and then the scalar 2x2 matrix come trial by trial from
    ``default_rng(seed)``.  Draws are taken in batches of :func:`forms_per_batch`;
    their spectra come from the planar closed form
    (:func:`~octodyson.simulate.model_spectra`), so no real form is built.
    """
    from .simulate import SimulationConfig, model_spectra, sample_stack

    cfg = SimulationConfig("a", 2, seed=seed)
    rng = np.random.default_rng(seed)
    with IdentityReport("dim2-trace-identities", seed=seed).timed() as report:
        for lo in range(0, trials, forms_per_batch(2)):
            comps = sample_stack(cfg, range(lo, min(trials, lo + forms_per_batch(2))))
            eigs = model_spectra("a", comps)
            shifts, mm = zip(*((off_spectrum_points(e, rng, 2), rng.standard_normal((2, 2)))
                               for e in eigs))
            ux, uy = np.moveaxis(_resolvents(comps, eigs, shifts), 1, 0)
            report.record(_dim2_trace_residuals(ux, uy), DIM2_TOL)
            mm = np.array(mm)
            report.record(_rel(np.trace(mm @ mm, axis1=1, axis2=2) - np.float_power(
                np.trace(mm, axis1=1, axis2=2), 2), -2.0 * np.linalg.det(mm)), DIM2_TOL)
    return report


def dim3_counterexample() -> float:
    """Residual of (M^0 A0)^2 + det(M^0) Id for a 3x3 instance.

    The relation (M^0 A0)^2 == -det(M^0) Id underpins the 2x2 identities and
    cannot hold for 3x3 symmetric M^0 (an odd-dimensional antisymmetric A0 is
    singular); this instance shows a large residual.
    """
    m0 = np.diag([1.0, 2.0, 3.0])
    a0 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    prod = m0 @ a0
    return float(np.linalg.norm(prod @ prod + np.linalg.det(m0) * np.eye(3)))
