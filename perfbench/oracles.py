"""Reference values computed apart from octodyson.

Nothing here calls the package: spectra come from the explicit 2x2
octonionic eigenvalue formula (model a) or from the n x n Hermitian
reduction M^0 + i sqrt(7) S (model b), characteristic-polynomial
derivatives are power sums over those eigenvalues (log space, so they do
not overflow where a raw product of 8n factors does), and the gap moments
come from the chi-square law of the 2x2 gap.  A check returns its
violations: a list of messages (empty when it held) or a count of failed
cases.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

MULTIPLICITY = 8
SQRT7 = math.sqrt(7.0)
#: Coefficient a3 of the carre-du-champ closed form, shared by both models.
ALPHA3 = 8.0
#: L(log p)(x) = c * curvature + d * (p'/p)^2 per model, as (c, d), with
#: curvature = (p'/p)^2 - p''/p.
GENERATOR_COEFFS = {"a": (3.0, -0.5), "b": (0.0, -0.125)}
#: Shared rate of the antisymmetric component in model b.
MODEL_B_RATE = 1.0 / 14.0


def planar_spectrum(components: np.ndarray) -> np.ndarray:
    """Two distinct eigenvalues of a 2x2 symmetric octonionic matrix.

    With diagonal entries a, b and off-diagonal octonion q, the eigenvalues
    are (a+b)/2 -+ sqrt((a-b)^2 + 4|q|^2)/2, each of multiplicity 8.
    """
    a, b = components[0, 0, 0], components[0, 1, 1]
    q2 = float(np.sum(components[:, 0, 1] ** 2))
    half = 0.5 * math.sqrt((a - b) ** 2 + 4.0 * q2)
    mid = 0.5 * (a + b)
    return np.array([mid - half, mid + half])


def hermitian_spectrum(components: np.ndarray, root: float = SQRT7) -> np.ndarray:
    """Distinct eigenvalues of a model-b draw via eig(M^0 + i sqrt(7) S).

    The seven nonscalar components must all equal the shared S; their units
    sum to an element squaring to -7, so it acts as sqrt(7) i.
    """
    s = components[1]
    for k in range(2, 8):
        if not np.array_equal(components[k], s):
            raise ValueError("model-b draw must share one antisymmetric component")
    return np.linalg.eigvalsh(components[0] + 1j * root * s)


def distinct_spectrum(kind: str, components: np.ndarray) -> np.ndarray:
    return planar_spectrum(components) if kind == "a" else hermitian_spectrum(components)


def log_space_derivatives(distinct: np.ndarray, x: float) -> tuple[float, float]:
    """(p'/p, (p'/p)^2 - p''/p) at x for p(x) = prod (lam_k - x)^8."""
    d = np.asarray(distinct) - x
    return (-MULTIPLICITY * float(np.sum(1.0 / d)),
            MULTIPLICITY * float(np.sum(1.0 / d ** 2)))


def _log_space_closed_forms(kind: str, r: dict, alpha3: float, generator):
    """Closed forms of Gamma(log p(x), log p(y)) and L(log p)(x) for one
    trial, each with the sum of its terms' magnitudes as the scale."""
    c_curv, c_dlog = GENERATOR_COEFFS[kind] if generator is None else generator
    distinct = distinct_spectrum(kind, r["components"])
    dlog_x, curv_x = log_space_derivatives(distinct, r["x"])
    dlog_y, _ = log_space_derivatives(distinct, r["y"])
    gamma = alpha3 / (r["y"] - r["x"]) * (dlog_x - dlog_y)
    gamma_scale = alpha3 / abs(r["y"] - r["x"]) * (abs(dlog_x) + abs(dlog_y))
    gen = c_curv * curv_x + c_dlog * dlog_x ** 2
    gen_scale = abs(c_curv * curv_x) + abs(c_dlog) * dlog_x ** 2
    return gamma, gamma_scale, gen, gen_scale


def closed_form_failures(kind: str, records, tol: float = 1e-8,
                         alpha3: float = ALPHA3, generator=None) -> int:
    """Failed cases of the closed-form suite, judged case by case.

    ``records`` hold, per trial, the draw, both shifts, the program's
    quadruple sums and the program's closed-form values.  Per trial there
    are three cases, as the suite counts them:

    * Gamma: the program's closed form must be finite and equal the
      benchmark's log-space value, and so must the program's quadruple sum;
    * symmetry: Gamma(x, y) == Gamma(y, x);
    * generator: as Gamma, for L(log p)(x).
    """
    failed = 0
    for r in records:
        gamma, gamma_scale, gen, gen_scale = _log_space_closed_forms(kind, r, alpha3, generator)
        failed += not (_agrees(r["gamma_closed"], gamma, gamma_scale, tol)
                       and _agrees(r["gamma_xy"], gamma, gamma_scale, tol))
        failed += not _agrees(r["gamma_yx"], r["gamma_xy"], 1.0 + abs(r["gamma_xy"]), tol)
        failed += not (_agrees(r["generator_closed"], gen, gen_scale, tol)
                       and _agrees(r["generator"], gen, gen_scale, tol))
    return failed


def quadruple_sum_failures(kind: str, records, tol: float = 1e-8,
                           alpha3: float = ALPHA3, generator=None) -> int:
    """Trials whose quadruple sums disagree with the log-space closed forms.

    This part of the judgement needs no program closed form, so its
    negative control also bites where those are non-finite.
    """
    bad = 0
    for r in records:
        gamma, gamma_scale, gen, gen_scale = _log_space_closed_forms(kind, r, alpha3, generator)
        bad += not (_agrees(r["gamma_xy"], gamma, gamma_scale, tol)
                    and _agrees(r["generator"], gen, gen_scale, tol))
    return bad


def _agrees(got: float, want: float, scale: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * scale


def spectrum_mismatch(csv_distinct: np.ndarray, reference: np.ndarray) -> float:
    """Max distance between CSV values and a reference spectrum, relative to
    1 + spectral radius."""
    return float(np.max(np.abs(csv_distinct - reference)) / (1.0 + np.max(np.abs(reference))))


def chi2_moment(dof: int, order: int) -> float:
    """E[X^order] for X ~ chi-square with ``dof`` degrees of freedom."""
    return math.prod(dof + 2 * j for j in range(order))


def gap_moment_violations(moment2: float, moment4: float, count: int, t: float,
                          beta: float = 8.0, sigmas: float = 5.0) -> list[str]:
    """Gap moments of model a against the law s^2 / 2t ~ chi-square(beta + 1).

    E[s^2] = 18 t and E[s^4] = 396 t^2 for beta = 8; the standard errors
    come from the same law's higher moments.
    """
    k = int(beta) + 1
    out = []
    for order, got in ((1, moment2), (2, moment4)):
        scale = (2.0 * t) ** order
        mean = scale * chi2_moment(k, order)
        sd = scale * math.sqrt(chi2_moment(k, 2 * order) - chi2_moment(k, order) ** 2)
        se = sd / math.sqrt(count)
        if not abs(got - mean) <= sigmas * se:
            out.append(f"E[s^{2 * order}] = {got!r}, law gives {mean!r} +- {se:.3g}")
    return out


def beta_violations(implied_beta: float, stderr: float, beta: float = 8.0,
                    sigmas: float = 5.0) -> list[str]:
    if abs(implied_beta - beta) <= sigmas * stderr:
        return []
    return [f"implied beta {implied_beta!r} +- {stderr!r} is not {beta}"]


def square_sum_violations(square_sums: np.ndarray, n: int, t: float,
                          rate: float = MODEL_B_RATE, sigmas: float = 5.0) -> list[str]:
    """Mean of sum_i lam_i^2 over model-b draws against its law.

    sum lam^2 = tr H^2 for H = M^0 + i sqrt(7) S: n diagonal entries of
    variance t and n(n-1) off-diagonal ones of variance t/2 + 7 rate t,
    which is n^2 t at the model's rate 1/14.
    """
    want = n * t + n * (n - 1) * (0.5 + 7.0 * rate) * t
    got = float(np.mean(square_sums))
    se = float(np.std(square_sums, ddof=1)) / math.sqrt(len(square_sums))
    if abs(got - want) <= sigmas * se:
        return []
    return [f"mean sum lam^2 = {got!r} +- {se:.3g}, law gives {want!r}"]


def digest_violations(data: bytes, recorded: str) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == recorded else [f"digest {recorded} is not sha256 {got}"]


def flip_byte(data: bytes, at: int = 0) -> bytes:
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
