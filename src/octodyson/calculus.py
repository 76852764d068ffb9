"""Diffusion carre-du-champ calculus on the characteristic polynomial.

A diffusion model assigns every pair of real-form entries a covariance
coefficient (the carre du champ of the entries) and every entry a drift
(zero for both models here).  Writing p(x) = det(real form - x Id) and
U(x) for the resolvent, the chain rule turns entry-level data into

    Gamma(log p(x), log p(y)) = sum U(x)_ji U(y)_lk Gamma(M_ij, M_kl),
    L(log p(x)) = sum U_ji L(M_ij) - sum U_jk(x) U_li(x) Gamma(M_ij, M_kl),

with all indices running over the 8n x 8n real form.  This module evaluates
those quadruple sums exactly (reorganized over component indices, which is
an O(n^2) pass per label pair) and provides the closed forms they are
expected to match:

* model "a" (2x2, independent antisymmetric components):
    Gamma = (8 / (y - x)) (p'/p(x) - p'/p(y)),
    L(log p) = 3 ((p'/p)^2 - p''/p) - (1/2) (p'/p)^2;
* model "b" (shared antisymmetric component, any dimension):
    same Gamma, and L(log p) = -(1/8) (p'/p)^2.

Matching coefficients against L(p) = a1 p'' + a2 p'^2 / p and
Gamma(log p(x), log p(y)) = a3/(y-x) (p'/p(x) - p'/p(y)) gives
(a1, a2, a3) = (-11, 21/2, 8) for model "a" and (-8, 63/8, 8) for model "b".
The positive root of  a^2 (a1+a2) - a (a1+a3) + a3 = 0  is the eigenvalue
multiplicity (8 for both models), and kappa = -a^2 (a1+a2) / a3 is the power
of the squared Vandermonde in the invariant spectral density, i.e. a gap
exponent beta = 2 kappa (8 for model "a", 2 for model "b").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import SIGN_TABLE, cycle_signs
from .errors import InvalidConfig, NoAdmissibleRoot, VerificationFailure
from .matrices import CharPolyEval, OctonionicMatrix, resolvent, separated_shifts

#: Shared-Gamma coefficient of the antisymmetric component in model "b".
MODEL_B_ANTISYM_RATE = 1.0 / 14.0


@dataclass(frozen=True)
class DiffusionModel:
    """Entry-covariance rule identifying one of the two matrix diffusions.

    ``kind`` is ``"a"`` (2x2 only; each nonscalar component an independent
    antisymmetric Brownian matrix) or ``"b"`` (one antisymmetric Brownian
    matrix shared by all seven nonscalar components, any dimension).  Drift
    is zero for both.

    Raises
    ------
    InvalidConfig
    """

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("a", "b"):
            raise InvalidConfig(f"kind must be 'a' or 'b', got {self.kind!r}")
        if self.kind == "a" and self.n != 2:
            raise InvalidConfig("model 'a' is defined for n = 2 only")
        if self.n < 2:
            raise InvalidConfig("n must be at least 2")

    def gamma_coefficients(self, f: int, g: int) -> tuple[float, float]:
        """(c1, c2) with Gamma(M^f_ij, M^g_kl) = c1 d_ik d_jl + c2 d_il d_jk."""
        if self.kind == "a":
            if f != g:
                return 0.0, 0.0
            return 0.5, 0.5 * float(SIGN_TABLE[f, f])
        if f == 0 and g == 0:
            return 0.5, 0.5
        if f != 0 and g != 0:
            return MODEL_B_ANTISYM_RATE, -MODEL_B_ANTISYM_RATE
        return 0.0, 0.0


def model_a() -> DiffusionModel:
    return DiffusionModel("a", 2)


def model_b(n: int) -> DiffusionModel:
    return DiffusionModel("b", n)


@lru_cache(maxsize=None)
def _gamma_weights(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(8, 8) weights of the elementwise and trace pairings of the component
    pairs (f, g) in the Gamma quadruple sum: the model coefficients times
    64 sign(f, f) sign(g, g), from the 64 block pairs mapping to each pair."""
    model = DiffusionModel(kind, 2)
    signs = 64.0 * np.multiply.outer(np.diagonal(SIGN_TABLE), np.diagonal(SIGN_TABLE))
    w_elem, w_tr = np.array([[np.multiply(signs[f, g], model.gamma_coefficients(f, g))
                              for g in range(8)] for f in range(8)]).transpose(2, 0, 1).copy()
    w_elem.setflags(write=False)
    w_tr.setflags(write=False)
    return w_elem, w_tr


@lru_cache(maxsize=None)
def _generator_weights(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Aggregated sign weights of the generator quadruple sum.

    Each of the 4096 block quadruples (a, b, c, d) contributes its 4-cycle
    sign product (:func:`~octodyson.algebra.cycle_signs`) times the model
    coefficients of the component pair (a^b, c^d), accumulated in row-major
    quadruple order onto the resolvent-component pair (b^c, d^a) for the
    elementwise and trace-product pairings respectively.
    """
    model = DiffusionModel(kind, 2)
    coeffs = np.array([[model.gamma_coefficients(f, g) for g in range(8)] for f in range(8)])
    a, b, c, d = np.indices((8, 8, 8, 8)).reshape(4, -1)
    theta = cycle_signs(SIGN_TABLE).ravel()
    target = (b ^ c, d ^ a)
    w_elem = np.zeros((8, 8))
    w_tr = np.zeros((8, 8))
    np.add.at(w_elem, target, theta * coeffs[a ^ b, c ^ d, 0])
    np.add.at(w_tr, target, theta * coeffs[a ^ b, c ^ d, 1])
    w_elem.setflags(write=False)
    w_tr.setflags(write=False)
    return w_elem, w_tr


def _pairing_sum(w_elem: np.ndarray, ux: np.ndarray, uy: np.ndarray,
                 w_tr: np.ndarray, pairing: np.ndarray) -> float:
    """sum_fg w_elem[f, g] <ux^f, uy^g> + w_tr[f, g] pairing[f, g], the first
    pairing read off one Gram product of the flattened components."""
    gram = ux.reshape(8, -1) @ uy.reshape(8, -1).T
    return float(np.sum(w_elem * gram) + np.sum(w_tr * pairing))


def gamma_log_charpoly(m: OctonionicMatrix, x: float, y: float,
                       model: DiffusionModel) -> float:
    """Carre du champ of (log p(x), log p(y)) from the entry-level rule.

    Evaluates the full quadruple sum over real-form entries, reorganized
    over component labels into the elementwise pairings <U^f(x), U^g(y)>
    and the trace pairings tr[U^f(x) U^g(y)].  ``x == y`` is allowed (the
    sum has no singularity there); the closed form's confluent value is
    :func:`gamma_closed_form` at equal shifts.
    """
    ucx = resolvent(m, x).components
    ucy = resolvent(m, y).components
    w_elem, w_tr = _gamma_weights(model.kind)
    return _pairing_sum(w_elem, ucx, ucy, w_tr, np.einsum("fij,gji->fg", ucx, ucy))


def generator_log_charpoly(m: OctonionicMatrix, x: float,
                           model: DiffusionModel) -> float:
    """Generator applied to log p(x) from the entry-level rule.

    The drift part vanishes for both models; the quadratic part is the
    quadruple sum with aggregated sign weights, paired as in
    :func:`gamma_log_charpoly` with the products of component traces in
    place of the trace pairings.
    """
    uc = resolvent(m, x).components
    w_elem, w_tr = _generator_weights(model.kind)
    traces = np.trace(uc, axis1=1, axis2=2)
    return -_pairing_sum(w_elem, uc, uc, w_tr, np.multiply.outer(traces, traces))


def generator_charpoly_ratio(m: OctonionicMatrix, x: float,
                             model: DiffusionModel) -> float:
    """L(p)(x) / p(x) via the change of variables
    L(p) = p L(log p) + Gamma(p, p)/p  with  Gamma(p, p) = p^2 Gamma(log p, log p)."""
    return generator_log_charpoly(m, x, model) + gamma_log_charpoly(m, x, x, model)


def gamma_closed_form(px: CharPolyEval, py: CharPolyEval, alpha3: float = 8.0) -> float:
    """Closed form alpha3/(y-x) (p'/p(x) - p'/p(y)); analytic limit at x == y."""
    if px.x == py.x:
        return alpha3 * px.curvature
    return alpha3 / (py.x - px.x) * (px.dlog - py.dlog)


def generator_closed_form(px: CharPolyEval, model: DiffusionModel) -> float:
    """Model closed form for L(log p)(x)."""
    if model.kind == "a":
        return 3.0 * px.curvature - 0.5 * px.dlog ** 2
    return -0.125 * px.dlog ** 2


@dataclass(frozen=True)
class ExponentProblem:
    """Coefficients (a1, a2, a3) of the charpoly generator closed forms."""

    alpha1: float
    alpha2: float
    alpha3: float


#: Stated coefficient triples per model kind.
STATED_COEFFICIENTS = {
    "a": ExponentProblem(-11.0, 10.5, 8.0),
    "b": ExponentProblem(-8.0, 63.0 / 8.0, 8.0),
}


def measure_coefficients(model: DiffusionModel, matrix: OctonionicMatrix,
                         rng: np.random.Generator) -> ExponentProblem:
    """Measure (a1, a2, a3) from one matrix draw, without the closed forms.

    a3 comes from inverting the Gamma identity at two off-spectrum shift
    pairs (the two estimates must agree); a1 and a2 from L(p)/p at two
    shifts by solving the 2x2 linear system
    L(p)/p = a1 p''/p + a2 (p'/p)^2.
    """
    eigs = matrix.eigenvalues
    x1, y1 = separated_shifts(eigs, rng)
    x2, y2 = separated_shifts(eigs, rng)

    def alpha3_at(x: float, y: float) -> float:
        g = gamma_log_charpoly(matrix, x, y, model)
        px = CharPolyEval.from_eigenvalues(eigs, x)
        py = CharPolyEval.from_eigenvalues(eigs, y)
        return g * (y - x) / (px.dlog - py.dlog)

    a3_first = alpha3_at(x1, y1)
    a3_second = alpha3_at(x2, y2)
    if abs(a3_first - a3_second) > 1e-6 * (1.0 + abs(a3_first)):
        raise VerificationFailure(
            f"inconsistent a3 estimates: {a3_first!r} vs {a3_second!r}"
        )

    rows = []
    rhs = []
    for x in (x1, x2):
        px = CharPolyEval.from_eigenvalues(eigs, x)
        # p''/p = (p'/p)^2 - curvature
        rows.append([px.dlog ** 2 - px.curvature, px.dlog ** 2])
        rhs.append(generator_charpoly_ratio(matrix, x, model))
    a1, a2 = np.linalg.solve(np.array(rows), np.array(rhs))
    return ExponentProblem(float(a1), float(a2), 0.5 * (a3_first + a3_second))


@dataclass(frozen=True)
class MultiplicityResult:
    """Roots of the multiplicity quadratic."""

    a: float
    roots: tuple[float, ...]
    is_positive_integer: bool
    residual: float


def solve_multiplicity(p: ExponentProblem) -> MultiplicityResult:
    """Positive root of a^2 (a1+a2) - a (a1+a3) + a3 = 0.

    A positive integer root is the eigenvalue multiplicity.  Both real roots
    are reported; if two are positive the integer one (or the larger) is
    selected.

    Raises
    ------
    InvalidConfig
        If a1 + a2 == 0 (the equation degenerates to linear).
    NoAdmissibleRoot
        If there is no positive real root.
    """
    lead = p.alpha1 + p.alpha2
    if lead == 0.0:
        raise InvalidConfig("alpha1 + alpha2 must be nonzero")
    b = -(p.alpha1 + p.alpha3)
    disc = b * b - 4.0 * lead * p.alpha3
    if disc < 0.0:
        raise NoAdmissibleRoot("multiplicity quadratic has complex roots")
    # q is -b/2 plus the root term of the same sign, so neither root is a
    # difference of close numbers; q == 0 only when both roots are zero
    q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    roots = tuple(sorted((q / lead, p.alpha3 / q if q else 0.0)))
    positive = [r for r in roots if r > 0.0 and math.isfinite(r)]
    if not positive:
        raise NoAdmissibleRoot(f"no finite positive root among {roots}")
    ints = [r for r in positive if abs(r - round(r)) < 1e-9]
    a = ints[0] if len(ints) == 1 else max(positive)
    return MultiplicityResult(
        a=a,
        roots=roots,
        is_positive_integer=abs(a - round(a)) < 1e-9,
        residual=abs(a * a * lead + a * b + p.alpha3),
    )


def invariant_exponent(p: ExponentProblem, a: float) -> float:
    """Power kappa of the squared Vandermonde in the invariant density.

    The spectral density carries (prod_{i<j} (x_i - x_j)^2)^kappa with
    kappa = -a^2 (a1 + a2) / a3; the gap exponent is beta = 2 kappa.

    Raises
    ------
    InvalidConfig
        If a3 == 0.
    """
    if p.alpha3 == 0.0:
        raise InvalidConfig("alpha3 must be nonzero")
    return -a * a * (p.alpha1 + p.alpha2) / p.alpha3
