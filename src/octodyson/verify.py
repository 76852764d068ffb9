"""Composite verification suites over random structured draws.

Each suite draws matrices from the model samplers, evaluates an identity on
both sides by independent routes, and reports scaled residuals.  These back
the command-line verification commands and the acceptance tests.
"""

from __future__ import annotations

import numpy as np

from .calculus import (
    CharPolyEval,
    DiffusionModel,
    gamma_closed_form,
    gamma_log_charpoly,
    generator_closed_form,
    generator_log_charpoly,
)
from .errors import Error
from .matrices import (
    OctonionicMatrix,
    _trace_residual_rows,
    forms_per_batch,
    oct_inverse,
    real_form,
    separated_shifts,
)
from .reporting import IdentityReport
from .simulate import SimulationConfig, sample_matrix, sample_stack

#: Suite tolerances, and the condition number above which the round trip redraws.
CLOSED_FORM_TOL = 1e-8
TRACE_TOL = 1e-9
ROUNDTRIP_TOL = 1e-9
ROUNDTRIP_COND_LIMIT = 1e8


def check_closed_forms(model: DiffusionModel, trials: int = 100, seed: int = 0) -> IdentityReport:
    """Quadruple-sum evaluations vs the model closed forms.

    Per draw: the carre du champ of (log p(x), log p(y)) against
    ``a3/(y-x) (p'/p(x) - p'/p(y))``, its symmetry in (x, y), and the
    generator of log p(x) against the model closed form.  Residuals are
    relative to the closed-form magnitude (term-wise, so a cancellation in
    the closed form cannot inflate the measure).  Draws are taken from the
    sampler in batches of :func:`~octodyson.matrices.forms_per_batch`.
    """
    cfg = SimulationConfig(model.kind, model.n, seed=seed)
    rng = np.random.default_rng(seed)
    step = forms_per_batch(model.n)
    suite = f"closed-forms-model-{model.kind}-n{model.n}"
    with IdentityReport(suite, seed=seed).timed() as report:
        for lo in range(0, trials, step):
            for comps in sample_stack(cfg, range(lo, min(trials, lo + step))):
                m = OctonionicMatrix(comps)
                x, y = separated_shifts(m.eigenvalues, rng)
                px = CharPolyEval.from_eigenvalues(m.eigenvalues, x)
                py = CharPolyEval.from_eigenvalues(m.eigenvalues, y)

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


def check_trace_identities(kind: str, n: int, trials: int = 50, seed: int = 0) -> IdentityReport:
    """Component-trace and charpoly-trace identities on random draws, drawn,
    eigensolved and evaluated over batches of :func:`~octodyson.matrices.forms_per_batch`."""
    cfg = SimulationConfig(kind, n, seed=seed)
    rng = np.random.default_rng(seed)
    step = forms_per_batch(n)
    with IdentityReport(f"trace-identities-model-{kind}-n{n}", seed=seed).timed() as report:
        for lo in range(0, trials, step):
            comps = sample_stack(cfg, range(lo, min(trials, lo + step)))
            eigs = np.linalg.eigvalsh(real_form(comps))
            shifts = [separated_shifts(e, rng) for e in eigs]
            report.record(_trace_residual_rows(comps, eigs, shifts), TRACE_TOL)
    return report


def check_inverse_roundtrip(kind: str, n: int, trials: int = 1000,
                            seed: int = 0) -> IdentityReport:
    """Structured inverse against the identity: |rf(N) rf(M) - Id|_inf.

    Draws of real-form condition number above :data:`ROUNDTRIP_COND_LIMIT`
    are redrawn so the tolerance measures algebra, not float pathology.  The
    real form is symmetric, so its 2-norm condition number is
    max|lam| / min|lam| over the cached spectrum.
    """
    cfg = SimulationConfig(kind, n, seed=seed)
    index = 0
    with IdentityReport(f"inverse-roundtrip-model-{kind}-n{n}", seed=seed).timed() as report:
        while report.cases < trials:
            if index >= 20 * trials + 100:
                raise Error("too many ill-conditioned draws; check the sampler")
            m = sample_matrix(cfg, index)
            index += 1
            moduli = np.abs(m.eigenvalues)
            if moduli.max() > ROUNDTRIP_COND_LIMIT * moduli.min():
                continue
            try:
                inv = oct_inverse(m)
            except Error:
                continue
            product = inv.real_form() @ m.real_form()
            report.record(float(np.max(np.abs(product - np.eye(8 * n)))), ROUNDTRIP_TOL)
    return report
