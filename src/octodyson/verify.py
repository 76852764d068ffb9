"""Composite verification suites over random structured draws.

Each suite draws matrices from the model samplers, evaluates an identity on
both sides by independent routes, and reports scaled residuals.  These back
the command-line verification commands and the acceptance tests.  Draws are
taken in batches of :func:`~octodyson.matrices.forms_per_batch`, and each
batch makes one stacked call per kernel: reduced spectrum
(:func:`~octodyson.simulate.model_spectra`, an n x n solve per draw, never an
8n x 8n one), real form where a dense route needs it, structured inverse;
only the calculus of the closed-form suite runs one trial at a time, on
resolvents the batch has already taken.  The dense routes that carry an
identity stay: the trace suite's LU inverses of the shifted real forms and
the round trip's product of real forms.
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
    _memoise_resolvents,
    _oct_inverse_masked,
    _trace_residual_rows,
    forms_per_batch,
    real_form,
    separated_shifts,
)
from .reporting import IdentityReport
from .simulate import SimulationConfig, model_spectra, sample_stack

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
    sampler in batches of :func:`~octodyson.matrices.forms_per_batch`; each
    batch's spectra come from its reduction
    (:func:`~octodyson.simulate.model_spectra`; no real form is built), its
    shifts are drawn trial by trial, and all its resolvents taken in one
    stacked call into the matrices' memos, so the calculus, called trial by
    trial, inverts nothing.
    """
    cfg = SimulationConfig(model.kind, model.n, seed=seed)
    rng = np.random.default_rng(seed)
    step = forms_per_batch(model.n)
    suite = f"closed-forms-model-{model.kind}-n{model.n}"
    with IdentityReport(suite, seed=seed).timed() as report:
        for lo in range(0, trials, step):
            comps = sample_stack(cfg, range(lo, min(trials, lo + step)))
            eigs = model_spectra(model.kind, comps)
            shifts = [separated_shifts(e, rng) for e in eigs]
            mats = [OctonionicMatrix(c) for c in comps]
            _memoise_resolvents(mats, eigs, shifts)
            for m, e, (x, y) in zip(mats, eigs, shifts):
                px = CharPolyEval.from_eigenvalues(e, x)
                py = CharPolyEval.from_eigenvalues(e, y)

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
    """Component-trace and charpoly-trace identities on random draws, drawn
    and evaluated over batches of :func:`~octodyson.matrices.forms_per_batch`.

    Each batch's spectra come from its reduction
    (:func:`~octodyson.simulate.model_spectra`), so the dlog, sq and cross
    identities compare the LU inverses of the shifted real forms with the
    reduced spectrum on every trial."""
    cfg = SimulationConfig(kind, n, seed=seed)
    rng = np.random.default_rng(seed)
    step = forms_per_batch(n)
    with IdentityReport(f"trace-identities-model-{kind}-n{n}", seed=seed).timed() as report:
        for lo in range(0, trials, step):
            comps = sample_stack(cfg, range(lo, min(trials, lo + step)))
            eigs = model_spectra(kind, comps)
            shifts = [separated_shifts(e, rng) for e in eigs]
            report.record(_trace_residual_rows(comps, eigs, shifts), TRACE_TOL)
    return report


def check_inverse_roundtrip(kind: str, n: int, trials: int = 1000,
                            seed: int = 0) -> IdentityReport:
    """Structured inverse against the identity: |rf(N) rf(M) - Id|_inf.

    Draws of real-form condition number above :data:`ROUNDTRIP_COND_LIMIT`
    are redrawn so the tolerance measures algebra, not float pathology.  The
    real form is symmetric, so its 2-norm condition number is
    max|lam| / min|lam| over its spectrum, read from the reduced spectra
    (:func:`~octodyson.simulate.model_spectra`).  Draws are taken in index
    order, in batches of at most :func:`~octodyson.matrices.forms_per_batch`
    and never more than the trials still missing; each batch's real forms
    are built in one call, its kept draws inverted in one call that skips
    the entries the structured inverse refuses, and its products formed in
    one stacked call.
    No draw at index 20 trials + 100 or beyond is taken.
    """
    cfg = SimulationConfig(kind, n, seed=seed)
    step = forms_per_batch(n)
    limit = 20 * trials + 100
    index = 0
    with IdentityReport(f"inverse-roundtrip-model-{kind}-n{n}", seed=seed).timed() as report:
        while report.cases < trials:
            if index >= limit:
                raise Error("too many ill-conditioned draws; check the sampler")
            stop = min(limit, index + min(step, trials - report.cases))
            comps = sample_stack(cfg, range(index, stop))
            index = stop
            rf = real_form(comps)
            moduli = np.abs(model_spectra(kind, comps))
            kept = ~(moduli.max(axis=1) > ROUNDTRIP_COND_LIMIT * moduli.min(axis=1))
            inverses, errors = _oct_inverse_masked(comps[kept])
            ok = np.ones(len(inverses), dtype=bool)
            ok[list(errors)] = False
            product = real_form(inverses[ok]) @ rf[kept][ok]
            report.record(np.max(np.abs(product - np.eye(8 * n)), axis=(1, 2)), ROUNDTRIP_TOL)
    return report
