"""Octonion algebra, octonionic real-form matrices, and two Dyson-type
matrix diffusions with fully verified spectral identities.

The package has four layers:

* :mod:`octodyson.algebra` — the eight-dimensional algebra on a
  subset-labeled basis, with exhaustive identity suites;
* :mod:`octodyson.matrices` — component/real-form matrices, the structured
  inverse, resolvents, and characteristic-polynomial data;
* :mod:`octodyson.calculus` — carre-du-champ calculus on log det, model
  closed forms, eigenvalue multiplicity, and invariant-density exponents;
* :mod:`octodyson.simulate` — reproducible Monte Carlo sampling, spectrum
  clustering, and spectral-exponent estimation.

``python -m octodyson --help`` lists the verification CLI.
"""

__version__ = "0.1.0"

from . import algebra, calculus, matrices, reporting, simulate, verify
from .algebra import (
    CANONICAL_LABELS,
    SIGN_TABLE,
    basis_element,
    conj,
    imaginary_sum,
    mul,
    norm,
    sign,
    subset_label,
)
from .calculus import (
    DiffusionModel,
    ExponentProblem,
    MultiplicityResult,
    gamma_closed_form,
    gamma_log_charpoly,
    generator_closed_form,
    generator_log_charpoly,
    invariant_exponent,
    measure_coefficients,
    model_a,
    model_b,
    solve_multiplicity,
)
from .errors import (
    Error,
    InsufficientData,
    InvalidArgument,
    InvalidConfig,
    NearSingularShift,
    NoAdmissibleRoot,
    NotSymmCompatible,
    NotSymmetric,
    SingularBase,
    SingularCore,
    VerificationFailure,
)
from .matrices import (
    CharPolyEval,
    OctonionicMatrix,
    oct_inverse,
    real_form,
    resolvent,
)
from .reporting import IdentityReport
from .simulate import (
    GapStatistics,
    SimulationConfig,
    SpectralSample,
    gap_statistics,
    implied_beta,
    sample_matrix,
    sample_rng,
    sample_spectra,
)
