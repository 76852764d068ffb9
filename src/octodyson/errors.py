"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all octodyson errors."""


class SingularBase(Error):
    """The scalar-part component is singular; the structured inverse is undefined."""


class NotSymmetric(Error):
    """The scalar component is not symmetric or another component is not
    antisymmetric, so the real form is not symmetric."""


class NotSymmCompatible(Error):
    """The pairwise component compatibility condition fails beyond tolerance."""


class SingularCore(Error):
    """The core sum ``sum_C M^C (M^0)^-1 M^C`` is numerically singular."""


class NearSingularShift(Error):
    """The requested shift is too close to the spectrum for a stable resolvent."""


class NoAdmissibleRoot(Error):
    """The multiplicity quadratic has no positive real root."""


class InsufficientData(Error):
    """Too few usable samples to form reliable statistics."""


class VerificationFailure(Error):
    """A numeric self-check did not reproduce the expected constants."""


class InvalidConfig(Error, ValueError):
    """A model, sampling or exponent-problem configuration is outside its
    valid range."""


class InvalidArgument(Error, ValueError):
    """An argument is outside the function's contract: a wrong shape, a
    missing structure or a value outside its domain."""
