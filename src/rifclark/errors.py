"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class so the CLI can map it to a structured error report.
"""

from __future__ import annotations


class RifclarkError(Exception):
    """Base class for all package-specific errors."""


class DegreeNotAttained(RifclarkError):
    """A declared polynomial degree has no matching nonzero coefficient."""


class ZeroPolynomial(RifclarkError):
    """An operation received the zero polynomial where that is meaningless."""


class RootFindFailure(RifclarkError):
    """The eigenvalue root solver failed to converge."""


class PhaseLabelFailure(RifclarkError):
    """No reference circle resolved the phase that labels level-set branches."""


class MassGapExceeded(RifclarkError):
    """A built measure's mass missed the Poisson identity at the origin."""


class MeasureMismatch(RifclarkError, ValueError):
    """A measure rebuilt from its file differs from the one written: the
    two SHA-256 digests of its arrays disagree."""


class MassNotOne(RifclarkError):
    """A probability-measure precondition failed (total mass != 1)."""


class FitDegenerate(RifclarkError, ValueError):
    """A branch series at a singularity has no order to read: d/dz2 h
    vanishes there (an exceptional alpha, or grad p = 0), or no
    coefficient up to the Bezout bound is above rounding."""


class NonConvergent(RifclarkError):
    """A radial limit is not unimodular, or p vanishes along the radius."""


class DenominatorVanishes(RifclarkError):
    """The denominator of a rational conjugate has a zero on the closed disk."""


class SingularDenominator(RifclarkError):
    """A closed-form level parametrization was evaluated at a singular point."""


class UnstableDenominator(RifclarkError):
    """A stability certificate ruled the denominator polynomial out."""


class CertificateTooLarge(RifclarkError, ValueError):
    """A stability certificate's grid would hold more slices than its cap."""
