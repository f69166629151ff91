"""Exception types shared across the package."""


class MagtubeError(Exception):
    """Base class for all package errors."""


class DomainEmpty(MagtubeError):
    """Cross-section mask has no interior nodes."""


class DomainNotConnected(MagtubeError):
    """Cross-section mask is disconnected or has holes."""


class NotApplicable(MagtubeError):
    """Operation does not apply to this domain dimension."""


class EigensolverDiverged(MagtubeError):
    """Iterative eigensolver failed to converge.

    Carries the residual report of the best iterate when available.
    """

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals


class FredholmViolation(MagtubeError):
    """Right-hand side of a deflated solve is not orthogonal to the kernel."""


class FrameDriftError(MagtubeError):
    """Integrated frame lost orthonormality beyond the allowed defect."""

    def __init__(self, msg, defect=None):
        super().__init__(msg)
        self.defect = defect


class TubeOverlapError(MagtubeError):
    """Curvature bound epsilon * sup|tau| * sup|kappa| >= 1 violated."""


class SupportTruncationError(MagtubeError):
    """Curvature/field/twist support is not contained in the truncated s-range."""


class QuadratureResolutionError(MagtubeError):
    """Gauge quadrature step too coarse for the field feature size."""


class GridBudgetError(MagtubeError):
    """Requested grid exceeds a size budget (3D unknown count, or the band
    storage of a Cholesky factor); use a coarser grid."""


class NotPositiveDefinite(MagtubeError):
    """Cholesky factorization met a leading minor that is not positive.

    ``pivot`` is LAPACK's 1-based order of that minor.
    """

    def __init__(self, msg, pivot=None):
        super().__init__(msg)
        self.pivot = pivot


class DegenerateModeError(MagtubeError):
    """Eigenvalue gap too small for a simple-mode construction."""


class NoBoundStateError(MagtubeError):
    """Effective operator has no discrete eigenvalue below its essential threshold."""


class ModeTrackingError(MagtubeError):
    """Eigenvector overlap too small to keep mode identity across a sweep."""

    def __init__(self, msg, overlaps=None):
        super().__init__(msg)
        self.overlaps = overlaps


class InvalidFormPair(MagtubeError):
    """Form-pair check requires positive-definite inputs."""


class FitDomainError(MagtubeError):
    """Rate fit needs >= 3 points with positive values."""


class ConfigError(MagtubeError):
    """Experiment configuration failed to parse or validate."""


class DeformationTooLarge(MagtubeError):
    """Deformation map lost local injectivity (Jacobian sign flip)."""


class ZeroFieldWarning(UserWarning):
    """Magnetic field vanishes on the probed region; Hardy constant degenerates."""
