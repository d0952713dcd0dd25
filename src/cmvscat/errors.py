"""Exception taxonomy shared across the package."""


class CmvScatError(Exception):
    """Base class for all library errors."""


class ConstructionError(CmvScatError, ValueError):
    """Invalid parameters at object construction time."""


class WindowError(ConstructionError):
    """Malformed or too-short lattice window."""


class NearSpectrumError(CmvScatError):
    """A banded resolvent solve was ill-conditioned beyond threshold."""


class NotConvergedError(CmvScatError):
    """A depth- or window-doubling check or radial extrapolation failed to stabilize."""


class NegativeDensityError(CmvScatError):
    """A computed spectral density came out negative beyond tolerance."""


class MoebiusPoleError(CmvScatError):
    """Denominator of a Moebius map of an m-function vanished."""


class WronskianDegenerateError(CmvScatError):
    """Wronskian-type denominator of the two-sided solution formula vanished."""


class PropagationOverflowError(CmvScatError):
    """Transfer-matrix propagation exceeded the magnitude guard.

    The site where the overflow occurred is stored in ``site``.
    """

    def __init__(self, message, site):
        super().__init__(message)
        self.site = site


class ConfigError(CmvScatError, ValueError):
    """Invalid job configuration."""
