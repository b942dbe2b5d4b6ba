"""Exception types shared across the package."""


class WidthlabError(Exception):
    pass


class OutsideTube(WidthlabError):
    """Point is outside the region where nearest-point projection is well posed."""


class TubeEscape(WidthlabError):
    """A smoothed/averaged value left the projection tube (smoothing radius too large)."""


class DomainMismatch(WidthlabError):
    pass


class DimensionMismatch(WidthlabError):
    pass


class TraceTooFar(WidthlabError):
    """Boundary traces differ too much for the collar construction."""


class NoCommonPoint(WidthlabError):
    """Boundary traces never agree, so the collar estimate does not apply."""


class BoundaryMismatch(WidthlabError):
    pass


class OverlapViolation(WidthlabError):
    """Balls in a family are required to have pairwise disjoint closures."""


class EnergyTooLarge(WidthlabError):
    """Region energy exceeds the small-energy threshold of the solver."""


class KindUnknown(WidthlabError):
    pass


class NonPositiveC(WidthlabError):
    pass


class NoZero(WidthlabError):
    """Trace does not vanish anywhere."""


class PreconditionFail(WidthlabError):
    pass


class ConfigError(WidthlabError):
    pass
