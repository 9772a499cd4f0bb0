"""Exception types shared across the package, and the config-table check."""


class GibbsNetError(Exception):
    """Base class for all package-specific errors."""


class NonUniqueStationary(GibbsNetError):
    """Eigenvalue 1 of the transition operator is numerically multiple."""


class ZeroStationaryMass(GibbsNetError):
    """A stationary weight is too small to divide by."""


class EigenFailure(GibbsNetError):
    """The eigenvalue solver did not converge."""


class DimensionMismatch(GibbsNetError):
    """Operands have incompatible shapes."""


class NotMixedWithinCap(GibbsNetError):
    """No time below the cap brings every start state within tolerance."""


class UnvisitedState(GibbsNetError):
    """A state never appears as a transition source in the trajectory."""


class ArchitectureTooLarge(GibbsNetError):
    """Network does not fit inside the requested maximal architecture."""


class EmptyDataset(GibbsNetError):
    """Operation requires at least one observation."""


class OutOfSupport(GibbsNetError):
    """Parameter vector lies outside the prior support."""


class InvalidClass(GibbsNetError):
    """Network class description is inconsistent."""


class NoDraws(GibbsNetError):
    """Posterior sample is empty."""


class ThetaOutOfRange(GibbsNetError):
    """MGF argument outside the admissible open interval."""


class LambdaOutOfRange(GibbsNetError):
    """Temperature outside the admissible open interval."""


class TooFewPoints(GibbsNetError):
    """Not enough distinct grid points for a least-squares fit."""


class MismatchedEffectiveSize(GibbsNetError):
    """Experiment pairs do not share a common effective sample size."""


class ConfigError(GibbsNetError):
    """Experiment configuration is malformed."""


def check_table(doc, name: str, keys) -> dict:
    """``doc`` if it is a config table whose keys all lie in ``keys``; a
    non-table or an unknown key raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a table, got {doc!r}")
    unknown = set(doc) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    return doc
