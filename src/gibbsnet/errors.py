"""Exception types shared across the package, and the one reader of
config tables with its number policy."""

import numpy as np


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


class ConfigError(GibbsNetError):
    """Experiment configuration is malformed."""


class MismatchedEffectiveSize(ConfigError):
    """Experiment pairs do not share a common effective sample size; the
    config alone decides it, so it is a config error."""


REQUIRED = object()  # the schema default of a key a table must hold

# A schema maps each key of a config table to (kind, default).  A kind is
# "int", "number", "str", "table" or "any"; [kind] is a list of that kind,
# and a tuple of kinds is a list of exactly those kinds in order.
KIND_NAMES = {"int": "an integer", "number": "a number", "str": "a string",
              "table": "a table"}


def check_value(value, kind, where: str):
    """``value`` read as ``kind``, or ConfigError naming ``where``.

    The one number policy: an integer is a Python or numpy integer and reads
    as an int; a number is also a float and reads as a float; a bool or a
    string is never a number.  A list is a list or a tuple and reads as a
    tuple.
    """
    if isinstance(kind, (list, tuple)):
        if not isinstance(value, (list, tuple)) or (
            isinstance(kind, tuple) and len(value) != len(kind)
        ):
            shape = f"a list of {len(kind)}" if isinstance(kind, tuple) else "a list"
            raise ConfigError(f"{where} must be {shape}, got {value!r}")
        kinds = kind if isinstance(kind, tuple) else kind * len(value)
        return tuple(check_value(v, k, f"{where}[{i}]")
                     for i, (v, k) in enumerate(zip(value, kinds)))
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if kind == "int" and integer:
        return int(value)
    if kind == "number" and (integer or isinstance(value, (float, np.floating))):
        return float(value)
    if kind == "any" or isinstance(value, {"str": str, "table": dict}.get(kind, ())):
        return value
    raise ConfigError(f"{where} must be {KIND_NAMES[kind]}, got {value!r}")


def check_table(doc, name: str, schema: dict) -> dict:
    """The typed table of config table ``doc`` under ``schema`` (see
    :func:`check_value`): every key of the schema, absent ones at their
    default.  A key whose default is None also takes None.  A non-table, an
    unknown key, a missing required key or a value of the wrong kind raises
    ConfigError naming ``name`` and the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a table, got {doc!r}")
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    table = {}
    for key, (kind, default) in schema.items():
        value = doc.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"{name} needs the key {key!r}")
        absent = key not in doc or value is None and default is None
        table[key] = value if absent else check_value(value, kind, f"{name} {key}")
    return table


def check_kinded(doc, name: str, field: str, schemas: dict) -> dict:
    """The typed table of ``doc``, whose string ``field`` picks its schema
    from ``schemas`` (see :func:`check_table`); a non-table or an unknown
    kind raises ConfigError."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{name} must be a table, got {doc!r}")
    kind = doc.get(field)
    if not isinstance(kind, str) or kind not in schemas:
        raise ConfigError(f"unknown {name} {field} {kind!r}")
    return check_table(doc, f"{kind} {name}", {field: ("str", REQUIRED), **schemas[kind]})
