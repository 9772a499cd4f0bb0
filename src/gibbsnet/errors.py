"""Exception types shared across the package, and the one reader of
config tables with its number policy: every number a config table holds is
read by :func:`check_value`, which refuses inf, NaN, an integer too large
for a float and an integer key outside the int64 range, so the CLI and the
library refuse the same inputs.

The refusal rule: a library module (``markov``, ``model``, ``network``,
``gibbs``, ``bounds``) rejects a value with a ValueError, or a GibbsNetError
that is also one, and never makes a ConfigError; the config layer
(``harness``, ``cli``) alone turns the ValueError a config's value raises
into a ConfigError labelled with its key.  A solver failure
(:class:`EigenFailure`) and a plain GibbsNetError, an allocation the
machine cannot hold, reject no value."""

import math

import numpy as np


class GibbsNetError(Exception):
    """Base class for all package-specific errors."""


class NonUniqueStationary(GibbsNetError, ValueError):
    """Eigenvalue 1 of the transition operator is numerically multiple."""


class ZeroStationaryMass(GibbsNetError, ValueError):
    """A stationary weight is too small to divide by."""


class EigenFailure(GibbsNetError):
    """The eigenvalue solver did not converge."""


class DimensionMismatch(GibbsNetError, ValueError):
    """Operands have incompatible shapes."""


class NotMixedWithinCap(GibbsNetError, ValueError):
    """No time below the cap brings every start state within tolerance."""


class UnvisitedState(GibbsNetError, ValueError):
    """A state never appears as a transition source in the trajectory."""


class ArchitectureTooLarge(GibbsNetError, ValueError):
    """Network does not fit inside the requested maximal architecture."""


class EmptyDataset(GibbsNetError, ValueError):
    """Operation requires at least one observation."""


class OutOfSupport(GibbsNetError, ValueError):
    """Parameter vector lies outside the prior support."""


class InvalidClass(GibbsNetError, ValueError):
    """Network class description is inconsistent."""


class NoDraws(GibbsNetError, ValueError):
    """Posterior sample is empty."""


class ThetaOutOfRange(GibbsNetError, ValueError):
    """MGF argument outside the admissible open interval."""


class LambdaOutOfRange(GibbsNetError, ValueError):
    """Temperature outside the admissible open interval."""


class ConfigError(GibbsNetError):
    """Experiment configuration is malformed."""


class MismatchedEffectiveSize(ConfigError):
    """Experiment pairs do not share a common effective sample size; the
    config alone decides it, so it is a config error."""


class TooFewPoints(ConfigError):
    """Not enough distinct grid points for a least-squares fit; the sweep CSV
    alone decides it, so it is a config error."""


INT64 = np.iinfo(np.int64)
REQUIRED = object()  # the schema default of a key a table must hold

# A schema maps each key of a config table to (kind, default).  A kind is
# "int", "number", "str", "table" or "any"; [kind] is a list of that kind,
# and a tuple of kinds is a list of exactly those kinds in order.
KIND_NAMES = {"int": "an integer", "number": "a number", "str": "a string",
              "table": "a table"}


def check_value(value, kind, where: str):
    """``value`` read as ``kind``, or ConfigError naming ``where``.

    The one number policy: an integer is a Python or numpy integer in the
    int64 range, numpy's index type, and reads as an int; a number is also
    a float and reads as a finite float, so inf, NaN and an integer too
    large for a float are refused; a bool or a string is never a number.
    A list is a list or a tuple and reads as a tuple.
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
        if not INT64.min <= value <= INT64.max:  # no repr, as for a number below
            raise ConfigError(f"{where} must be an integer in the int64 range "
                              "-2^63..2^63 - 1")
        return int(value)
    if kind == "number" and (integer or isinstance(value, (float, np.floating))):
        try:
            number = float(value)
        except OverflowError:  # no repr: a huge int may exceed str's digit limit
            raise ConfigError(f"{where} must be a finite number, got an integer too large "
                              "for a float") from None
        if not math.isfinite(number):
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return number
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
