"""Exception types shared across the toolkit, the check that turns a
config document of the wrong shape into a ``ConfigError``, and the check
that a config's sizes shape arrays numpy can address."""

import json
import math
import reprlib
from dataclasses import fields

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class NumericError(ArithmeticError):
    """A forward or backward pass produced NaN or Inf."""


class ContractError(ValueError):
    """An API precondition was violated by the caller."""


class ConfigError(ValueError):
    """A configuration value is invalid or inconsistent."""


class DomainError(ValueError):
    """A numeric argument lies outside the function's domain."""


class FormatError(ValueError):
    """A file or document does not match its expected format."""


class CheckpointError(FormatError):
    """A checkpoint document is unreadable or version-incompatible."""


class FitError(ValueError):
    """A model fit could not be performed on the given data."""


def _same_type(value, default) -> bool:
    if default is None:  # optional file paths
        return value is None or isinstance(value, str)
    if isinstance(default, bool) or isinstance(value, bool):
        return isinstance(default, bool) and isinstance(value, bool)
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_same_type(v, default[0]) for v in value)
    if isinstance(default, float) and isinstance(value, int):
        try:  # an integer is a float value if a float can hold it
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, type(default))


def check_config(name: str, raw, defaults) -> dict:
    """Return ``raw`` once it is a JSON object whose keys are those of
    ``defaults`` (a dict, or a dataclass's field defaults) and whose
    values have their defaults' JSON types."""
    if not isinstance(defaults, dict):
        defaults = {f.name: f.default for f in fields(defaults)}
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} config must be a JSON object, got {reprlib.repr(raw)}")
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    for key, value in raw.items():
        if not _same_type(value, defaults[key]):
            raise ConfigError(f"{name} config value {key} = {reprlib.repr(value)} does not "
                              f"have the type of its default {json.dumps(defaults[key])}")
    return raw


def check_addressable(config: str, names: str, *shape: int) -> None:
    """Raise a ConfigError naming the ``config`` sizes ``names`` when an
    array of ``shape`` float64 values, which those sizes set, holds more
    bytes than numpy can address (``np.intp``)."""
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise ConfigError(f"{config} {names} too large: an array of shape {list(shape)} "
                          "holds more bytes than numpy can address")
