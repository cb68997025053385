"""Typed reading of JSON documents: config files, ``--set`` overrides, checkpoints and manifests.

``check_value`` reads a JSON value against a type hint, or raises
InvalidConfig naming its dotted key. A dataclass hint takes an object with
exactly the dataclass's fields as keys (with a ``base`` instance, a key left
out keeps the base's value) and constructs it, so its own rules run, their
messages prefixed with its key. JSON reads ``Infinity`` and ``NaN`` as
numbers: ``check_finite`` and ``check_at_least`` are the range checks the
dataclasses run, each naming the field.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import types
import typing

from .errors import InvalidConfig

_ACCEPTS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def check_value(value, hint, key: str = "", base=None):
    """``value`` read as ``hint`` (lists become tuples where it says tuple); ``key`` "" is the document root."""
    if dataclasses.is_dataclass(hint):
        return _check_dataclass(value, hint, key, base)
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if isinstance(hint, types.UnionType):  # only `X | None` is used
        return None if value is None else check_value(value, args[0], key)
    if origin is dict:
        if not isinstance(value, dict):
            raise InvalidConfig(f"{key} is not a JSON object, got {value!r}")
        return {k: check_value(v, args[1], f"{key}.{k}") for k, v in value.items()}
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{key} must be a list, got {value!r}")
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InvalidConfig(f"{key} must have {len(args)} entries, got {value!r}")
        return origin(check_value(v, h, f"{key}[{i}]") for i, (v, h) in enumerate(zip(value, args)))
    accepted, name = _ACCEPTS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise InvalidConfig(f"{key} must be {name}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # JSON integers have no bound; floats overflow
        limit = sys.float_info.max
        raise InvalidConfig(f"{key} must be at most {limit:.4g} in magnitude, got {value.bit_length()} bits")
    return value


def _check_dataclass(value, cls, key: str, base):
    where = key or "the top level"
    if not isinstance(value, dict):
        raise InvalidConfig(f"{where} is not a JSON object, got {value!r}")
    hints = typing.get_type_hints(cls)  # the fields: no dataclass read here has a ClassVar
    unknown, missing = sorted(set(value) - set(hints)), [n for n in hints if n not in value and base is None]
    if unknown or missing:
        raise InvalidConfig(f"unknown keys at {where}: {unknown}" if unknown else f"missing keys at {where}: {missing}")
    given = {
        n: check_value(v, hints[n], f"{key}.{n}" if key else n, getattr(base, n, None)) for n, v in value.items()
    }
    try:
        return cls(**given) if base is None else dataclasses.replace(base, **given)
    except InvalidConfig as exc:
        if not key:
            raise
        raise InvalidConfig(f"{key}: {exc}") from None


def check_finite(owner, *names: str) -> None:
    """InvalidConfig naming the first of ``owner``'s fields ``names`` that is (or holds) NaN or infinity.

    A field may hold a number, a tuple of numbers or None (which passes).
    """
    for name in names:
        value = getattr(owner, name)
        values = value if isinstance(value, tuple) else (value,)
        if any(v is not None and not math.isfinite(v) for v in values):
            raise InvalidConfig(f"{name} must be finite, got {value}")


def check_at_least(owner, **lows) -> None:
    """InvalidConfig naming the first of ``owner``'s fields that is below its lower bound in ``lows``."""
    for name, low in lows.items():
        value = getattr(owner, name)
        if value < low:
            raise InvalidConfig(f"{name} must be >= {low}, got {value}")
