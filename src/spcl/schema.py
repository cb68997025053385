"""Type check of one JSON value against the type of the dataclass field it sets.

Config files, ``--set`` overrides and checkpoint metadata are JSON, so a
value can arrive with the wrong type. ``check_value`` accepts what the
field's annotation allows and turns JSON lists into tuples; anything else is
an InvalidConfig that names the dotted key. JSON also reads ``Infinity`` and
``NaN`` as numbers; ``check_finite`` is the range check the config classes
run on their float fields.
"""

from __future__ import annotations

import math
import types
import typing

from .errors import InvalidConfig

_ACCEPTS = {
    bool: (bool, "true or false"),
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
}


def check_value(value, hint, key: str):
    """``value`` if it fits the type ``hint`` (lists become tuples), else InvalidConfig naming ``key``."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # only `X | None` is used
        return None if value is None else check_value(value, args[0], key)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise InvalidConfig(f"{key} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise InvalidConfig(f"{key} must have {len(args)} entries, got {value!r}")
        return tuple(check_value(v, h, f"{key}[{i}]") for i, (v, h) in enumerate(zip(value, args)))
    accepted, name = _ACCEPTS[hint]
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise InvalidConfig(f"{key} must be {name}, got {value!r}")
    return value


def check_finite(owner, *names: str) -> None:
    """InvalidConfig naming the first of ``owner``'s fields ``names`` that is NaN or infinite (None passes)."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not math.isfinite(value):
            raise InvalidConfig(f"{name} must be finite, got {value}")
