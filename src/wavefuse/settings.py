"""The one typing rule of every config: each field is checked and normalised by its type."""

from __future__ import annotations

import functools
import math
import numbers
import typing

import numpy as np

from .errors import DataError

AUTO = "auto"


@functools.cache
def field_types(cls) -> dict:
    """Each field of dataclass ``cls`` and its type, evaluated once per class."""
    return typing.get_type_hints(cls)


def typed_fields(config) -> None:
    """Replace each field of a frozen dataclass with ``typed``'s value for it."""
    for name, kind in field_types(type(config)).items():
        object.__setattr__(config, name, typed(name, kind, getattr(config, name)))


def typed(name: str, kind, value):
    """``value`` as field ``name`` of type ``kind``, else a DataError naming the field.

    ``kind`` is int, float, str, ``tuple[int, ...]``, an Enum, or ``int | str``:
    an integer or "auto" in any case. Numbers are never parsed or truncated:
    ``"3"``, ``true`` and ``2.5`` are no integer, and NaN and infinity are no
    number, nor is an integer beyond float range a float.
    """
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise DataError(f"{name} must be a list of integers, got {value!r}")
        return tuple(typed(f"{name}[{i}]", int, v) for i, v in enumerate(value))
    if kind == int | str:
        if isinstance(value, str) and value.lower() != AUTO:
            raise DataError(f"{name} must be an integer or '{AUTO}', got {value!r}")
        return AUTO if isinstance(value, str) else typed(name, int, value)
    if kind is str and not isinstance(value, str):
        raise DataError(f"{name} must be a string, got {value!r}")
    if kind in (int, float):
        what = "a number" if kind is float else "an integer"
        number = numbers.Real if kind is float else numbers.Integral
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise DataError(f"{name} must be finite, got {str(value).replace('inf', 'infinity')}")
        if isinstance(value, bool) or not isinstance(value, number):
            raise DataError(f"{name} must be {what}, got {value!r}")
    try:
        return kind(value)  # a number, a str as it is, or an Enum member
    except OverflowError:
        raise DataError(f"{name} must be finite, got an integer beyond float range") from None
    except (TypeError, ValueError):
        raise DataError(f"{name} must be one of {[m.value for m in kind]}, got {value!r}") from None
