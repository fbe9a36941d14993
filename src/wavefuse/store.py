"""Model and report files: a report is JSON, a model a JSON header line and raw float64s."""

from __future__ import annotations

import itertools
import json
import math
import os
import typing
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .pipeline import EvaluationReport, PipelineModel
from .settings import field_types, typed

MODEL_FORMAT_VERSION = 4
# the longest header line, newline included, a model file may have (16 MiB)
_HEADER_LIMIT = 1 << 24


def _json_fields(value, arrays: list | None = None):
    """``value`` as a JSON document: a dataclass becomes its fields in order, a list is
    mapped, an enum becomes its value, and other values stay as they are.

    An array becomes its shape, and the array itself is appended to
    ``arrays``, in document order. A report holds no array.
    """
    if is_dataclass(value):
        return {f.name: _json_fields(getattr(value, f.name), arrays) for f in fields(value)}
    if isinstance(value, list):
        return [_json_fields(item, arrays) for item in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return list(value.shape)
    return value


def _shapes(kind, value, name: str):
    """The shape of each array in ``value``, a header's part of type ``kind``, in document order.

    Only the shapes are checked here; a part of another form is skipped, and
    ``_from_json`` rejects it.
    """
    if is_dataclass(kind) and isinstance(value, dict):
        hints = field_types(kind)
        for key in (f.name for f in fields(kind) if f.name in value):
            yield from _shapes(hints[key], value[key], f"{name}.{key}" if name else key)
    elif typing.get_origin(kind) is list and isinstance(value, list):
        for i, item in enumerate(value):
            yield from _shapes(typing.get_args(kind)[0], item, f"{name}[{i}]")
    elif kind is np.ndarray:
        if not isinstance(value, list) or not all(type(n) is int and n >= 0 for n in value):
            raise DataError(
                f"field {name}: shape must be a list of non-negative integers, got {value!r}")
        yield value


def _from_json(kind, value, name: str, arrays):
    """``value``, read from a model header, as a ``kind``: the inverse of ``_json_fields``.

    ``name`` is the value's path in the document, "" for the document itself,
    and each array is the next flat array of ``arrays`` in its stored shape.
    A dataclass's keys must be exactly its fields; each field is decoded by
    its type, then the dataclass is built, so its own checks run. Anything
    malformed is a DataError naming the field.
    """
    where = f"field {name}" if name else "the document"
    if is_dataclass(kind):
        keys = [f.name for f in fields(kind)]
        if not isinstance(value, dict) or set(value) != set(keys):
            raise DataError(f"{where} must be a JSON object with keys {', '.join(keys)}")
        hints = field_types(kind)
        decoded = {key: _from_json(hints[key], value[key], f"{name}.{key}" if name else key,
                                   arrays)
                   for key in keys}
        try:
            return kind(**decoded)
        except DataError as exc:
            raise DataError(f"{where}: {exc}" if name else str(exc)) from exc
    if kind is np.ndarray:
        try:
            return next(arrays).reshape(value)
        except ValueError as exc:  # a shape NumPy cannot make, such as one of 65 axes
            raise DataError(f"{where}: {exc}") from None
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise DataError(f"{where} must be a list, got {type(value).__name__}")
        return [_from_json(typing.get_args(kind)[0], item, f"{name}[{i}]", arrays)
                for i, item in enumerate(value)]
    return typed(where, kind, value)


def save_model(model: PipelineModel, path) -> None:
    """Write a model file: the header line, then each array's C-order ``<f8`` bytes.

    The header is ``format_version`` and then ``_json_fields(model)``, with
    each array as its shape. The arrays follow in that document's order, each
    written straight from its buffer; a model's arrays are all C-ordered, so
    none is copied.
    """
    arrays = []
    header = json.dumps({"format_version": MODEL_FORMAT_VERSION, **_json_fields(model, arrays)})
    if len(header) >= _HEADER_LIMIT:
        raise DataError(f"the model's header line would take {len(header) + 1} bytes, "
                        f"over the {_HEADER_LIMIT} a model file may hold")
    with Path(path).open("wb") as f:
        f.write(header.encode("ascii") + b"\n")
        for values in arrays:
            f.write(np.ascontiguousarray(values, "<f8").reshape(-1))


def load_model(path) -> PipelineModel:
    """Read a model file of format 4; anything malformed is a DataError naming the file.

    The header line is read under ``_HEADER_LIMIT``. The byte total of its
    arrays' shapes must equal what follows the line before anything more is
    allocated. The payload is then read into one buffer sized from the file,
    and each array is a view of its slice. Formats 1-3 are rejected: retrain
    to upgrade.
    """
    try:
        with Path(path).open("rb") as f:
            line = f.readline(_HEADER_LIMIT)
            if not line.endswith(b"\n"):
                raise DataError(
                    f"header line is over {_HEADER_LIMIT} bytes (a model file of format 3 or "
                    "older is one such line: retrain to upgrade)" if len(line) == _HEADER_LIMIT
                    else "has no header line: the file ends before a newline")
            try:
                doc = json.loads(line.decode())
            # ValueError: bad bytes, bad syntax or int's digit limit; RecursionError: deep nesting
            except (ValueError, RecursionError) as exc:
                raise DataError(f"header line is not valid JSON: {exc}") from None
            if not isinstance(doc, dict):
                raise DataError(f"header line must hold a JSON object, got {type(doc).__name__}")
            version = doc.pop("format_version", None)
            if type(version) is not int or version != MODEL_FORMAT_VERSION:
                old = type(version) is int and 1 <= version < MODEL_FORMAT_VERSION
                raise DataError(
                    f"unsupported model format version {version!r}, expected "
                    f"{MODEL_FORMAT_VERSION}" + ("; retrain to upgrade" if old else ""))
            counts = [math.prod(shape) for shape in _shapes(PipelineModel, doc, "")]
            need, size = 8 * sum(counts), os.fstat(f.fileno()).st_size - len(line)
            if need != size:
                raise DataError(f"the header's arrays take {need} bytes, but {size} follow "
                                "the header line")
            payload = bytearray(size)
            if f.readinto(payload) != size:
                raise DataError("the file changed while it was read")
        flat = np.frombuffer(payload, "<f8").astype(np.float64, copy=False)
        starts = list(itertools.accumulate(counts, initial=0))
        return _from_json(PipelineModel, doc, "", (flat[a:b] for a, b in zip(starts, starts[1:])))
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from exc


def save_report(report: EvaluationReport, path) -> None:
    Path(path).write_text(json.dumps(_json_fields(report), indent=2) + "\n")
