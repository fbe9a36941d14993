"""Model and report files, as JSON; a model's arrays keep their exact float64 bytes."""

from __future__ import annotations

import base64
import binascii
import json
import math
import typing
from dataclasses import fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import DataError
from .pipeline import EvaluationReport, PipelineModel
from .settings import field_types, typed

MODEL_FORMAT_VERSION = 3
# bytes a model file's base64 is written or read in at a time; whole 3-byte groups
_PIECE = 3 << 16


def _json_fields(value):
    """``value`` as a JSON document: a dataclass becomes its fields in order, a list is
    mapped, an enum becomes its value, and other values stay as they are.

    An array becomes its shape and the array itself as ``f64le``; ``save_model``
    writes the base64 of its C-order little-endian float64 bytes there, piece
    by piece (``_write_base64``). A report holds no array.
    """
    if is_dataclass(value):
        return {f.name: _json_fields(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_json_fields(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "f64le": value}
    return value


def _write_base64(f, values: np.ndarray) -> None:
    """Write the base64 of ``values``' C-order little-endian float64 bytes to a binary file.

    Every piece but the last covers whole 3-byte groups, so the pieces join
    to exactly one ``b64encode`` of the bytes. A model's arrays are all
    C-contiguous, so they are read through their own buffers, uncopied.
    """
    raw = memoryview(np.ascontiguousarray(values, dtype="<f8").reshape(-1)).cast("B")
    for start in range(0, len(raw), _PIECE):
        f.write(binascii.b2a_base64(raw[start : start + _PIECE], newline=False))


def _array(name: str, value) -> np.ndarray:
    """Decode one stored array, a ``{shape, f64le}`` object, piece by piece into its result.

    The buffer is sized from the text, never from the shape, so a shape that
    claims more than the text holds allocates nothing. Each piece is
    4-character aligned and only the text's last quantum may hold ``=``, so
    the pieces are valid exactly when the whole text is.
    """
    if not isinstance(value, dict) or set(value) != {"shape", "f64le"}:
        raise DataError(f"{name} must be a JSON object with keys shape, f64le")
    shape, text = value["shape"], value["f64le"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"{name}: shape must be a list of non-negative integers, got {shape!r}")
    if not isinstance(text, str):
        raise DataError(f"{name}: f64le must be a base64 string")
    if text.find("=", 0, len(text) - 4) != -1:  # a piece ending there would decode alone
        raise DataError(f"{name}: f64le is not valid base64: '=' before the last quantum")
    buf = bytearray(len(text) // 4 * 3)
    size, step = 0, _PIECE // 3 * 4
    for start in range(0, len(text), step):
        try:
            piece = base64.b64decode(text[start : start + step], validate=True)
        except ValueError as exc:
            raise DataError(f"{name}: f64le is not valid base64: {exc}") from None
        buf[size : size + len(piece)] = piece
        size += len(piece)
    if size != 8 * math.prod(shape):
        raise DataError(f"{name}: {size} bytes do not hold float64 shape {shape}")
    return np.frombuffer(buf, "<f8", size // 8).astype(np.float64, copy=False).reshape(shape)


def _from_json(kind, value, name: str):
    """``value``, read from a model file, as a ``kind``: the inverse of ``_json_fields``.

    ``name`` is the value's path in the document, "" for the document itself.
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
        decoded = {key: _from_json(hints[key], value[key], f"{name}.{key}" if name else key)
                   for key in keys}
        try:
            return kind(**decoded)
        except DataError as exc:
            raise DataError(f"{where}: {exc}" if name else str(exc)) from exc
    if kind is np.ndarray:
        return _array(where, value)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise DataError(f"{where} must be a list, got {type(value).__name__}")
        return [_from_json(typing.get_args(kind)[0], item, f"{name}[{i}]")
                for i, item in enumerate(value)]
    return typed(where, kind, value)


def save_model(model: PipelineModel, path) -> None:
    """Persist a model as one JSON document: ``format_version``, then ``_json_fields(model)``.

    Arrays are stored as exact float64 bytes. The document goes to the file as
    ``json`` encodes it, and each array's base64 is written in pieces straight
    from the array's buffer, so neither the file's text nor a second copy of
    an array is ever held.
    """
    doc = {"format_version": MODEL_FORMAT_VERSION, **_json_fields(model)}
    # json.dump's chunks, except for the arrays: the encoder calls ``default``
    # on reaching one and next yields the encoding of what it returned, so
    # that chunk is the array's place, whatever text the labels hold
    arrays = []

    def default(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return ""

    with Path(path).open("wb") as f:
        for chunk in json.JSONEncoder(default=default).iterencode(doc):
            if arrays:
                f.write(b'"')
                _write_base64(f, arrays.pop())
                f.write(b'"')
            else:
                f.write(chunk.encode("ascii"))
        f.write(b"\n")


def load_model(path) -> PipelineModel:
    """Read a model file of format 3; anything malformed is a DataError naming the file.

    Parsing holds the file's text and the parsed document, about twice the
    file's size; each array is then decoded piece by piece into the array it
    becomes. Formats 1 and 2 are rejected: retrain to upgrade.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: bad bytes, bad syntax or int's digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise DataError(f"must hold a JSON object, got {type(doc).__name__}")
        version = doc.pop("format_version", None)
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise DataError(
                f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
            )
        return _from_json(PipelineModel, doc, "")
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from exc


def save_report(report: EvaluationReport, path) -> None:
    Path(path).write_text(json.dumps(_json_fields(report), indent=2) + "\n")
