"""Grayscale image I/O and geometry helpers.

Images are plain 2D float64 numpy arrays, scaled to [0, 1] on load. The only
file format is PGM (P2 ASCII and P5 binary for reading, P5 for writing), which
keeps the numeric core free of image-decoding dependencies. Convert other
formats externally, e.g. ``convert face.png face.pgm`` (ImageMagick) or
``pnmtopnm``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import DataError, PgmError

_WHITESPACE = b" \t\r\n\v\f"
MAX_MAXVAL = 65535
# A run of separators (whitespace, or '#' through the end of its line), then a
# token; the token group is empty only where the data ends.
_TOKEN = re.compile(rb"(?:[%s]+|#[^\n]*\n?)*([^%s#]*)" % ((re.escape(_WHITESPACE),) * 2))


def _next_token(data: bytes, pos: int, part: str = "header") -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise PgmError(f"unexpected end of {part}", match.start(1))
    return match[1], match.end()


def _next_int(data: bytes, pos: int, what: str, part: str = "header") -> tuple[int, int]:
    tok, end = _next_token(data, pos, part)
    start = end - len(tok)  # the offset of the token, not of the separators before it
    if not tok.isdigit():
        raise PgmError(f"malformed {part}: expected {what}, got {tok!r}", start)
    try:
        return int(tok), end
    except ValueError:  # more digits than int() converts
        raise PgmError(f"malformed {part}: {what} has {len(tok)} digits", start) from None


def load_image(path) -> np.ndarray:
    """Read a PGM file (P2 or P5) into a float64 array scaled to [0, 1].

    Raises FileNotFoundError for missing files and PgmError for unsupported
    magic numbers, malformed headers, or truncated pixel data. A PgmError's
    message starts with the file's path and ends with the byte offset where
    parsing failed, where detectable.
    """
    data = Path(path).read_bytes()
    try:
        return _decode(data)
    except DataError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _decode(data: bytes) -> np.ndarray:
    magic, pos = _next_token(data, 0) if data else (b"", 0)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic number {magic!r} (only P2/P5 grayscale PGM)", 0)
    cols, pos = _next_int(data, pos, "width")
    rows, pos = _next_int(data, pos, "height")
    maxval, pos = _next_int(data, pos, "maxval")
    if rows < 1 or cols < 1:
        raise PgmError(f"malformed header: bad dimensions {rows}x{cols}", pos)
    if not 1 <= maxval <= MAX_MAXVAL:
        raise PgmError(f"malformed header: maxval {maxval} outside 1..{MAX_MAXVAL}", pos)

    count = rows * cols
    if magic == b"P5":
        # Exactly one separator byte between maxval and the raster.
        if pos >= len(data) or data[pos] not in _WHITESPACE:
            raise PgmError("malformed header: missing separator before raster", pos)
        pos += 1
        width = 2 if maxval > 255 else 1
        raster = memoryview(data)[pos : pos + count * width]
        if len(raster) < count * width:
            raise PgmError(
                f"truncated pixel data: expected {count * width} bytes, got {len(raster)}",
                pos + len(raster),
            )
        dtype = ">u2" if maxval > 255 else np.uint8
        samples = np.frombuffer(raster, dtype=dtype, count=count).astype(np.float64)
        if samples.max() > maxval:
            first = int(np.argmax(samples > maxval))
            raise PgmError(f"pixel value exceeds maxval {maxval}", pos + first * width)
    else:
        # each pixel takes a digit and the separator before it; check before allocating
        if 2 * count > len(data) - pos:
            raise PgmError(
                f"truncated pixel data: {count} pixels need at least {2 * count} bytes, "
                f"got {len(data) - pos}",
                len(data),
            )
        values = np.empty(count, dtype=np.float64)
        for i in range(count):
            val, end = _next_int(data, pos, f"pixel {i}", "pixel data")
            if val > maxval:  # also keeps a huge value from overflowing the float
                start = _TOKEN.match(data, pos).start(1)
                raise PgmError(f"pixel value exceeds maxval {maxval}", start)
            values[i], pos = val, end
        samples = values
    samples /= float(maxval)
    return samples.reshape(rows, cols)


def save_image(img: np.ndarray, path) -> None:
    """Write a P5 binary PGM with maxval 255.

    Pixels are clamped to [0, 1] and rounded half-up to the nearest of the
    256 gray levels, so a reload differs from the clamped input by at most
    1/510 per pixel.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise DataError(f"expected a non-empty 2D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise DataError("image contains non-finite pixels")
    rows, cols = img.shape
    # one float buffer, scaled and rounded in place
    levels = np.clip(img, 0.0, 1.0)
    levels *= 255.0
    levels += 0.5
    np.floor(levels, out=levels)
    with open(path, "wb") as f:
        f.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        f.write(levels.astype(np.uint8, order="C"))


def pad_to_block(img: np.ndarray, block: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Pad by edge replication so both dims are multiples of ``block``.

    Returns the padded image and the original (rows, cols) for a later crop.
    """
    if block < 1:
        raise DataError(f"block must be >= 1, got {block}")
    img = np.asarray(img, dtype=np.float64)
    rows, cols = img.shape
    pad_r = (-rows) % block
    pad_c = (-cols) % block
    if pad_r == 0 and pad_c == 0:
        return img, (rows, cols)
    return np.pad(img, ((0, pad_r), (0, pad_c)), mode="edge"), (rows, cols)


def crop(img: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Top-left submatrix of the given (rows, cols)."""
    rows, cols = dims
    if rows > img.shape[0] or cols > img.shape[1]:
        raise DataError(f"crop dims {dims} exceed image shape {img.shape}")
    return np.ascontiguousarray(img[:rows, :cols])
