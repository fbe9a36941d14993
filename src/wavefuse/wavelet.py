"""Orthogonal 2D discrete wavelet transform (Haar and Daubechies db2).

Conventions, fixed so results are bit-reproducible:

- Boundary handling is periodic (circular) extension, the only mode that
  keeps the transform exactly orthogonal; perfect reconstruction and energy
  conservation then hold to rounding error rather than approximately.
- 1D analysis is circular convolution followed by downsampling that keeps
  even output indices: y[n] = sum_k h[k] * x[(2n - k) mod N]. On a length-n
  axis both filters together form one n x n orthogonal operator A_n, the
  low-pass rows over the high-pass rows.
- 2D analysis of an r x c block X is A_r @ X @ A_c.T. Its top-left quarter
  holds cA (lo, lo), the top-right cV (lo down the columns, hi along the
  rows), the bottom-left cH (hi down the columns, lo along the rows; it
  carries horizontal-edge detail) and the bottom-right cD (hi, hi).
- A tree is one padded R x C array in Mallat's layout (Mallat 1989, "A
  theory for multiresolution signal decomposition"): level l transforms the
  top-left (R >> l-1, C >> l-1) block in place, so every band is a view.
- Synthesis is A_r.T @ Y @ A_c, the transpose of analysis and, since A_n is
  orthogonal, its exact inverse.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import DataError
from .imgio import crop, pad_to_block


class WaveletKind(str, Enum):
    HAAR = "haar"
    DB2 = "db2"


@dataclass(frozen=True)
class FilterBank:
    """Decomposition filter pair of an orthogonal wavelet."""

    lo_d: np.ndarray
    hi_d: np.ndarray

    @property
    def length(self) -> int:
        return self.lo_d.size


_SQRT3 = math.sqrt(3.0)
_HAAR_LO = np.array([1.0, 1.0]) / math.sqrt(2.0)
_DB2_LO = np.array([1.0 + _SQRT3, 3.0 + _SQRT3, 3.0 - _SQRT3, 1.0 - _SQRT3]) / (
    4.0 * math.sqrt(2.0)
)


def filter_bank(kind: WaveletKind) -> FilterBank:
    """Return the filter bank for a wavelet kind.

    The high-pass is the quadrature mirror of the low-pass,
    hi_d[k] = (-1)^k * lo_d[L-1-k].
    """
    kind = WaveletKind(kind)
    lo_d = _HAAR_LO if kind is WaveletKind.HAAR else _DB2_LO
    n = lo_d.size
    signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return FilterBank(lo_d=lo_d, hi_d=signs * lo_d[::-1])


@functools.lru_cache(maxsize=128)
def _operator(kind: WaveletKind, n: int, synthesis: bool = False) -> sparse.csr_matrix:
    """The n x n analysis operator A_n, or with ``synthesis`` its transpose A_n.T.

    Row i < n/2 of A_n is lo_d, row n/2 + i hi_d, both with their taps at
    columns (2i - k) mod n. The matrix is built from COO triplets with
    duplicates summed, so taps that wrap onto the same column (db2 at n = 2)
    add up as circular convolution says. A_n.T is cached as CSR too, so
    synthesis runs the same product as analysis: building ``.T`` on every
    call cost about 27 us per operator, more than the product on small blocks.
    """
    if synthesis:
        return _operator(kind, n).T.tocsr()
    fb = filter_bank(kind)
    half = n // 2
    out = np.repeat(np.arange(half), fb.length)
    cols = (2 * out - np.tile(np.arange(fb.length), half)) % n
    values = np.concatenate([np.tile(fb.lo_d, half), np.tile(fb.hi_d, half)])
    rows = np.concatenate([out, out + half])
    return sparse.csr_matrix((values, (rows, np.tile(cols, 2))), shape=(n, n))


# A transpose walks one side down its columns. numpy's plain transpose of a
# 512 x 512 block takes 1.0-1.2 ms, 5x a straight copy, as the lines of that
# walk share cache sets (11 ms at 1024 x 1024). Copying 64 rows at a time
# keeps a walk's lines in cache: 0.5-0.6 ms at 512 x 512. A block of at most
# 64 rows is one panel, copied without the loop, whose slicing cost 8 % of a
# 64 x 64 fuse.
_PANEL_ROWS = 64


def _transpose_into(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Write ``src.T`` into ``dst`` and return ``dst``; a copy, so exact."""
    if src.shape[0] <= _PANEL_ROWS:
        dst[...] = src.T
        return dst
    for i in range(0, src.shape[0], _PANEL_ROWS):
        dst[:, i : i + _PANEL_ROWS] = src[i : i + _PANEL_ROWS].T
    return dst


def _sweep(coeffs: np.ndarray, kind: WaveletKind, levels: int, synthesis: bool) -> None:
    """Transform the level blocks of a Mallat-layout array in place.

    Analysis maps each block X to A_r @ X @ A_c.T, finest level first;
    synthesis maps it to A_r.T @ X @ A_c, coarsest level first.
    """
    rows, cols = coeffs.shape
    for level in reversed(range(levels)) if synthesis else range(levels):
        block = coeffs[: rows >> level, : cols >> level]
        a_r, a_c = (_operator(kind, n, synthesis) for n in block.shape)
        # Two sparse @ dense products, as scipy's dense @ sparse path is several
        # times slower on small blocks. Transposing into a fresh C-order array
        # frees the first product before the second runs, where scipy's own
        # copy of a transposed operand would keep three block-sized arrays alive.
        # No name keeps the transposed product alive into the next level's products.
        _transpose_into(a_c @ _transpose_into(a_r @ block, np.empty(block.shape[::-1])), block)


@dataclass
class DecompositionTree:
    """Multi-level decomposition: one padded coefficient array in Mallat layout.

    ``details[0]`` is the finest level's (level 1) ``(cH, cV, cD)``,
    ``details[-1]`` the coarsest's (level L); they and ``deepest_approx`` are
    views into ``coeffs``. ``original_dims`` are the image dims before padding, used by
    :func:`reconstruct` to crop the synthesized image.
    """

    wavelet: WaveletKind
    coeffs: np.ndarray
    levels: int
    original_dims: tuple[int, int]

    def __post_init__(self):
        # float64 throughout: the transforms overwrite blocks in place
        self.coeffs = np.asarray(self.coeffs, dtype=np.float64)
        shape = self.coeffs.shape
        if (
            self.coeffs.ndim != 2
            or self.levels < 1
            # a dim divisible by 2^levels is at least 2^levels; 2^levels is not built first
            or self.levels >= min(shape).bit_length()
            or shape[0] % 2**self.levels
            or shape[1] % 2**self.levels
            or self.original_dims[0] > shape[0]
            or self.original_dims[1] > shape[1]
        ):
            raise DataError(
                f"inconsistent tree: coefficient dims {shape} must be 2-D, divisible "
                f"by 2^{self.levels} and hold the original dims {self.original_dims}"
            )

    @property
    def deepest_approx(self) -> np.ndarray:
        rows, cols = self.coeffs.shape
        return self.coeffs[: rows >> self.levels, : cols >> self.levels]

    @property
    def details(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        a, out = self.coeffs, []
        for level in range(1, self.levels + 1):
            r, c = a.shape[0] >> level, a.shape[1] >> level
            # cH bottom left, cV top right, cD bottom right of the level's block
            out.append((a[r : 2 * r, :c], a[:r, c : 2 * c], a[r : 2 * r, c : 2 * c]))
        return out


def decompose(
    img: np.ndarray, kind: WaveletKind, levels: int, pad: bool = True
) -> DecompositionTree:
    """Analyse successive top-left blocks in place down to ``levels``.

    With ``pad=True`` (default) the image is first padded by edge
    replication so its dims divide 2^levels; the pre-padding dims are
    recorded so reconstruction can crop back. With ``pad=False`` the dims
    must already be divisible. The 2^levels block may be at most 4x the
    larger image dim, so padding never takes a dim past 4x the larger one.
    """
    if levels < 1:
        raise DataError(f"levels must be >= 1, got {levels}")
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise DataError(f"expected a non-empty 2D image, got shape {img.shape}")
    # 2^levels <= 4m exactly when levels < bit_length(4m); 2^levels itself is never built
    if levels >= (4 * max(img.shape)).bit_length():
        raise DataError(
            f"levels {levels} too deep for a {img.shape[0]}x{img.shape[1]} image: "
            f"2^levels may be at most 4x the larger dim, {4 * max(img.shape)}"
        )
    if not np.isfinite(img).all():
        raise DataError("non-finite entries in image")
    padded, original_dims = pad_to_block(img, 2**levels) if pad else (img, img.shape)
    # the transform runs in place, so never on the caller's array
    coeffs = padded.copy() if padded is img else padded
    tree = DecompositionTree(WaveletKind(kind), coeffs, levels, original_dims)
    _sweep(tree.coeffs, tree.wavelet, levels, synthesis=False)
    return tree


def reconstruct(tree: DecompositionTree) -> np.ndarray:
    """Invert :func:`decompose`: synthesize level by level, crop to original dims."""
    coeffs = tree.coeffs.copy()
    _sweep(coeffs, tree.wavelet, tree.levels, synthesis=True)
    return crop(coeffs, tree.original_dims)


def export_tree(tree: DecompositionTree, out_dir) -> Path:
    """Write a tree as ``tree.json`` plus per-subband little-endian f64 files.

    Files are named ``L<level>_<cA|cH|cV|cD>.f64`` (row-major); cA exists
    only at the deepest level.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta = {
        "levels": tree.levels,
        "wavelet": tree.wavelet.value,
        "original_dims": list(tree.original_dims),
        "subbands": {},
    }

    def _write(name: str, grid: np.ndarray):
        (out / f"{name}.f64").write_bytes(np.ascontiguousarray(grid, dtype="<f8").tobytes())
        meta["subbands"][name] = list(grid.shape)

    _write(f"L{tree.levels}_cA", tree.deepest_approx)
    for level, det in enumerate(tree.details, start=1):
        for sub, grid in zip(("cH", "cV", "cD"), det):
            _write(f"L{level}_{sub}", grid)
    (out / "tree.json").write_text(json.dumps(meta, indent=2) + "\n")
    return out
