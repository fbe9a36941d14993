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
  orthogonal, its exact inverse. It needs no operator of its own: A_n's CSR
  arrays, read by scipy's CSC kernel, are A_n.T.
- A level of at least 2^17 coefficients runs on two threads when the process
  may use two CPUs, in either direction. Part k of an r x c block copies
  column half k, multiplies it down the columns, transposes its rows [:r/2]
  and [r/2:] into the top and bottom c x r/2 halves of a spare buffer,
  multiplies half k along the rows and transposes it into row half k of the
  block; a barrier separates the copy, the first product and the second.
  scipy's kernels sum each output element in the same order whatever the
  number of columns they are given, so every bit equals one thread's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import queue
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

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
def _operator(kind: WaveletKind, n: int) -> sparse.csr_matrix:
    """The n x n analysis operator A_n.

    Row i < n/2 of A_n is lo_d, row n/2 + i hi_d, both with their taps at
    columns (2i - k) mod n. The matrix is built from COO triplets with
    duplicates summed, so taps that wrap onto the same column (db2 at n = 2)
    add up as circular convolution says.
    """
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


def _product(kernel, a: sparse.csr_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``a @ x`` (CSR kernel) or ``a.T @ x`` (CSC kernel) into ``out``.

    ``kernel`` is scipy's ``csr_matvecs`` or ``csc_matvecs``, which add the
    product into a zeroed result. ``a.T`` is a CSC matrix on ``a``'s own
    arrays, so ``a @ x`` and ``a.T @ x`` end in these same calls, bit for bit.
    Called directly, a kernel skips the dispatch and the fresh result, which
    cost more than the product on small blocks: an n x n product with n <= 16
    took 3.8-4.4 us through ``@``, 1.5-2.0 us here.
    """
    # the kernel reads and writes through raw pointers with no bounds of its own
    if a.shape != (out.shape[0], x.shape[0]) or out.shape[1] != x.shape[1]:
        raise ValueError(f"product dims: {a.shape} @ {x.shape} into {out.shape}")
    out.fill(0.0)
    kernel(*a.shape, x.shape[1], a.indptr, a.indices, a.data, x, out)
    return out


# A level or a selection of at least this many coefficients runs on two threads.
# Below it the arrays of a level fit one core's 2 MB L2, and a split moves them
# between cores. Median db2 fuse on a 2-core Xeon, split at 2^16, split at 2^17
# and on one thread: 240x320 4.30, 3.90, 3.77 ms; 288x288 4.55, 4.15, 4.04 ms;
# 384x384 6.24, 6.39, 7.57 ms; 509x509 12.04, 11.98, 16.12 ms.
_SPLIT_MIN = 1 << 17


def _two_cpus() -> bool:
    """Whether the process may run on two CPUs, so that work may split across two threads.

    Pinned to one, a 509x509 fuse split across two threads took 12.6 ms
    against 11.9 ms on one.
    """
    affinity = getattr(os, "sched_getaffinity", None)  # missing on macOS
    return (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2


def _two_threads(size: int) -> bool:
    """Whether work on ``size`` coefficients splits across two threads."""
    return size >= _SPLIT_MIN and _two_cpus()


@functools.cache
def _worker() -> queue.SimpleQueue:
    """The job queue of the one thread that runs part 1 of every split.

    The thread starts on first use. A bare queue hands a job over in about
    13 us, a ThreadPoolExecutor's future in about 40 us.
    """
    jobs = queue.SimpleQueue()

    def serve() -> None:
        while True:
            jobs.get()()

    threading.Thread(target=serve, name="wavefuse-split", daemon=True).start()
    return jobs


if hasattr(os, "register_at_fork"):
    # a forked child holds only the thread that forked, so it starts its own worker
    os.register_at_fork(after_in_child=_worker.cache_clear)


def _on_two_threads(part) -> None:
    """Run ``part(0, wait)`` on this thread and ``part(1, wait)`` on the worker.

    ``wait`` is a barrier the two parts pass together between phases. A
    part that fails, KeyboardInterrupt included, aborts it, so the other
    stops at its next ``wait`` instead of hanging there. Both parts are
    joined before the failure is raised, never the other part's
    BrokenBarrierError. The worker must call nothing that is traced or
    cached, and allocate no image-sized array: its allocations land in an
    arena of its own, which the CLI's allocator settings keep mapped. A
    fuse's part runs only kernels and copies on what this thread looked up;
    a synth part draws noise and writes files, and makes only per-file
    temporaries smaller than an image (the ``isfinite`` mask and the uint8
    raster).
    """
    barrier, joined = threading.Barrier(2), threading.Lock()
    errors: list[BaseException | None] = [None, None]

    def run(k: int) -> None:
        try:
            part(k, barrier.wait)
        except BaseException as error:  # recorded, and raised once both parts stopped
            errors[k] = error
            barrier.abort()

    def run_worker_part() -> None:
        run(1)
        joined.release()

    joined.acquire()
    try:
        _worker().put(run_worker_part)
        run(0)
        joined.acquire()
    except BaseException:  # an interrupt outside run: never leave part 1 waiting
        barrier.abort()
        raise
    failed = [error for error in errors if error is not None]
    if failed:
        # a part stopped by the other's abort holds a BrokenBarrierError, never the cause
        raise min(failed, key=lambda error: isinstance(error, threading.BrokenBarrierError))


def _half_level(kernel, a_r, a_c, block, first, second, spare, k: int, wait) -> None:
    """Part ``k`` of one level on two threads (see the module docstring).

    Part k owns half k of ``first`` and ``second``, rows half k of each
    c x r/2 half of ``spare`` and, at the end, row half k of ``block``.
    ``spare`` is free once both copies are done: the tree itself at the first
    level, the rest of ``first`` below it.
    """
    r, c = block.shape
    half = r * c // 2
    mine, cols = slice(k * half, (k + 1) * half), slice(k * c // 2, (k + 1) * c // 2)
    x = first[mine].reshape(r, c // 2)
    x[...] = block[:, cols]
    wait()
    product = _product(kernel, a_r, x, second[mine].reshape(r, c // 2))
    top, bottom = spare[:half].reshape(c, r // 2), spare[half : 2 * half].reshape(c, r // 2)
    _transpose_into(product[: r // 2], top[cols])
    _transpose_into(product[r // 2 :], bottom[cols])
    wait()
    product = _product(kernel, a_c, (top, bottom)[k], second[mine].reshape(c, r // 2))
    _transpose_into(product, block[k * r // 2 : (k + 1) * r // 2])


def _sweep(coeffs: np.ndarray, kind: WaveletKind, levels: int, synthesis: bool) -> None:
    """Transform the level blocks of a Mallat-layout array in place.

    Analysis maps each block X to A_r @ X @ A_c.T, finest level first;
    synthesis maps it to A_r.T @ X @ A_c, coarsest level first. Each level
    runs two sparse @ dense products (scipy's dense @ sparse path is several
    times slower on small blocks) through :func:`_product`, with every
    intermediate in one of two scratch buffers of the whole array's size.
    A large level runs as two halves (:func:`_half_level`) in those buffers.
    """
    # a split first level takes the array's own memory as its spare buffer
    if not coeffs.flags.c_contiguous:
        raise ValueError("the sweep transforms a C-ordered array")
    rows, cols = coeffs.shape
    kernel = _sparsetools.csc_matvecs if synthesis else _sparsetools.csr_matvecs
    first, second = np.empty(coeffs.size), np.empty(coeffs.size)
    for level in reversed(range(levels)) if synthesis else range(levels):
        r, c = rows >> level, cols >> level
        a_r, a_c = _operator(kind, r), _operator(kind, c)
        block, x = coeffs[:r, :c], second[: r * c].reshape(r, c)
        if _two_threads(r * c):
            spare = coeffs.reshape(-1) if level == 0 else first[r * c :]
            _on_two_threads(functools.partial(
                _half_level, kernel, a_r, a_c, block, first, second, spare))
            continue
        # Below the first level a block is a strided view, which the kernel would
        # copy into a new array; copied into a buffer, it adds no memory.
        if block.flags.c_contiguous:
            x = block
        else:
            x[...] = block
        product = _product(kernel, a_r, x, first[: r * c].reshape(r, c))
        transposed = _transpose_into(product, second[: r * c].reshape(c, r))
        _transpose_into(_product(kernel, a_c, transposed, first[: r * c].reshape(c, r)), block)


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
    # the transform runs in place, so never on the caller's array, and on C
    # order, which np.pad keeps from a Fortran-ordered image
    coeffs = padded.copy() if padded is img else np.ascontiguousarray(padded)
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
