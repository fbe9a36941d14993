"""Coefficient-level fusion of two wavelet decompositions.

Two same-shape decompositions are merged coefficient by coefficient with a
selection rule, then the merged tree is synthesized back into an image. The
default policy keeps the larger-magnitude approximation coefficient and the
smaller-magnitude detail coefficient; where magnitudes tie, the first
(thermal) input wins.

Selection is branch-free: a finite float64 with its sign bit cleared is an int64
ordered like its magnitude, so ``(|b| - |a|) >> 63`` (``|a| - |b|`` for maxabs)
is all ones where b wins, and ``a ^ ((a ^ b) & mask)`` is one input bit for bit.
NaN sorts above infinity, so these rules raise DataError on non-finite input.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import DataError
from .settings import typed_fields
from .wavelet import (
    DecompositionTree,
    WaveletKind,
    _on_two_threads,
    _two_threads,
    decompose,
    reconstruct,
)


class FusionRule(str, Enum):
    MAX_ABS = "maxabs"
    MIN_ABS = "minabs"
    AVERAGE = "average"


@dataclass(frozen=True)
class FusionPolicy:
    """Which rule applies to the approximation grid and which to detail grids."""

    approx_rule: FusionRule = FusionRule.MAX_ABS
    detail_rule: FusionRule = FusionRule.MIN_ABS

    __post_init__ = typed_fields


# every bit of a float64 but its sign; and infinity's bits, which every NaN's exceed
_MAGNITUDE, _INFINITY = np.int64(0x7FFF_FFFF_FFFF_FFFF), 0x7FF0_0000_0000_0000


def fuse_coeffs(a: np.ndarray, b: np.ndarray, rule: FusionRule) -> np.ndarray:
    """Fuse two equal-shape coefficient grids element by element into a new array."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError(f"coefficient grid dims differ: {a.shape} vs {b.shape}")
    rule = FusionRule(rule)
    if rule is FusionRule.AVERAGE:
        return (a + b) / 2.0
    return _select(a, b, rule)


def _select(
    a: np.ndarray, b: np.ndarray, rule: FusionRule, opposite: tuple[int, int] | None = None
) -> np.ndarray:
    """Select from two equal-shape float64 grids by ``rule``, maxabs or minabs.

    Inside the top-left ``opposite`` dims the other rule selects: the two
    differ only in the sign of the magnitude difference, which negates exactly.
    That block lies in the first half of a tree's rows, so when the two flat
    halves run on two threads, part 0 negates it.
    """
    x, y = a.reshape(-1).view(np.int64), b.reshape(-1).view(np.int64)
    m, k = np.empty_like(x), np.empty_like(x)
    peaks = [0, 0]

    def select(part: int, xs, ys, ms, ks) -> None:
        np.bitwise_and(xs, _MAGNITUDE, out=ms)
        np.bitwise_and(ys, _MAGNITUDE, out=ks)
        peaks[part] = max(ms.max(initial=0), ks.max(initial=0))
        np.subtract(ms, ks, out=ks) if rule is FusionRule.MAX_ABS else np.subtract(ks, ms, out=ks)
        if opposite and part == 0:
            block = k.reshape(a.shape)[: opposite[0], : opposite[1]]
            np.negative(block, out=block)
        ks >>= 63
        np.bitwise_xor(xs, ys, out=ms)
        ms &= ks
        np.bitwise_xor(xs, ms, out=ms)

    if _two_threads(x.size):
        h = x.size // 2
        halves = (x[:h], y[:h], m[:h], k[:h]), (x[h:], y[h:], m[h:], k[h:])
        _on_two_threads(lambda part, wait: select(part, *halves[part]))
    else:
        select(0, x, y, m, k)
    if max(peaks) >= _INFINITY:
        raise DataError("non-finite coefficients")
    return m.view(np.float64).reshape(a.shape)


def fuse_trees(
    t: DecompositionTree, v: DecompositionTree, policy: FusionPolicy | None = None
) -> DecompositionTree:
    """Fuse two decompositions of identical wavelet, depth, and grid dims.

    The detail rule fuses every coefficient outside the deepest approximation
    block and the approximation rule those inside it; two selection rules
    (maxabs, minabs) take one pass over the whole array.
    """
    policy = policy or FusionPolicy()
    if t.wavelet != v.wavelet:
        raise DataError(f"wavelet mismatch: {t.wavelet.value} vs {v.wavelet.value}")
    if t.levels != v.levels:
        raise DataError(f"level mismatch: {t.levels} vs {v.levels}")
    if t.original_dims != v.original_dims:
        raise DataError(
            f"original dims differ: {t.original_dims} vs {v.original_dims}"
        )
    if t.coeffs.shape != v.coeffs.shape:
        raise DataError(f"coefficient grid dims differ: {t.coeffs.shape} vs {v.coeffs.shape}")
    detail, approx = policy.detail_rule, policy.approx_rule
    if FusionRule.AVERAGE not in (detail, approx):
        opposite = t.deepest_approx.shape if approx is not detail else None
        return replace(t, coeffs=_select(t.coeffs, v.coeffs, detail, opposite))
    fused = replace(t, coeffs=fuse_coeffs(t.coeffs, v.coeffs, detail))
    if approx is not detail:
        fused.deepest_approx[...] = fuse_coeffs(t.deepest_approx, v.deepest_approx, approx)
    return fused


def fuse_images(
    thermal: np.ndarray,
    visual: np.ndarray,
    kind: WaveletKind = WaveletKind.DB2,
    levels: int = 5,
    policy: FusionPolicy | None = None,
) -> np.ndarray:
    """Decompose both images, fuse the trees, and synthesize the fused image.

    The inputs must share dims; both are padded identically when the dims do
    not divide 2^levels, and the result is cropped back to the input dims.
    """
    thermal = np.asarray(thermal, dtype=np.float64)
    visual = np.asarray(visual, dtype=np.float64)
    if thermal.shape != visual.shape:
        raise DataError(f"image dims differ: {thermal.shape} vs {visual.shape}")
    fused = fuse_trees(decompose(thermal, kind, levels), decompose(visual, kind, levels), policy)
    # the two input trees are freed by now, before the inverse sweep allocates
    return reconstruct(fused)
