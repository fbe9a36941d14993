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
from .mlp import typed_fields
from .wavelet import DecompositionTree, WaveletKind, decompose, reconstruct


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
    x, y = a.reshape(-1).view(np.int64), b.reshape(-1).view(np.int64)
    m, k = x & _MAGNITUDE, y & _MAGNITUDE
    if max(m.max(initial=0), k.max(initial=0)) >= _INFINITY:
        raise DataError("non-finite coefficients")
    np.subtract(m, k, out=k) if rule is FusionRule.MAX_ABS else np.subtract(k, m, out=k)
    k >>= 63
    np.bitwise_xor(x, y, out=m)
    m &= k
    return np.bitwise_xor(x, m, out=m).view(np.float64).reshape(a.shape)


def fuse_trees(
    t: DecompositionTree, v: DecompositionTree, policy: FusionPolicy | None = None
) -> DecompositionTree:
    """Fuse two decompositions of identical wavelet, depth, and grid dims.

    The detail rule runs over the whole coefficient array at once, then the
    approximation rule overwrites the deepest approximation block.
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
    fused = replace(t, coeffs=fuse_coeffs(t.coeffs, v.coeffs, policy.detail_rule))
    fused.deepest_approx[...] = fuse_coeffs(
        t.deepest_approx, v.deepest_approx, policy.approx_rule
    )
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
