"""A deterministic synthetic paired dataset whose two modalities complement each other."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DataError
from .imgio import save_image
from .settings import typed_fields

_NOISE_SIGMA = 0.02
_TEXTURE_SIGMA = 0.02
# bytes in one file name: NAME_MAX on Linux and macOS, and NTFS's limit
_NAME_MAX = 255


@dataclass(frozen=True)
class SynthConfig:
    """Every setting of ``generate_synthetic_dataset``; the ``synth`` flags are its fields."""

    classes: int = 10
    per_class: int = 20
    rows: int = 64
    cols: int = 64
    seed: int = 0

    def __post_init__(self):
        typed_fields(self)
        if self.classes < 1:
            raise DataError(f"class count must be >= 1, got {self.classes}")
        if self.per_class < 1:
            raise DataError(f"per-class count must be >= 1, got {self.per_class}")
        if self.rows < 2 or self.cols < 2:
            raise DataError(f"dims must be at least 2x2, got {(self.rows, self.cols)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic_dataset(cfg: SynthConfig, out_dir) -> Path:
    """Write a deterministic paired dataset whose modalities complement each other.

    Each image splits into quadrants: the thermal channel lights the
    top-left and bottom-right, the visual channel the other two. A class c
    renders signature c // 2 in its thermal quadrants and c mod m (with
    m about classes/2) in its visual quadrants, as an amplitude level plus a
    smooth signature-specific texture. Distinct classes share each
    single-channel signature with one other class, so one modality alone
    cannot separate them while the pair identifies the class uniquely, and
    fused recognition beats either baseline by construction. Per-sample
    Gaussian noise makes samples within a class distinct.
    """
    classes, per_class, rows, cols, seed = cfg.classes, cfg.per_class, cfg.rows, cfg.cols, cfg.seed
    # The longest names are class<c> and <s>_thermal.pgm, with ids as wide as
    # the largest one; checked first, so such a count leaves no directory behind.
    for count, what, rest in ((classes, "class", "class"), (per_class, "per-class", "_thermal.pgm")):
        if count - 1 >= 10 ** (_NAME_MAX - len(rest)):
            raise DataError(f"{what} count too large: file names would pass {_NAME_MAX} bytes")

    half_r, half_c = rows // 2, cols // 2
    t_mask = np.zeros((rows, cols))
    t_mask[:half_r, :half_c] = 1.0
    t_mask[half_r:, half_c:] = 1.0
    v_mask = 1.0 - t_mask

    m = max(2, -(-classes // 2))
    f_count = (classes - 1) // 2 + 1
    g_count = min(classes, m)

    def _levels(count):
        # Narrow spread: gaps stay far above the noise floor while the
        # fused-image PCA features stay small enough not to saturate the
        # downstream sigmoid network.
        return np.array([0.65]) if count == 1 else np.linspace(0.60, 0.70, count)

    def _texture(tag, value):
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag, value]))
        rough = rng.standard_normal((rows, cols))
        smooth = gaussian_filter(rough, sigma=max(2.0, min(rows, cols) / 16.0), mode="wrap")
        return _TEXTURE_SIGMA * smooth / smooth.std()

    f_amps, g_amps = _levels(f_count), _levels(g_count)
    f_tex = [_texture(1, v) for v in range(f_count)]
    g_tex = [_texture(2, v) for v in range(g_count)]
    # made only now, so a size that fails to allocate leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    class_width = max(2, len(str(classes - 1)))
    id_width = max(2, len(str(per_class - 1)))
    for c in range(classes):
        f_val, g_val = c // 2, c % m
        t_base = (f_amps[f_val] + f_tex[f_val]) * t_mask
        v_base = (g_amps[g_val] + g_tex[g_val]) * v_mask
        class_dir = out / f"class{c:0{class_width}d}"
        class_dir.mkdir(exist_ok=True)
        for s in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3, c, s]))
            t_img = t_base + _NOISE_SIGMA * rng.standard_normal((rows, cols))
            v_img = v_base + _NOISE_SIGMA * rng.standard_normal((rows, cols))
            save_image(t_img, class_dir / f"{s:0{id_width}d}_thermal.pgm")
            save_image(v_img, class_dir / f"{s:0{id_width}d}_visual.pgm")
    return out
