"""A deterministic synthetic paired dataset whose two modalities complement each other.

Every sample draws its noise from a generator of its own, so where the
process may use two CPUs each class's samples run as two parts on
``wavelet._on_two_threads``: the calling thread writes the even samples, the
worker the odd ones, and every file's bytes are the one-thread bytes. The
class signatures are made first, on the calling thread; they set the peak
memory. Each part then owns one image buffer, made before the split, and
allocates only per-file temporaries smaller than an image: the ``isfinite``
mask and the uint8 raster.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .errors import DataError
from .imgio import _write_pgm
from .settings import typed_fields
from .wavelet import _on_two_threads, _two_cpus

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

    m = max(2, -(-classes // 2))
    f_count = (classes - 1) // 2 + 1
    g_count = min(classes, m)

    def _levels(count):
        # Narrow spread: gaps stay far above the noise floor while the
        # fused-image PCA features stay small enough not to saturate the
        # downstream sigmoid network.
        return np.array([0.65]) if count == 1 else np.linspace(0.60, 0.70, count)

    def _signature(tag, value, level, unlit):
        # a level plus a smooth texture where the modality is lit, 0 elsewhere;
        # added and zeroed in place, it holds the bits (level + texture) * mask did
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag, value]))
        rough = rng.standard_normal((rows, cols))
        smooth = gaussian_filter(rough, sigma=max(2.0, min(rows, cols) / 16.0), mode="wrap")
        signature = _TEXTURE_SIGMA * smooth / smooth.std()
        signature += level
        for quadrant in unlit:
            signature[quadrant] = 0.0
        return signature

    # thermal lights the top-left and bottom-right quadrants, visual the other two
    half_r, half_c = rows // 2, cols // 2
    t_lit = np.s_[:half_r, :half_c], np.s_[half_r:, half_c:]
    v_lit = np.s_[:half_r, half_c:], np.s_[half_r:, :half_c]
    # made before any sample: this phase sets the peak memory, so no split adds to it
    f_sig = [_signature(1, v, level, v_lit) for v, level in enumerate(_levels(f_count))]
    g_sig = [_signature(2, v, level, t_lit) for v, level in enumerate(_levels(g_count))]
    split = per_class >= 2 and _two_cpus()
    buffers = np.empty((2 if split else 1, rows, cols))
    # made only now, so a size that fails to allocate leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    class_width = max(2, len(str(classes - 1)))
    id_width = max(2, len(str(per_class - 1)))

    def samples(class_dir, c: int, k: int, step: int) -> None:
        # samples k, k + step, ... in buffer k, each from its own generator, so a
        # split changes no byte; sigma * noise + signature rounds as it always did
        buf, signatures = buffers[k], (f_sig[c // 2], g_sig[c % m])
        for s in range(k, per_class, step):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3, c, s]))
            for modality, signature in zip(("thermal", "visual"), signatures):
                rng.standard_normal(out=buf)
                buf *= _NOISE_SIGMA
                buf += signature
                _write_pgm(buf, class_dir / f"{s:0{id_width}d}_{modality}.pgm", out=buf)

    for c in range(classes):
        class_dir = out / f"class{c:0{class_width}d}"
        class_dir.mkdir(exist_ok=True)
        if split:
            _on_two_threads(lambda k, wait: samples(class_dir, c, k, 2))
        else:
            samples(class_dir, c, 0, 1)
    return out
