"""In-memory spans around wavefuse's public functions, installed from outside.

Each wrapper replaces a function at the attribute its caller looks it up by
(``wavefuse.pipeline.fuse_images`` is what ``pipeline.evaluate`` calls, not
``wavefuse.fusion.fuse_images``), so nothing under ``src/`` changes. A span
is (name, start, end, parent); spans stay in a list while the traced pass
runs and self times are derived afterwards. Counts that a layer metric
needs (bytes of a file, PCA k, MLP epochs) are read from a call's arguments
and result after its span has closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from wavefuse.wavelet import filter_bank

LAYERS = ("cli", "pipeline", "fusion", "wavelet", "eigen", "mlp", "imgio")

# (module whose global the caller reads, attribute, span name)
SITES = (
    ("wavefuse.cli", "load_image", "imgio.load_image"),
    ("wavefuse.cli", "save_image", "imgio.save_image"),
    ("wavefuse.cli", "fuse_images", "fusion.fuse_images"),
    ("wavefuse.cli", "ingest_dataset", "pipeline.ingest_dataset"),
    ("wavefuse.cli", "train_pipeline", "pipeline.train_pipeline"),
    ("wavefuse.cli", "evaluate", "pipeline.evaluate"),
    ("wavefuse.cli", "save_model", "pipeline.save_model"),
    ("wavefuse.cli", "load_model", "pipeline.load_model"),
    ("wavefuse.cli", "save_report", "pipeline.save_report"),
    ("wavefuse.pipeline", "load_image", "imgio.load_image"),
    ("wavefuse.pipeline", "fuse_images", "fusion.fuse_images"),
    ("wavefuse.pipeline", "fit_eigenspace", "eigen.fit_eigenspace"),
    ("wavefuse.pipeline", "project", "eigen.project"),
    ("wavefuse.pipeline", "train", "mlp.train"),
    ("wavefuse.pipeline", "predict", "mlp.predict"),
    ("wavefuse.fusion", "decompose", "wavelet.decompose"),
    ("wavefuse.fusion", "reconstruct", "wavelet.reconstruct"),
    ("wavefuse.fusion", "fuse_trees", "fusion.fuse_trees"),
    ("wavefuse.wavelet", "pad_to_block", "imgio.pad_to_block"),
    ("wavefuse.wavelet", "crop", "imgio.crop"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: int = 0
    end: int = 0
    info: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    def __init__(self, clock):
        self.clock = clock  # nanoseconds; run.py passes the probe-free clock of speed.py
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        try:
            yield span
        finally:
            span.end = self.clock()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ns
        return own


def _file_bytes(span, args, result):
    span.info["bytes"] = os.path.getsize(args["path"])


def _decompose_geometry(span, args, result):
    span.info["geometry"] = (tuple(args["img"].shape), args["kind"], args["levels"])


def _eigen_k(span, args, result):
    span.info["k"] = result.k


def _mlp_run(span, args, result):
    config = args["config"]
    span.info.update(
        sizes=config.layer_sizes,
        steps=result.epochs_run * len(args["data"]),
        epochs_run=result.epochs_run,
        hit_cap=result.epochs_run >= config.epochs and result.final_error > config.target_error,
        final_error=result.final_error,
    )


def _evaluated(span, args, result):
    span.info["samples"] = result.overall_tested


HOOKS = {
    "imgio.load_image": _file_bytes,
    "imgio.save_image": _file_bytes,
    "pipeline.save_model": _file_bytes,
    "wavelet.decompose": _decompose_geometry,
    "eigen.fit_eigenspace": _eigen_k,
    "mlp.train": _mlp_run,
    "pipeline.evaluate": _evaluated,
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)
    signature = inspect.signature(fn) if hook else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if hook:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(span, bound.arguments, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every site in SITES for the duration of the block.

    Yields the sites whose attribute no longer exists, so a renamed
    function shows up as unpatched instead of as a crash.
    """
    saved, missing = [], []
    try:
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def wavelet_counts(shape, kind, levels) -> dict:
    """Computed (not measured) work of one decompose or reconstruct call.

    Per level the separable transform runs two 1-D passes over an r x c
    grid. Each pass produces r * c outputs of ``taps`` multiply-adds each,
    and reads and writes r * c float64 values once. Synthesis is the
    transpose of analysis, so it has the same counts. Padding to a multiple
    of 2^levels (decompose) and cropping back (reconstruct) add one copy.
    """
    taps = filter_bank(kind).length
    block = 2**levels
    rows, cols = (-(-n // block) * block for n in shape)
    coeffs = rows * cols
    copy_bytes = 8 * (shape[0] * shape[1] + coeffs) if coeffs != shape[0] * shape[1] else 0
    madds = moved = 0
    for _ in range(levels):
        madds += 2 * taps * rows * cols
        moved += 2 * 16 * rows * cols
        rows, cols = rows // 2, cols // 2
    return {"coeffs": coeffs, "madds": madds, "bytes": moved + copy_bytes}


def mlp_step_madds(sizes) -> int:
    """Computed multiply-adds of one online backprop step with momentum.

    Forward W @ a and the outer-product gradient cost one per weight; the
    back-propagated delta W.T @ delta one per weight of every layer but the
    first; the momentum update (two scalings of v and g, then w += v) three
    per weight and bias.
    """
    weights = sum(a * b for a, b in zip(sizes, sizes[1:]))
    biases = sum(sizes[1:])
    backprop = sum(a * b for a, b in zip(sizes[1:-1], sizes[2:]))
    return 2 * weights + backprop + 3 * (weights + biases)


def _p(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass; a layer that never ran reads 0."""
    spans = defaultdict(list)
    for s in tracer.spans:
        spans[s.name].append(s)
    own = tracer.self_ns()

    def self_ms(prefix):
        return sum(
            ns for s, ns in zip(tracer.spans, own) if f"{s.name}.".startswith(f"{prefix}.")
        ) / 1e6

    def timed(name, *keys):
        us = [s.ns / 1e3 for s in spans[name]]
        stats = {"calls": len(us), "ms_total": sum(us) / 1e3, "ms": _p(us, 50) / 1e3,
                 "s": sum(us) / 1e6, "us_p50": _p(us, 50), "us_p90": _p(us, 90)}
        return {f"{name}.{key}": stats[key] for key in keys}

    def info(name, key):
        return [s.info[key] for s in spans[name]]

    m = {}
    m.update(timed("wavelet.decompose", "calls", "ms_total", "us_p50"))
    m.update(timed("wavelet.reconstruct", "calls", "ms_total", "us_p50"))
    # Each fused tree is reconstructed at the geometry it was decomposed at.
    per_call = [wavelet_counts(*g) for g in info("wavelet.decompose", "geometry")]
    for key in ("coeffs", "madds", "bytes"):
        mean = sum(c[key] for c in per_call) / len(per_call) if per_call else 0
        m[f"wavelet.decompose.{key}_computed"] = mean
        if key != "coeffs":
            m[f"wavelet.reconstruct.{key}_computed"] = mean

    m.update(timed("fusion.fuse_images", "calls", "ms_total", "us_p50", "us_p90"))
    m["fusion.fuse_images.self_ms"] = self_ms("fusion.fuse_images")
    m.update(timed("fusion.fuse_trees", "ms_total"))

    m.update(timed("eigen.fit_eigenspace", "ms"))
    m["eigen.k"] = sum(info("eigen.fit_eigenspace", "k"))
    m.update(timed("eigen.project", "calls", "us_p50", "ms_total"))

    m.update(timed("mlp.train", "s"))
    steps = sum(info("mlp.train", "steps"))
    m["mlp.steps"] = steps
    m["mlp.us_per_step"] = m["mlp.train.s"] * 1e6 / steps if steps else 0.0
    m["mlp.epochs_run"] = sum(info("mlp.train", "epochs_run"))
    m["mlp.hit_epoch_cap"] = sum(int(hit) for hit in info("mlp.train", "hit_cap"))
    m["mlp.final_error"] = sum(info("mlp.train", "final_error"))
    sizes = info("mlp.train", "sizes")
    m["mlp.madds_per_step_computed"] = mlp_step_madds(sizes[0]) if sizes else 0
    m.update(timed("mlp.predict", "calls", "us_p50"))

    m.update(timed("pipeline.save_model", "ms"))
    m.update(timed("pipeline.load_model", "ms"))
    m["pipeline.model_bytes"] = max(info("pipeline.save_model", "bytes"), default=0)
    m.update(timed("pipeline.ingest_dataset", "ms"))
    m.update(timed("pipeline.train_pipeline", "s"))
    samples = sum(info("pipeline.evaluate", "samples"))
    evaluate_ms = timed("pipeline.evaluate", "ms_total")["pipeline.evaluate.ms_total"]
    m["pipeline.evaluate.ms_per_sample"] = evaluate_ms / samples if samples else 0.0

    m.update(timed("imgio.load_image", "calls", "ms_total", "us_p50"))
    m.update(timed("imgio.save_image", "calls", "ms_total"))
    m["imgio.bytes_read"] = sum(info("imgio.load_image", "bytes"))
    m["imgio.bytes_written"] = sum(info("imgio.save_image", "bytes"))

    for command in ("fuse", "train", "evaluate"):
        m.update(timed(f"cli.{command}", "s"))
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms(layer)
    m["trace.spans"] = len(tracer.spans)
    return m
