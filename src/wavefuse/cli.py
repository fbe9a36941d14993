"""Command-line front end.

Subcommands: decompose, fuse, synth, train, evaluate. Exit codes: 0 on
success, 1 on usage errors, 2 on data errors (bad files, bad dims, bad
dataset layout, a size too large to allocate), 3 on numeric failure
(training divergence).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import sys
from dataclasses import fields

from .errors import DataError, NumericError
from .fusion import FusionPolicy, FusionRule, fuse_images
from .imgio import load_image, save_image
from .pipeline import (
    MODALITIES,
    PipelineConfig,
    evaluate,
    format_report,
    generate_synthetic_dataset,
    ingest_dataset,
    load_model,
    save_model,
    save_report,
    train_pipeline,
)
from .wavelet import WaveletKind, decompose, export_tree


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this maps that to 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def _pca_k(text: str):
    if text.lower() == "auto":
        return "auto"
    return int(text)


def _add_wavelet_args(p):
    p.add_argument("--wavelet", choices=[k.value for k in WaveletKind],
                   default=PipelineConfig.wavelet.value)
    p.add_argument("--levels", type=int, default=PipelineConfig.levels)


def _add_rule_args(p):
    rules = [r.value for r in FusionRule]
    p.add_argument("--approx-rule", choices=rules, default=PipelineConfig.approx_rule.value)
    p.add_argument("--detail-rule", choices=rules, default=PipelineConfig.detail_rule.value)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process, as building it takes about 1.5 ms.

    The ``_cmd_*`` functions it binds read this module's globals when they
    run, so a patched ``load_image`` or ``train_pipeline`` still takes effect.
    """
    parser = _Parser(
        prog="wavefuse",
        description="Fuse thermal/visual image pairs in the wavelet domain and "
        "run the eigenface + MLP recognition pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("decompose", help="export one image's wavelet coefficient tree")
    p.add_argument("--input", required=True)
    _add_wavelet_args(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fuse", help="fuse a thermal/visual pair into one image")
    p.add_argument("--thermal", required=True)
    p.add_argument("--visual", required=True)
    _add_wavelet_args(p)
    _add_rule_args(p)
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=20)
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a recognition model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--split", dest="split_fraction", type=float,
                   default=PipelineConfig.split_fraction, help="train fraction per class")
    _add_wavelet_args(p)
    _add_rule_args(p)
    p.add_argument("--pca-k", type=_pca_k, default=PipelineConfig.pca_k, metavar="AUTO|int")
    p.add_argument("--hidden", type=int, default=PipelineConfig.hidden)
    p.add_argument("--lr", dest="learning_rate", type=float, default=PipelineConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=PipelineConfig.momentum)
    p.add_argument("--epochs", type=int, default=PipelineConfig.epochs)
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)
    p.add_argument("--model", required=True, help="output model JSON path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a dataset's test split")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--report", required=True, help="output report JSON path")
    p.add_argument("--modality", choices=MODALITIES, default="fused")
    p.set_defaults(func=_cmd_evaluate)
    return parser


def _warn_unpaired(data):
    for path in data.unpaired:
        print(f"warning: skipped unpaired file {path}", file=sys.stderr)


def _cmd_decompose(args) -> int:
    tree = decompose(load_image(args.input), WaveletKind(args.wavelet), args.levels)
    export_tree(tree, args.out)
    print(
        f"wrote {args.out}: wavelet {tree.wavelet.value}, {tree.levels} levels, "
        f"{tree.coefficient_count()} coefficients"
    )
    return 0


def _cmd_fuse(args) -> int:
    thermal = load_image(args.thermal)
    visual = load_image(args.visual)
    if thermal.shape != visual.shape:
        raise DataError(
            f"thermal {args.thermal} dims {thermal.shape} differ from "
            f"visual {args.visual} dims {visual.shape}"
        )
    policy = FusionPolicy(FusionRule(args.approx_rule), FusionRule(args.detail_rule))
    fused = fuse_images(thermal, visual, WaveletKind(args.wavelet), args.levels, policy)
    save_image(fused, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    out = generate_synthetic_dataset(
        args.classes, args.per_class, (args.rows, args.cols), args.seed, args.out
    )
    print(f"wrote {args.classes * args.per_class * 2} images under {out}")
    return 0


def _cmd_train(args) -> int:
    names = {f.name for f in fields(PipelineConfig)}
    cfg = PipelineConfig(**{k: v for k, v in vars(args).items() if k in names})
    data = ingest_dataset(args.data)
    _warn_unpaired(data)
    # every class needs a test sample, or no evaluate of this model can score it
    trained, held_out = data.split(cfg)
    tested = {ci for ci, _ in held_out}
    for ci, rec in enumerate(data.classes):
        if ci not in tested:
            raise DataError(
                f"class {rec.label} has no test samples at --split {cfg.split_fraction}")
    model = train_pipeline(data, cfg)
    save_model(model, args.model)
    print(
        f"trained on {len(trained)} samples, {len(model.class_labels)} classes, "
        f"{model.eigenspace.k} components ({len(held_out)} test samples held out)"
    )
    print(f"epoch error {model.mlp.final_error:.6g} after {model.mlp.epochs_run} epochs")
    print(f"wrote {args.model}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    data = ingest_dataset(args.data)
    _warn_unpaired(data)
    report = evaluate(model, data, modality=args.modality)
    save_report(report, args.report)
    print(format_report(report))
    print(f"wrote {args.report}")
    return 0


def _keep_freed_memory():
    """Make glibc's malloc reuse freed memory; a no-op where libc lacks mallopt.

    Only ``main`` calls this, so importing the library leaves the allocator alone.
    """
    # glibc's defaults serve each block of 128 KiB or more by mmap and trim
    # freed heap back to the system, so every 2 MB temporary of a 509x509 fuse
    # faulted in fresh pages: 7,950-9,400 minor faults (up to 35 MB) per call.
    # M_MMAP_THRESHOLD (-3) at 32 MiB, glibc's 64-bit maximum, keeps such
    # blocks on the heap, and M_TRIM_THRESHOLD (-1) at 256 MiB keeps freed
    # heap mapped for reuse; a repeated fuse then takes 0-12 faults.
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(-3, 32 << 20)
        mallopt(-1, 256 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
