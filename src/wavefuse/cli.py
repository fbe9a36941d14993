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
from enum import EnumMeta

from .eigen import AUTO
from .errors import DataError, NumericError
from .fusion import FusionPolicy, fuse_images
from .imgio import load_image, save_image
from .pipeline import (
    MODALITIES,
    PipelineConfig,
    SynthConfig,
    evaluate,
    format_report,
    generate_synthetic_dataset,
    ingest_dataset,
    load_model,
    save_model,
    save_report,
    train_pipeline,
)
from .mlp import field_types, typed
from .wavelet import decompose, export_tree


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; this maps that to 1."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


# the two flags not named after their field, with the help each prints
_RENAMED = {"split_fraction": ("--split", "train fraction per class"), "learning_rate": ("--lr", None)}


def _add_config_args(p, cls, names) -> None:
    """Add a flag for each named field of config class ``cls``, with its default and type."""
    for name in names:
        kind = field_types(cls)[name]
        flag, help = _RENAMED.get(name, ("--" + name.replace("_", "-"), None))
        p.add_argument(
            flag, dest=name, default=getattr(cls, name), help=help,
            # numbers parse as argparse's int and float do, since typed parses no text
            type=kind if kind in (int, float) else functools.partial(_typed_text, name, kind),
            choices=[m.value for m in kind] if isinstance(kind, EnumMeta) else None,
            metavar=f"{AUTO.upper()}|int" if kind == int | str else None)


def _config(cls, args):
    """A ``cls`` config from the parsed flags named after its fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in vars(args).items() if k in names})


def _typed_text(name: str, kind, text: str):
    """A flag's text as ``typed`` makes it a ``kind``; a bad value is a usage error."""
    try:
        return typed(name, kind, int(text) if text.removeprefix("-").isdecimal() else text)
    except ValueError as exc:
        if isinstance(kind, EnumMeta):
            return text  # no member: argparse's choice check lists the choices
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    _add_config_args(p, PipelineConfig, ["wavelet", "levels"])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("fuse", help="fuse a thermal/visual pair into one image")
    p.add_argument("--thermal", required=True)
    p.add_argument("--visual", required=True)
    _add_config_args(p, PipelineConfig, ["wavelet", "levels", "approx_rule", "detail_rule"])
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    _add_config_args(p, SynthConfig, [f.name for f in fields(SynthConfig)])
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a recognition model on a dataset directory")
    p.add_argument("--data", required=True)
    _add_config_args(p, PipelineConfig, ["split_fraction", "wavelet", "levels", "approx_rule",
                                         "detail_rule", "pca_k", "hidden", "learning_rate",
                                         "momentum", "epochs", "seed"])
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
    tree = decompose(load_image(args.input), args.wavelet, args.levels)
    export_tree(tree, args.out)
    print(
        f"wrote {args.out}: wavelet {tree.wavelet.value}, {tree.levels} levels, "
        f"{tree.coeffs.size} coefficients"
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
    policy = FusionPolicy(args.approx_rule, args.detail_rule)
    fused = fuse_images(thermal, visual, args.wavelet, args.levels, policy)
    save_image(fused, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _config(SynthConfig, args)
    out = generate_synthetic_dataset(cfg, args.out)
    print(f"wrote {cfg.classes * cfg.per_class * 2} images under {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config(PipelineConfig, args)
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
