"""The package's layout: which module imports which, and which names stay bound where."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import wavefuse

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wavefuse"

# each module's own modules, as its ``from .x import`` lines name them
IMPORTS = {
    "errors": set(),
    "settings": {"errors"},
    "imgio": {"errors"},
    "eigen": {"errors", "settings"},
    "mlp": {"errors", "settings"},
    "wavelet": {"errors", "imgio"},
    "fusion": {"errors", "settings", "wavelet"},
    "pipeline": {"errors", "settings", "imgio", "wavelet", "fusion", "eigen", "mlp"},
    "synth": {"errors", "settings", "imgio", "wavelet"},
    "store": {"errors", "settings", "pipeline"},
    "cli": {"errors", "settings", "imgio", "wavelet", "fusion", "pipeline", "synth", "store"},
    "__init__": {"errors", "settings", "imgio", "wavelet", "fusion", "eigen", "mlp", "pipeline",
                 "synth", "store"},
    "__main__": {"cli"},
}

PUBLIC = [
    "AUTO", "DataError", "Dataset", "DecompositionTree", "EigenspaceModel", "EvaluationReport",
    "FilterBank", "FusionPolicy", "FusionRule", "MlpConfig", "MlpModel", "NumericError",
    "PgmError", "PipelineConfig", "PipelineModel", "SynthConfig", "WaveletKind", "crop",
    "decompose", "evaluate", "filter_bank", "fit_eigenspace", "format_report", "forward",
    "fuse_coeffs", "fuse_images", "fuse_trees", "generate_synthetic_dataset", "ingest_dataset",
    "load_image", "load_model", "loss_and_gradients", "pad_to_block", "predict", "project",
    "reconstruct", "reconstruct_from_features", "save_image", "save_model", "save_report",
    "train", "train_pipeline",
]


def test_module_imports():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    own = {name: {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1}
           for name, tree in trees.items()}
    assert {name: mods for name, mods in own.items() if mods != IMPORTS.get(name)} == {}
    assert set(trees) == set(IMPORTS)
    # the typing rule is the one place config type hints are evaluated
    users = {name for name, tree in trees.items() for node in ast.walk(tree)
             if "get_type_hints" in (getattr(node, "attr", None), getattr(node, "id", None),
                                     getattr(node, "name", None))}
    assert users == {"settings"}


def test_traced_sites_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.SITES
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_public_names():
    assert sorted(wavefuse.__all__) == PUBLIC
    assert [name for name in PUBLIC if not hasattr(wavefuse, name)] == []
