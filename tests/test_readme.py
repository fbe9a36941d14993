"""The README's ``## Library`` example runs as written."""

import re
from pathlib import Path

import numpy as np

from wavefuse import SynthConfig, generate_synthetic_dataset, load_image

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    # 3 classes x 16 pairs: 24 train at the default fraction 0.5, enough for pca_k=20
    data = generate_synthetic_dataset(
        SynthConfig(3, 16, rows=16, cols=16, seed=0), tmp_path / "data")
    thermal = load_image(data / "class00" / "00_thermal.pgm")
    visual = load_image(data / "class00" / "00_visual.pgm")
    monkeypatch.chdir(tmp_path)
    namespace = {"thermal": thermal, "visual": visual, "img": thermal}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["fused"].shape == thermal.shape
    assert np.max(np.abs(namespace["round_trip"] - thermal)) < 1e-9
    assert (len(namespace["trained"]), len(namespace["held_out"])) == (24, 24)
    assert namespace["model"].eigenspace.k == 20
    assert capsys.readouterr().out == f"{namespace['report'].overall.rate}\n"
