"""wavefuse benchmark: named workloads through the public CLI, one result line.

Run from the repository root:

    python3 bench/run.py --workload protocol-db2 --seed 1 --seconds 25 --trace 0

The workload seed generates every input (``wavefuse synth``); the program
sees only the generated files. Set-up is the import of ``wavefuse.cli`` in a
fresh interpreter plus the inputs and a warm-up; each part runs several
times and the median of each counts. Then whole passes of the workload
repeat for ``--seconds``. The gated times are scaled by the machine's speed
during them, sampled with a fixed reference chunk (see speed.py); the raw
wall times are printed too. Every command's exit code and outputs are checked,
and the output bytes of every pass must equal the first pass's. With
``--trace 1`` one more pass runs with spans around each layer (see
tracing.py) and the per-layer metrics are reported instead.

The last stdout line is one JSON object: correct, attempted, failed and the
metrics listed in BENCHMARK.json for the mode. The lines above it give every
metric by name and unit plus the machine record. The exit code is 0 when
every check passed and 1 when a check failed, set-up included; the result
line then says ``"correct": false``. It is 2, with no result line, when the
benchmark cannot run at all (no wavefuse sources next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a 2-core shared host, a second OpenBLAS thread contends
# with other tenants and with the first, which measures the scheduler more
# than the program. Set before numpy is imported; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
IMPORT_REPEATS = 5
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import wavefuse.cli; print(time.perf_counter() - t)"
)
MIN_FUSED_RATE = 0.95  # the bar of acceptance criterion 8
MODALITIES = ("fused", "thermal", "visual")
# The default rate of 0.1 converges after anywhere from 24 to 1000 epochs
# depending on the dataset seed, so the work of a run would depend on its
# seed. At 0.01 every seed tried converged after 96-148 (db2) or 228-300
# (haar) epochs; a cap below that makes every run train for the same number
# of online steps while the fused rate stays at or near 1.0.
LEARNING_RATE = 0.01
# ``--pca-k auto`` keeps 40-52 components for db2 and 89-102 for haar
# depending on the seed, which changes the model size and the MLP's input
# width, and with them the work of a pass. A fixed k in the middle of each
# range gives every seed the same amount of work.
PCA_K = {"db2": 46, "haar": 95}


class SetupError(Exception):
    pass


@dataclass
class Op:
    """One CLI command of a pass and the result of the checks on it."""

    command: str
    ns: int
    rc: int | None
    outputs: list[Path]
    errors: list[str] = field(default_factory=list)
    digest: str = ""
    span: int | None = None  # index of its top-level span in a traced pass
    info: dict = field(default_factory=dict)


class Bench:
    def __init__(self, cli, speed):
        self.cli = cli
        self.speed = speed
        self.tracer = None
        self.ops: list[Op] = []  # every command run, set-up included

    def call(self, argv, outputs=()) -> Op:
        """Run one CLI command in-process, timed, and check its outputs."""
        argv = [str(a) for a in argv]
        outputs = [Path(p) for p in outputs]
        for path in outputs:
            path.unlink(missing_ok=True)  # a stale file must not pass for new output
        out, err = io.StringIO(), io.StringIO()
        index = None
        span = contextlib.nullcontext()
        if self.tracer:
            index = len(self.tracer.spans)
            span = self.tracer.span(f"cli.{argv[0]}")
        start = self.speed.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                rc = self.cli.main(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        op = Op(argv[0], self.speed.clock() - start, rc, outputs, span=index)
        self.ops.append(op)
        if rc != 0:
            op.errors.append(f"exit code {rc}: {err.getvalue().strip()}")
        missing = [str(p) for p in op.outputs if not p.is_file()]
        if missing:
            op.errors.append(f"missing outputs {missing}")
        if not op.errors:
            digest = hashlib.sha256()
            for path in op.outputs:
                digest.update(path.read_bytes())
            op.digest = digest.hexdigest()
        return op


def require(op: Op) -> Op:
    """Set-up commands must succeed; without them nothing can be measured."""
    if op.errors:
        raise SetupError(f"set-up command {op.command} failed: {'; '.join(op.errors)}")
    return op


class Protocol:
    """synth 10 x 40 pairs at 64x64; train; evaluate fused, thermal, visual."""

    # spans a traced pass must record at least once
    spans = ("cli.train", "cli.evaluate", "pipeline.ingest_dataset", "pipeline.train_pipeline",
             "pipeline.save_model", "pipeline.load_model", "pipeline.evaluate",
             "pipeline.save_report", "imgio.load_image", "imgio.pad_to_block", "imgio.crop",
             "fusion.fuse_images", "fusion.fuse_trees", "wavelet.decompose",
             "wavelet.reconstruct", "eigen.fit_eigenspace", "eigen.project", "mlp.train",
             "mlp.predict")

    def __init__(self, wavelet: str, epochs: int):
        self.wavelet = wavelet
        self.epochs = epochs

    def synth_argv(self, data, seed):
        return ["synth", "--classes", 10, "--per-class", 40, "--rows", 64, "--cols", 64,
                "--seed", seed, "--out", data]

    def _protocol(self, bench, data, out, epochs, pca_k) -> list[Op]:
        out.mkdir(parents=True, exist_ok=True)
        model = out / "model.json"
        ops = [bench.call(["train", "--data", data, "--wavelet", self.wavelet,
                           "--pca-k", pca_k, "--lr", LEARNING_RATE,
                           "--epochs", epochs, "--model", model],
                          [model])]
        for modality in MODALITIES:
            report = out / f"report-{modality}.json"
            ops.append(bench.call(["evaluate", "--data", data, "--model", model,
                                   "--report", report, "--modality", modality], [report]))
        return ops

    def warm_up(self, bench, data, warm, seed):
        tiny = warm / "data"
        require(bench.call(["synth", "--classes", 2, "--per-class", 4, "--rows", 64,
                            "--cols", 64, "--seed", seed, "--out", tiny]))
        for op in self._protocol(bench, tiny, warm, 1, "auto"):
            require(op)

    def run_pass(self, bench, data, out) -> list[Op]:
        ops = self._protocol(bench, data, out, self.epochs, PCA_K[self.wavelet])
        train, fused = ops[0], ops[1]
        if not train.errors:
            train.info["model_bytes"] = train.outputs[0].stat().st_size
        if not fused.errors:
            try:
                rate = float(json.loads(fused.outputs[0].read_text())["overall"]["rate"])
            except (ValueError, KeyError, TypeError) as exc:
                fused.errors.append(f"unreadable report: {exc!r}")
            else:
                fused.info["fused_rate"] = rate
                if rate < MIN_FUSED_RATE:
                    fused.errors.append(f"fused rate {rate} below {MIN_FUSED_RATE}")
        return ops

    def summary(self, passes) -> dict:
        return {
            "protocol_s": (_median(sum(op.ns for op in p) for p in passes) / 1e9, "s"),
            "train_s": (_median(p[0].ns for p in passes) / 1e9, "s"),
            "evaluate_s": (_median(sum(op.ns for op in p[1:]) for p in passes) / 1e9, "s"),
            "fused_rate": (passes[0][1].info.get("fused_rate", 0.0), "ratio"),
            "model_bytes": (passes[0][0].info.get("model_bytes", 0), "B"),
        }


class FuseLarge:
    """synth 2 x 50 pairs at 509x509; one CLI fuse command per pair."""

    classes, per_class, size = 2, 50, 509
    spans = ("cli.fuse", "imgio.load_image", "imgio.save_image", "imgio.pad_to_block",
             "imgio.crop", "fusion.fuse_images", "fusion.fuse_trees", "wavelet.decompose",
             "wavelet.reconstruct")

    def synth_argv(self, data, seed):
        return ["synth", "--classes", self.classes, "--per-class", self.per_class,
                "--rows", self.size, "--cols", self.size, "--seed", seed, "--out", data]

    def _pairs(self, data):
        pairs = sorted(data.glob("*/*_thermal.pgm"))
        if len(pairs) != self.classes * self.per_class:
            raise SetupError(f"expected {self.classes * self.per_class} pairs, found {len(pairs)}")
        return [(t, t.with_name(t.name.replace("_thermal", "_visual"))) for t in pairs]

    def _fuse(self, bench, thermal, visual, fused) -> Op:
        return bench.call(["fuse", "--thermal", thermal, "--visual", visual, "--out", fused],
                          [fused])

    def warm_up(self, bench, data, warm, seed):
        thermal, visual = self._pairs(data)[0]
        warm.mkdir(parents=True, exist_ok=True)
        require(self._fuse(bench, thermal, visual, warm / "fused.pgm"))

    def run_pass(self, bench, data, out) -> list[Op]:
        from wavefuse.imgio import load_image

        out.mkdir(parents=True, exist_ok=True)
        ops = []
        for thermal, visual in self._pairs(data):
            fused = out / f"{thermal.parent.name}-{thermal.name.replace('_thermal', '_fused')}"
            op = self._fuse(bench, thermal, visual, fused)
            if not op.errors:
                try:
                    dims = load_image(fused).shape
                except Exception as exc:  # a corrupt output is a failed check
                    op.errors.append(f"fused image does not reload: {exc!r}")
                else:
                    if dims != (self.size, self.size):
                        op.errors.append(f"fused image reloads at {dims}")
            ops.append(op)
        return ops

    def summary(self, passes) -> dict:
        pair_ms = [op.ns / 1e6 for p in passes for op in p]
        pass_s = _median(sum(op.ns for op in p) for p in passes) / 1e9
        return {
            "fuse_pairs_per_s": (len(passes[0]) / pass_s, "1/s"),
            "fuse_pair_ms_p50": (statistics.median(pair_ms), "ms"),
            "fuse_pair_ms_p90": (statistics.quantiles(pair_ms, n=10)[-1], "ms"),
        }


WORKLOADS = {
    "protocol-db2": Protocol("db2", epochs=80),
    "protocol-haar": Protocol("haar", epochs=200),
    "fuse-large": FuseLarge(),
}


def _median(values) -> float:
    return statistics.median(list(values))


def check_repeat(reference: list[Op], ops: list[Op], what: str):
    """Every pass of one workload and seed must write the same bytes."""
    for ref, op in zip(reference, ops):
        if ref.digest and op.digest and ref.digest != op.digest:
            op.errors.append(f"{op.command} output bytes differ from the first pass ({what})")


def check_trace(tracer, ops: list[Op], unpatched: list[str], expected: tuple[str, ...]):
    """Check that the traced pass was traced in full and consistently.

    Every site was wrapped; every command has its own closed root span; every
    span the workload must run was recorded. No span's self time is negative,
    and the self times under one command sum to no more than its wall time.
    The last two hold by construction of the in-memory spans, so they guard
    the tracer itself rather than the program.
    """
    problems = [f"not traced, attribute gone: {site}" for site in unpatched]
    roots = [i for i, span in enumerate(tracer.spans) if span.parent is None]
    if roots != [op.span for op in ops]:
        problems.append(f"{len(roots)} root spans for {len(ops)} commands")
    for op in ops:
        span = tracer.spans[op.span]
        if span.name != f"cli.{op.command}" or span.end <= 0:
            problems.append(f"root span {span.name} of {op.command} is wrong or not closed")
    seen = {span.name for span in tracer.spans}
    problems += [f"no {name} span recorded" for name in expected if name not in seen]
    if problems:
        ops[0].errors.extend(problems)
        return
    by_root = {op.span: op for op in ops}
    totals = dict.fromkeys(by_root, 0)
    root = None
    for i, (span, ns) in enumerate(zip(tracer.spans, tracer.self_ns())):
        if span.parent is None:
            root = i
        if ns < 0:
            by_root[root].errors.append(f"negative self time in {span.name}")
        totals[root] += ns
    for root, total in totals.items():
        if total > by_root[root].ns:
            by_root[root].errors.append(
                f"self times {total} ns exceed the command's wall time {by_root[root].ns} ns"
            )


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    caches = {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            caches[f"L{level}{suffix}"] = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches_per_core": caches,
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset (default: nproc)"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def import_seconds(speed) -> tuple[float, float]:
    """Time the import of wavefuse.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    try:
        mark = speed.mark()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        wall = float(done.stdout.split()[-1])
        return wall, wall * speed.scale(mark)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        raise SetupError(f"import of wavefuse.cli failed: {exc}") from exc


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def declared_units(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure(bench, workload, args, work: Path) -> tuple[dict, dict]:
    data, out, warm = work / "data", work / "out", work / "warm"

    # Each set-up part runs several times; each sample is scaled by the
    # reference speed during it (speed.py), and the median of each part counts.
    speed = bench.speed
    imports = [import_seconds(speed) for _ in range(IMPORT_REPEATS)]
    synth, warm_up = [], []
    for _ in range(SETUP_REPEATS):
        mark = speed.mark()
        with speed.sampling():
            op = require(bench.call(workload.synth_argv(data, args.seed)))
        synth.append((op.ns / 1e9, speed.scale(mark)))
        mark, start = speed.mark(), speed.clock()
        with speed.sampling():
            workload.warm_up(bench, data, warm, args.seed)
        warm_up.append(((speed.clock() - start) / 1e9, speed.scale(mark)))
    import_s = _median(s * k for s, k in imports)
    synth_s = _median(s * k for s, k in synth)
    warm_up_s = _median(s * k for s, k in warm_up)

    passes, scaled = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        mark = speed.mark()
        with speed.sampling():
            passes.append(workload.run_pass(bench, data, out))
        scaled.append(sum(op.ns for op in passes[-1]) / 1e9 * speed.scale(mark))
        check_repeat(passes[0], passes[-1], "repeat")
    pass_wall = [sum(op.ns for op in p) / 1e9 for p in passes]

    shown = {
        "setup_s": (import_s + synth_s + warm_up_s, "s"),
        "import_s": (import_s, "s"),
        "synth_s": (synth_s, "s"),
        "warm_up_s": (warm_up_s, "s"),
        "pass_s": (_median(scaled), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "setup_wall_s": (sum(min(s for s, _ in part) for part in (imports, synth, warm_up)), "s"),
        "pass_wall_s": (_median(pass_wall), "s"),
        "slowdown": (speed.slowdown(), "ratio"),
        **workload.summary(passes),
    }
    commands = sum(len(p) for p in passes)
    print(f"# {len(passes)} passes, {commands} commands, {IMPORT_REPEATS} imports, "
          f"{SETUP_REPEATS} set-ups, {len(speed.probes)} speed probes")
    print("# passes (wall s): " + " ".join(f"{s:.3f}" for s in pass_wall))
    print("# passes (scaled s): " + " ".join(f"{s:.3f}" for s in scaled))

    layers = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer(speed.clock)
        bench.tracer = tracer
        mark = speed.mark()
        with speed.sampling(), tracing.installed(tracer) as unpatched:
            traced = workload.run_pass(bench, data, out)
        traced_s = sum(op.ns for op in traced) / 1e9 * speed.scale(mark)
        bench.tracer = None
        check_repeat(passes[0], traced, "traced")
        check_trace(tracer, traced, unpatched, workload.spans)
        layers = tracing.layer_metrics(tracer)
        layers["trace.overhead_s"] = traced_s - _median(scaled)
        layers["cli.exit_nonzero"] = sum(op.rc != 0 for op in traced)
    return shown, layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "wavefuse" / "__init__.py").is_file():
        print(f"error: no wavefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import wavefuse.cli

    print("# machine: " + json.dumps(machine_record()))

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    import speed

    bench = Bench(wavefuse.cli, speed.Speed())
    try:
        shown, layers = measure(bench, WORKLOADS[args.workload], args, work)
    except SetupError as exc:
        # Report the failure with whatever was measured; the run is not correct.
        print(f"error: {exc}", file=sys.stderr)
        if not any(op.errors for op in bench.ops):
            bench.ops.append(Op("set-up", 0, None, [], [str(exc)]))
        shown, layers = {"peak_rss_mb": (peak_rss_mb(), "MB")}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    ops = bench.ops
    failed = [op for op in ops if op.errors]
    shown["error_rate"] = (len(failed) / len(ops), "ratio")
    for op in failed:
        print(f"FAILED {op.command}: {'; '.join(op.errors)}", file=sys.stderr)
    units = declared_units(bool(args.trace))
    for name, (value, unit) in shown.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    for name, value in layers.items():
        print(f"{args.workload}  {name} = {value:.6g} {units.get(name, '')}")

    values = layers if args.trace else {name: value for name, (value, _) in shown.items()}
    if set(units) - set(values) and not failed:
        print(f"error: metrics not produced: {sorted(set(units) - set(values))}", file=sys.stderr)
        return 2
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
