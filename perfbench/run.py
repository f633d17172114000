"""protoadapt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N

Run from the repository root. One in-process caller drives one workload
closed-loop (the next call starts when the previous one returns) in a
single process with BLAS pinned to one thread. The run sets up `setups`
times (setup_s is their median), then repeats the timed pass until
`--seconds` have passed. Untraced runs print the end-to-end metrics named
in BENCHMARK.json, with times and rates scaled to a reference host speed
that a speedometer kernel measures during the run (see tracer.Speedometer
and perfbench/BASELINE.md); traced runs (`--trace 1`) run one untraced
pass, then traced passes, and print the per-layer metrics. The last
stdout line is one JSON object {correct, attempted, failed, metrics}; the
exit code is nonzero when any operation or output check failed.
"""

import os

# The program parses --threads and ignores it, so pin BLAS here, before
# numpy is imported; two threads are slower than one on a two-core host.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from tracer import REFERENCE_S, Speedometer, StageClock, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def import_program():
    """Import protoadapt from this checkout's src/ and nowhere else."""
    if not (SRC / "protoadapt" / "__init__.py").is_file():
        sys.exit(f"error: no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import protoadapt

    if Path(protoadapt.__file__).resolve().parent != SRC / "protoadapt":
        sys.exit(f"error: imported protoadapt from {protoadapt.__file__}, not {SRC}")


# ---------------------------------------------------------------- host block


def _blas_threads():
    """Thread count OpenBLAS reports, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git(*args):
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}", *args],
        capture_output=True,
        text=True,
        timeout=30,
    )
    return out.stdout.strip() if out.returncode == 0 else None


def host_block(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------- statistics


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


# ---------------------------------------------------------------- runs


# Speedometer readings taken at each end of a set-up.
SETUP_READINGS = 3


def _module_bindings() -> dict:
    """Identity of every attribute of every loaded protoadapt module."""
    return {
        (name, key): id(value)
        for name, mod in list(sys.modules.items())
        if name.split(".")[0] == "protoadapt"
        for key, value in vars(mod).items()
    }


class Run:
    """One workload in one process: set-ups, timed passes, checks."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.setup_spans = []  # (start, end) of each set-up
        self.pass_spans = []  # (start, end) of each untraced pass
        self.traced_s = []
        self.outcomes = []
        self.tracers = []
        self.setup_tracer = None
        self.checks = []

    def execute(self, workdir):
        from workloads import experiment_seed

        wl = self.workload
        before = _module_bindings()
        # Speedometer readings would land inside traced spans, so traced
        # runs go without them (their per-layer numbers are not scaled).
        clock = self.clock = StageClock(None if self.trace else Speedometer())
        try:
            state = None
            for i in range(1 if self.trace else wl.setups):
                state = None  # free the previous set-up before the next one
                tracer = Tracer() if self.trace else None
                t0 = time.perf_counter()
                self._read_speed()
                state = wl.setup(experiment_seed(self.seed), os.path.join(workdir, f"setup{i}"))
                self._read_speed()
                self.setup_spans.append((t0, time.perf_counter()))
                if tracer is not None:
                    tracer.restore()
                    self.setup_tracer = tracer
            self._timed_passes(state, clock)
        finally:
            clock.restore()
        last = self.outcomes[-1]
        self.checks = list(wl.checks(state, last))
        after = _module_bindings()
        restored = all(after.get(key) == ident for key, ident in before.items())
        self.checks.append(("every wrapped attribute is the original again", restored, ""))
        first = self.outcomes[0].fingerprint
        agree = all(o.fingerprint == first for o in self.outcomes)
        self.checks.append(("every pass gives the same fingerprint", agree, ""))
        if self.trace:
            counters = [exact_counters(t) for t in self.tracers]
            self.checks.append(("exact counters repeat across traced passes", all(c == counters[0] for c in counters), ""))

    def _read_speed(self):
        """Speedometer readings at a set-up's ends, for set-ups (data
        generation alone) that run no step or chunk with readings."""
        if self.clock.speedometer is not None:
            for _ in range(SETUP_READINGS):
                self.clock.speedometer.read()

    def _timed_passes(self, state, clock):
        wl = self.workload
        elapsed = 0.0
        if self.trace:
            t0 = time.perf_counter()
            self.outcomes.append(wl.run_pass(state, clock))
            self.pass_spans.append((t0, time.perf_counter()))
        while True:
            tracer = Tracer() if self.trace else None
            t0 = time.perf_counter()
            if tracer is None:
                outcome = wl.run_pass(state, clock)
            else:
                with tracer.root():
                    outcome = wl.run_pass(state, clock)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
                self.tracers.append(tracer)
                self.traced_s.append(dt)
            else:
                self.pass_spans.append((t0, t0 + dt))
            self.outcomes.append(outcome)
            elapsed += dt
            # Two traced passes at least, so the exact counters can be compared.
            if elapsed >= self.seconds and (not self.trace or len(self.tracers) >= 2):
                break

    # -- results

    def attempted_failed(self):
        ops = sum(o.ops for o in self.outcomes)
        return ops + len(self.checks), sum(not ok for _, ok, _ in self.checks)

    def end_to_end(self, scale=True) -> dict:
        """The end-to-end metrics; rates and pass times scaled to the
        reference host speed unless `scale` is False."""
        clock = self.clock
        rates = clock.scaled if scale else clock.raw

        def seconds(spans):
            return [clock.speedometer.scaled_time(*span) if scale else span[1] - span[0] for span in spans]

        passes = seconds(self.pass_spans)
        # cli-walkthrough times inference per pass; scale it like its pass.
        infer = []
        for outcome, scaled, (t0, t1) in zip(self.outcomes, passes, self.pass_spans):
            pixels, infer_s = outcome.infer
            if pixels:
                infer.append(pixels / infer_s * (t1 - t0) / scaled)
        return {
            "setup_s": median(seconds(self.setup_spans)),
            "run_s": median(passes),
            "train_steps_per_s": median(rates(clock.windows["train_source"])),
            "adapt_steps_per_s": median(rates(clock.windows["adapt_source_free"])),
            "infer_px_per_s": median(infer or rates(clock.chunks)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def host_speed(self) -> float:
        """Median host speed over the run relative to the reference (>1 = fast)."""
        readings = [s for _, s in self.clock.speedometer.readings]
        return REFERENCE_S / median(readings)

    def quality(self) -> dict:
        """Exact pre/post mIoU of the last pass (deterministic per seed)."""
        last = self.outcomes[-1]
        return {key: last.fingerprint.get(key, last.extra.get(key)) for key in ("pre_miou", "post_miou")}

    def sample_counts(self) -> dict:
        clock = self.clock
        return {
            "setup_s": len(self.setup_spans),
            "run_s": len(self.pass_spans),
            "train_steps_per_s": len(clock.windows["train_source"]),
            "adapt_steps_per_s": len(clock.windows["adapt_source_free"]),
            "infer_px_per_s": sum(o.infer[0] > 0 for o in self.outcomes) or len(clock.chunks),
        }


def exact_counters(tracer) -> dict:
    c = tracer.counts

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "autodiff.tape_nodes_per_train_step": ratio("autodiff.tape_nodes.train", "autodiff.backward_calls.train"),
        "autodiff.tape_nodes_per_adapt_step": ratio("autodiff.tape_nodes.adapt", "autodiff.backward_calls.adapt"),
        "autodiff.leaf_grad_bytes_per_step": ratio("autodiff.leaf_grad_bytes", "autodiff.backward_calls"),
        "autodiff.forward_rows": c["autodiff.forward_rows"],
        "autodiff.pixel_features.bytes": c["autodiff.pixel_features.bytes"],
        "swd.sliced_wasserstein_grad.proj_points": c["swd.sliced_wasserstein_grad.proj_points"],
        "gmm.draws": c["gmm.draws"],
        "gmm.kept_fraction": ratio("gmm.kept", "gmm.draws"),
        "fileformats.bytes_read": c["fileformats.bytes_read"],
        "fileformats.bytes_written": c["fileformats.bytes_written"],
    }


DENSE_LAYERS = ("enc0", "enc1", "dec0", "cls0", "cls1")
SELF_SPANS = (
    "autodiff.pixel_features",
    "autodiff.backward",
    "autodiff.adam_step",
    "swd.sliced_wasserstein_grad",
    "swd.sliced_wasserstein_sq",
    "swd.exact_wasserstein_sq_small",
    "gmm.generate_pseudo_dataset",
    "gmm.build_support_sets",
    "gmm.estimate_gmm",
    "linalg.sample_gaussian",
)
STAGE_SPANS = (
    "adaptation.train_source",
    "adaptation.estimate_stage",
    "adaptation.adapt_source_free",
    "adaptation.evaluate_miou",
    "adaptation.pixel_embeddings",
    "adaptation.pixel_error",
    "adaptation.compute_bound_diagnostics",
)
IO_SPANS = (
    "datasets.load_split",
    "autodiff.load_model",
    "autodiff.save_model",
    "gmm.load_gmm",
    "gmm.save_gmm",
    "fileformats.save_embeddings",
    "cli.estimate",
    "cli.adapt",
    "cli.eval",
    "cli.export-embeddings",
    "cli.diagnose",
)


# Which end-to-end metric each per-layer metric should move, and on which
# workload (most affected first). First matching name prefix wins.
LAYER_MAP = (
    ("datasets.", "setup_s on pipeline-standard (most; set-up is generation only), all"),
    ("autodiff.pixel_features.bytes", "peak_rss_mb and train_steps_per_s on pipeline-standard"),
    (
        "autodiff.",
        "train_steps_per_s and run_s on pipeline-standard (most), adapt_steps_per_s on adapt-swd (little); "
        "the forward part infer_px_per_s on cli-walkthrough",
    ),
    ("swd.sliced_wasserstein_grad.", "adapt_steps_per_s on adapt-swd (most) and pipeline-standard; none on cli-walkthrough"),
    ("swd.", "run_s on cli-walkthrough (estimate and diagnostics)"),
    ("gmm.build_support_sets.", "run_s on cli-walkthrough"),
    ("gmm.estimate_gmm.", "run_s on cli-walkthrough"),
    ("gmm.", "adapt_steps_per_s on adapt-swd"),
    ("linalg.", "adapt_steps_per_s on adapt-swd"),
    ("adaptation.train_step_ms.", "train_steps_per_s on pipeline-standard"),
    ("adaptation.adapt_step_ms.", "adapt_steps_per_s on adapt-swd and pipeline-standard"),
    ("adaptation.", "run_s (stage split) on every workload"),
    ("fileformats.", "run_s on cli-walkthrough"),
    ("cli.", "run_s on cli-walkthrough"),
    ("trace.", "none (tracer self-check)"),
)


def moves(name: str) -> str:
    return next(target for prefix, target in LAYER_MAP if name.startswith(prefix))


def per_layer(run: Run) -> dict:
    """Per-layer values per timed pass, averaged over the traced passes;
    datasets.* come from the traced set-up."""
    n = len(run.tracers)

    def total(name):
        return sum(t.total(name) for t in run.tracers) / n

    def self_time(name):
        return sum(t.self_time(name) for t in run.tracers) / n

    def calls(name):
        return sum(t.calls(name) for t in run.tracers) / n

    def samples(key):
        return [v for t in run.tracers for v in t.samples[key]]

    def pct(key, q):
        values = samples(key)
        return percentile(values, q) if values else 0.0

    setup = run.setup_tracer
    out = {
        "datasets.gen_grid_seg.self_s": setup.self_time("datasets.gen_grid_seg"),
        "datasets.gen_grid_seg.images": setup.counts["datasets.gen_grid_seg.images"],
        "datasets.gen_grid_seg.calls": setup.calls("datasets.gen_grid_seg"),
    }
    for layer in DENSE_LAYERS:
        out[f"autodiff.dense.{layer}.fwd_s"] = total(f"autodiff.dense.{layer}.fwd")
        out[f"autodiff.dense.{layer}.bwd_s"] = total(f"autodiff.dense.{layer}.bwd")
        out[f"autodiff.dense.{layer}.fwd_calls"] = calls(f"autodiff.dense.{layer}.fwd")
    out["autodiff.softmax_ce.fwd_s"] = total("autodiff.softmax_ce.fwd")
    out["autodiff.softmax_ce.bwd_s"] = total("autodiff.softmax_ce.bwd")
    out["autodiff.softmax_ce.fwd_calls"] = calls("autodiff.softmax_ce.fwd")
    for name in SELF_SPANS:
        out[f"{name}.self_s"] = self_time(name)
        out[f"{name}.calls"] = calls(name)
    out["swd.sliced_wasserstein_grad.ms_p50"] = pct("swd.sliced_wasserstein_grad.ms", 50)
    out["swd.sliced_wasserstein_grad.ms_p95"] = pct("swd.sliced_wasserstein_grad.ms", 95)
    for name in STAGE_SPANS:
        out[f"{name}.total_s"] = total(name)
        out[f"{name}.self_s"] = self_time(name)
        out[f"{name}.calls"] = calls(name)
    out["adaptation.train_step_ms.p50"] = pct("adaptation.train_step_ms", 50)
    out["adaptation.train_step_ms.p99"] = pct("adaptation.train_step_ms", 99)
    out["adaptation.adapt_step_ms.p50"] = pct("adaptation.adapt_step_ms", 50)
    out["adaptation.adapt_step_ms.p95"] = pct("adaptation.adapt_step_ms", 95)
    for name in IO_SPANS:
        out[f"{name}.s"] = total(name)
        out[f"{name}.calls"] = calls(name)
    out["cli.adapt.glue_s"] = total("cli.adapt") - total("adaptation.adapt_source_free") if calls("cli.adapt") else 0.0
    # Counters are per pass and checked equal across the traced passes.
    out.update(exact_counters(run.tracers[0]))
    traced = median(run.traced_s)
    untraced = median([t1 - t0 for t0, t1 in run.pass_spans])
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    out["trace.uncovered_frac"] = self_time(Tracer.ROOT) / total(Tracer.ROOT)
    return out


# ---------------------------------------------------------------- output


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


def run_one(args, spec) -> int:
    from workloads import WORKLOADS, experiment_seed

    workload = WORKLOADS[args.workload]
    run = Run(workload, args.seed, args.seconds, bool(args.trace))
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        run.execute(workdir)
    except Exception:
        traceback.print_exc()
        attempted = max(1, sum(o.ops for o in run.outcomes) + 1)
        emit({"correct": False, "attempted": attempted, "failed": 1, "metrics": {}})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = run.attempted_failed()
    print(f"workload {workload.name}  seed {args.seed} (experiment seed {experiment_seed(args.seed)})  trace {args.trace}")
    print("host " + json.dumps(host_block(args.seed)))
    print("fingerprint " + json.dumps(run.outcomes[-1].fingerprint))
    print("quality " + json.dumps(run.quality()))
    for name, ok, detail in run.checks:
        print(f"check {'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    if args.trace:
        values = per_layer(run)
        listed = spec["per_layer"]
        for m in listed:
            print(f"layer {m['name']} = {values[m['name']]!r} {m['unit']}  -> {moves(m['name'])}")
    else:
        values = run.end_to_end()
        raw = run.end_to_end(scale=False)
        listed = spec["end_to_end"]
        counts = run.sample_counts()
        print(f"host_speed = {run.host_speed():.4f} x reference ({len(run.clock.speedometer.readings)} readings)")
        for m in listed:
            n = counts.get(m["name"])
            note = f"  (median of n={n}; unscaled {raw[m['name']]:.6g})" if n else ""
            print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}{note}")
        print(f"metric error_rate = {failed / attempted!r} 1  ({failed} failed of {attempted} attempted)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    emit({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    from workloads import WORKLOADS

    combined, attempted, failed, status = {}, 0, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"attempted": 1, "failed": 1, "metrics": {}}
        attempted += result["attempted"]
        failed += result["failed"]
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    emit({"correct": failed == 0 and status == 0, "attempted": attempted, "failed": failed, "metrics": combined})
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    import_program()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
