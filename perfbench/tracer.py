"""Outside-in instrumentation of the protoadapt package.

Nothing here edits the program. `Patcher` swaps a function for a wrapper in
every protoadapt module namespace that binds it (a `from .x import f` makes a
second binding that a plain `setattr` on module x would miss) and restores
the originals afterwards, checking that each attribute is the original
object again.

Two users of it:

* `StageClock` times windows of optimizer steps inside training and
  adaptation, and the forward-only inference chunks. It stays on through
  set-up and timed passes, and the end-to-end rates come from it, scaled
  by a `Speedometer` read between the samples.
* `Tracer` records a span for each layer-boundary function in
  FUNCTION_SPANS plus each dense-layer op and its backward closure, with
  counters taken at the same boundaries. It is installed only for traced
  runs.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_PACKAGE = "protoadapt"


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
    ]


class Patcher:
    """Replaces functions in every protoadapt namespace that binds them."""

    def __init__(self):
        self._patched = []  # (module, attr, original)

    def wrap(self, module_name: str, attr: str, make_wrapper) -> None:
        original = getattr(importlib.import_module(f"{_PACKAGE}.{module_name}"), attr)
        wrapper = make_wrapper(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))

    def restore(self) -> None:
        """Put every original back, newest patch first, and verify it."""
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        stale = [
            f"{mod.__name__}.{key}"
            for mod, key, original in self._patched
            if getattr(mod, key) is not original
        ]
        self._patched = []
        if stale:
            raise RuntimeError(f"patched attributes not restored: {stale}")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# ---------------------------------------------------------------- stage clock


def _pixels(images) -> int:
    shape = np.shape(images)
    return int(shape[0] * shape[1] * shape[2])


# Median time of `Speedometer.read` on the host the baseline was taken on
# (2 cores, OpenBLAS on one thread). It only sets the scale of the
# speed-adjusted rates; parent and change share it.
REFERENCE_S = 1.6e-3


class Speedometer:
    """A fixed numpy kernel, timed between samples of the program's work.

    The host is shared, and its speed drifts by up to ±30% over tens of
    seconds, with every kernel on it slowing or speeding up together. The
    kernel runs the kind of work the program does (float32 matmuls of the
    model's shapes and a ReLU) and depends on nothing in the program, so its
    time measures the host's speed at that moment and not the program's.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.random((2048, 27), dtype=np.float32)
        self._w1 = rng.random((27, 64), dtype=np.float32)
        self._w2 = rng.random((64, 32), dtype=np.float32)
        self._g = np.ones((2048, 32), dtype=np.float32)
        self.readings = []  # (start, seconds)
        self.last = None

    def read(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            h = np.maximum(self._x @ self._w1, 0.0)
            h @ self._w2
            h.T @ self._g
        self.last = time.perf_counter() - t0
        self.readings.append((t0, self.last))
        return self.last

    def scaled_time(self, start: float, end: float) -> float:
        """How long [start, end] would have taken at the reference speed.

        Each stretch up to a reading is weighted by the host speed that
        reading shows, smoothed as the median of it and its neighbours so
        that one disturbed reading moves one stretch only a little.
        """
        inside = [(t, s) for t, s in self.readings if start <= t <= end]
        if not inside:
            raise RuntimeError("no speedometer reading inside the interval")
        seconds = [s for _, s in inside]
        smooth = [statistics.median(seconds[max(0, i - 1) : i + 2]) for i in range(len(seconds))]
        total, prev = 0.0, start
        for (t, _), s in zip(inside, smooth):
            total += (t - prev) * REFERENCE_S / s
            prev = t
        return total + (end - prev) * REFERENCE_S / smooth[-1]


class StageClock(Patcher):
    """Step and chunk rates of the training, adaptation and inference stages.

    Steps are timed in windows of STEP_WINDOWS[stage] optimizer steps and
    inference in `forward_embed` chunks of up to 64 images. With a
    speedometer, one reading follows every window and every CHUNKS_PER_READING
    chunks (outside the timed samples), and each sample is stored next to
    the latest reading, so it can be scaled to the reference host speed.
    """

    STEP_WINDOWS = {"train_source": 50, "adapt_source_free": 10}
    CHUNKS_PER_READING = 8

    def __init__(self, speedometer: Speedometer | None):
        super().__init__()
        self.speedometer = speedometer
        self.results = defaultdict(list)  # stage -> return value of each call
        self.windows = defaultdict(list)  # stage -> (steps per second, reading)
        self.chunks = []  # (pixels per second, reading)
        self._stage = None
        for name in self.STEP_WINDOWS:
            self.wrap("adaptation", name, self._stage_timer(name))
        self.wrap("autodiff", "adam_step", self._step_timer)
        self.wrap("autodiff", "forward_embed", self._chunk_timer)

    def _reading(self):
        if self.speedometer is None:
            return None
        return self.speedometer.read()

    def _stage_timer(self, name):
        def make(fn):
            def timed(*args, **kwargs):
                outer = self._stage
                self._stage = [name, 0, time.perf_counter()]  # stage, steps, window start
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stage = outer
                self.results[name].append(result)
                return result

            return timed

        return make

    def _step_timer(self, fn):
        def timed(*args, **kwargs):
            result = fn(*args, **kwargs)
            stage = self._stage
            if stage is not None:
                stage[1] += 1
                window = self.STEP_WINDOWS[stage[0]]
                if stage[1] % window == 0:
                    rate = window / (time.perf_counter() - stage[2])
                    self.windows[stage[0]].append((rate, self._reading()))
                    stage[2] = time.perf_counter()
            return result

        return timed

    def _chunk_timer(self, fn):
        def timed(model, images):
            t0 = time.perf_counter()
            result = fn(model, images)
            dt = time.perf_counter() - t0
            if self.speedometer is not None and (
                self.speedometer.last is None or len(self.chunks) % self.CHUNKS_PER_READING == 0
            ):
                self.speedometer.read()
            last = self.speedometer.last if self.speedometer is not None else None
            self.chunks.append((_pixels(images) / dt, last))
            return result

        return timed

    @staticmethod
    def scaled(samples) -> list:
        """Rates scaled to the reference host speed: rate * reading / REFERENCE_S."""
        return [rate * reading / REFERENCE_S for rate, reading in samples]

    @staticmethod
    def raw(samples) -> list:
        return [rate for rate, _ in samples]


# ---------------------------------------------------------------- tracer


class _Frame:
    __slots__ = ("name", "start", "child", "mark", "draws")

    def __init__(self, name, start, draws):
        self.name = name
        self.start = start
        self.child = 0.0
        self.mark = start  # time of the last optimizer step in this stage
        self.draws = draws  # gmm draw count when the span opened


# Function spans: (module, attribute, span name). Spans nest by call order;
# a span's self time is its duration minus the time of its child spans.
FUNCTION_SPANS = [
    ("datasets", "gen_grid_seg", "datasets.gen_grid_seg"),
    ("datasets", "load_split", "datasets.load_split"),
    ("autodiff", "pixel_features", "autodiff.pixel_features"),
    ("autodiff", "backward", "autodiff.backward"),
    ("autodiff", "adam_step", "autodiff.adam_step"),
    ("autodiff", "init_model", "autodiff.init_model"),
    ("autodiff", "load_model", "autodiff.load_model"),
    ("autodiff", "save_model", "autodiff.save_model"),
    ("swd", "sliced_wasserstein_grad", "swd.sliced_wasserstein_grad"),
    ("swd", "sliced_wasserstein_sq", "swd.sliced_wasserstein_sq"),
    ("swd", "exact_wasserstein_sq_small", "swd.exact_wasserstein_sq_small"),
    ("gmm", "generate_pseudo_dataset", "gmm.generate_pseudo_dataset"),
    ("gmm", "build_support_sets", "gmm.build_support_sets"),
    ("gmm", "estimate_gmm", "gmm.estimate_gmm"),
    ("gmm", "load_gmm", "gmm.load_gmm"),
    ("gmm", "save_gmm", "gmm.save_gmm"),
    ("linalg", "sample_gaussian", "linalg.sample_gaussian"),
    ("fileformats", "save_embeddings", "fileformats.save_embeddings"),
    ("adaptation", "train_source", "adaptation.train_source"),
    ("adaptation", "estimate_stage", "adaptation.estimate_stage"),
    ("adaptation", "adapt_source_free", "adaptation.adapt_source_free"),
    ("adaptation", "evaluate_miou", "adaptation.evaluate_miou"),
    ("adaptation", "pixel_embeddings", "adaptation.pixel_embeddings"),
    ("adaptation", "pixel_error", "adaptation.pixel_error"),
    ("adaptation", "compute_bound_diagnostics", "adaptation.compute_bound_diagnostics"),
    ("adaptation", "_clone_model", "adaptation.clone_model"),
    ("cli", "cmd_estimate", "cli.estimate"),
    ("cli", "cmd_adapt", "cli.adapt"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_export_embeddings", "cli.export-embeddings"),
    ("cli", "cmd_diagnose", "cli.diagnose"),
]

# Tape ops timed per dense layer; `_dense_stack` looks them up as autodiff
# globals at call time, so patching the module attribute reaches it.
DENSE_OPS = ("vmatmul", "vadd", "vrelu")
SOFTMAX_CE_OPS = ("vsoftmax", "vcross_entropy")

TRAIN_STAGE = "adaptation.train_source"
ADAPT_STAGE = "adaptation.adapt_source_free"


def _split_bytes(directory) -> int:
    names = ("images.tns1", "labels.tns1", "manifest.txt")
    paths = [os.path.join(directory, n) for n in names]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


class Tracer(Patcher):
    """Span and counter recorder for one traced phase."""

    ROOT = "pass"

    def __init__(self):
        super().__init__()
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.samples = defaultdict(list)  # per-call or per-step durations in ms
        self.counts = defaultdict(float)
        self.layer_of = {}  # Parameter -> dense layer name
        self._stack = []
        self._after = {
            "datasets.gen_grid_seg": self._after_gen,
            "datasets.load_split": self._after_load_split,
            "autodiff.pixel_features": self._after_pixel_features,
            "autodiff.backward": self._after_backward,
            "autodiff.adam_step": self._after_adam,
            "autodiff.init_model": self._after_model,
            "autodiff.load_model": self._after_load_model,
            "adaptation.clone_model": self._after_model,
            "autodiff.save_model": self._after_save,
            "gmm.save_gmm": self._after_save,
            "fileformats.save_embeddings": self._after_save,
            "gmm.load_gmm": self._after_load_file,
            "swd.sliced_wasserstein_grad": self._after_swd_grad,
            "gmm.generate_pseudo_dataset": self._after_pseudo,
            "linalg.sample_gaussian": self._after_sample,
        }
        for module, attr, name in FUNCTION_SPANS:
            self.wrap(module, attr, self._function_span(name))
        for op in DENSE_OPS:
            self.wrap("autodiff", op, self._dense_span(op))
        for op in SOFTMAX_CE_OPS:
            self.wrap("autodiff", op, self._op_span("autodiff.softmax_ce"))

    # -- span bookkeeping

    def _open(self, name) -> _Frame:
        frame = _Frame(name, time.perf_counter(), self.counts["gmm.draws"])
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        dt = time.perf_counter() - frame.start
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += dt
        st = self.stats[frame.name]
        st[0] += 1
        st[1] += dt
        st[2] += dt - frame.child
        return dt

    def _stage(self, name):
        for frame in reversed(self._stack):
            if frame.name == name:
                return frame
        return None

    @contextmanager
    def root(self):
        """The span that encloses one timed pass."""
        frame = self._open(self.ROOT)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers

    def _function_span(self, name):
        after = self._after.get(name)

        def make(fn):
            def span(*args, **kwargs):
                frame = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = self._close(frame)
                if after is not None:
                    after(frame, dt, args, result)
                return result

            return span

        return make

    def _timed_backward(self, name, bwd):
        def timed(g):
            frame = self._open(name)
            try:
                return bwd(g)
            finally:
                self._close(frame)

        return timed

    def _op_span(self, prefix):
        def make(fn):
            def span(tape, *args):
                frame = self._open(prefix + ".fwd")
                try:
                    node = fn(tape, *args)
                finally:
                    self._close(frame)
                node.backward_fn = self._timed_backward(prefix + ".bwd", node.backward_fn)
                return node

            return span

        return make

    def _dense_span(self, op):
        def make(fn):
            def span(tape, a, *rest):
                if op == "vrelu":
                    # vrelu's input is a vadd node whose second parent is the bias.
                    param = a.parents[1].param if len(a.parents) == 2 else None
                else:
                    param = rest[0].param
                    if op == "vmatmul":
                        self.counts["autodiff.forward_rows"] += a.data.shape[0]
                prefix = f"autodiff.dense.{self.layer_of.get(param, 'other')}"
                frame = self._open(prefix + ".fwd")
                try:
                    node = fn(tape, a, *rest)
                finally:
                    self._close(frame)
                node.backward_fn = self._timed_backward(prefix + ".bwd", node.backward_fn)
                return node

            return span

        return make

    # -- counters taken at span boundaries

    def _after_gen(self, frame, dt, args, result):
        self.counts["datasets.gen_grid_seg.images"] += result[0].shape[0]

    def _after_load_split(self, frame, dt, args, result):
        self.counts["fileformats.bytes_read"] += _split_bytes(args[0])

    def _after_load_file(self, frame, dt, args, result):
        self.counts["fileformats.bytes_read"] += os.path.getsize(args[0])

    def _after_load_model(self, frame, dt, args, result):
        self._after_load_file(frame, dt, args, result)
        self._after_model(frame, dt, args, result)

    def _after_save(self, frame, dt, args, result):
        self.counts["fileformats.bytes_written"] += os.path.getsize(args[0])

    def _after_model(self, frame, dt, args, model):
        for prefix, layers in (
            ("enc", model.encoder_layers),
            ("dec", model.decoder_layers),
            ("cls", model.classifier_layers),
        ):
            for i, (w, b) in enumerate(layers):
                self.layer_of[w] = self.layer_of[b] = f"{prefix}{i}"

    def _after_pixel_features(self, frame, dt, args, result):
        self.counts["autodiff.pixel_features.bytes"] += result.nbytes

    def _after_backward(self, frame, dt, args, result):
        tape = args[0]
        stage = "train" if self._stage(TRAIN_STAGE) else "adapt" if self._stage(ADAPT_STAGE) else None
        if stage is not None:
            self.counts[f"autodiff.tape_nodes.{stage}"] += len(tape.nodes)
            self.counts[f"autodiff.backward_calls.{stage}"] += 1
        # Gradients computed for leaves that are not parameters are never read.
        self.counts["autodiff.leaf_grad_bytes"] += sum(
            n.grad.nbytes
            for n in tape.nodes
            if not n.parents and n.param is None and n.grad is not None
        )
        self.counts["autodiff.backward_calls"] += 1

    def _after_adam(self, frame, dt, args, result):
        # Optimizer returns delimit steps: a step runs from the previous
        # return (or the stage's start) to this one.
        now = time.perf_counter()
        for stage, key in ((TRAIN_STAGE, "adaptation.train_step_ms"), (ADAPT_STAGE, "adaptation.adapt_step_ms")):
            owner = self._stage(stage)
            if owner is not None:
                self.samples[key].append((now - owner.mark) * 1e3)
                owner.mark = now
                return

    def _after_swd_grad(self, frame, dt, args, result):
        x, y, cfg = args[0], args[1], args[2]
        directions = args[4] if len(args) > 4 else None
        L = cfg.num_projections if directions is None else np.shape(directions)[0]
        self.counts["swd.sliced_wasserstein_grad.proj_points"] += min(len(x), len(y)) * L
        self.samples["swd.sliced_wasserstein_grad.ms"].append(dt * 1e3)

    def _after_sample(self, frame, dt, args, result):
        self.counts["gmm.draws"] += args[2]

    def _after_pseudo(self, frame, dt, args, result):
        drawn = self.counts["gmm.draws"] - frame.draws
        self.counts["gmm.kept"] += round(result.kept_fraction * drawn)

    # -- summary

    def calls(self, name) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def self_time(self, name) -> float:
        return self.stats[name][2] if name in self.stats else 0.0
