"""The benchmark tracer patches package functions by name; each must exist."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def _resolve(module: str, attr: str):
    return getattr(importlib.import_module(f"protoadapt.{module}"), attr, None)


def test_function_spans_resolve():
    missing = [f"{m}.{a}" for m, a, _ in tracer.FUNCTION_SPANS if not callable(_resolve(m, a))]
    assert not missing, f"benchmark spans name missing functions: {missing}"


def test_tape_ops_and_stages_resolve():
    names = [("autodiff", op) for op in (*tracer.DENSE_OPS, *tracer.SOFTMAX_CE_OPS)]
    names += [("adaptation", stage) for stage in tracer.StageClock.STEP_WINDOWS]
    names += [("autodiff", "adam_step"), ("autodiff", "forward_embed")]
    missing = [f"{m}.{a}" for m, a in names if not callable(_resolve(m, a))]
    assert not missing, f"benchmark hooks name missing functions: {missing}"
