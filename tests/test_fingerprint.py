"""Pinned bytes of the standard-preset dataset splits (format version 1).

The constants are the SHA-256 of every TNS1 file that
`write_dataset(standard_shift_spec(0))` writes. A constant changes only in a
change that says why the data moved. The float64 arithmetic behind the
images runs through numpy's SIMD loops, so the stack the constants were made
on is stored next to them and named in any failure.
"""

import hashlib
from pathlib import Path

import numpy as np

from protoadapt.datasets import standard_shift_spec, write_dataset

PINNED_STACK = {"numpy": "2.4.6", "simd": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"}

PINNED_SHA256 = {
    "source/images.tns1": "35b145f867a9dac111e36b26d6a5f7b6a137b389c7d8457527941bedccdfd4fd",
    "source/labels.tns1": "c698c1cfe8083abf372a065e106654c03fbe0a3f3ffca5c0010188ec597938f7",
    "target_train/images.tns1": "0d9647362154403930ee94c29467ba8af6917a943c5d26aff68620767f3762f8",
    "target_eval/images.tns1": "a819ec03a6516b207a941f7221376589763cf13026623c6ed1a3680f624a7dd1",
    "target_eval/labels.tns1": "1c23414a29d1d0c9c5cecccc80e06f97ea285b1d37815127ed80525435e14cb5",
}


def numpy_stack() -> dict:
    """numpy's version and the SIMD targets it dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return {"numpy": np.__version__, "simd": ",".join(simd)}


def test_standard_preset_split_bytes(tmp_path):
    paths = write_dataset(tmp_path, standard_shift_spec(0))
    got = {
        f"{split}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for split, directory in paths.items()
        for path in Path(directory).glob("*.tns1")
    }
    changed = sorted(k for k in {**PINNED_SHA256, **got} if got.get(k) != PINNED_SHA256.get(k))
    assert not changed, (
        f"standard-preset split bytes differ from the pinned ones in {changed}; "
        f"pinned on {PINNED_STACK}, this stack is {numpy_stack()}"
    )
