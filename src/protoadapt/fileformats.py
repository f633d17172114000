"""Binary artifact formats.

All multi-byte fields are little-endian.

TNS1 tensor block:
    magic "TNS1" | u32 rank | rank x u32 dims | prod(dims) x f32 data
A block whose dims ask for more payload than the file has left is
rejected before any payload is read.

EMB1 embedding export:
    magic "EMB1" | one TNS1 block of shape [n, d+2]
    Columns: d embedding coordinates, true label, predicted label.

Every loader is one `read_framed` call: it checks the magic and rejects
trailing bytes, and its errors name the file. Every writer opens its file
with `open_output`, which makes its directory and writes its magic. The
MDL1 and GMM1 layouts stay with their types, in the autodiff and gmm modules.

Text records (configs, sidecars, manifests, diagnostics) are key=value
lines; `parse_values` and `format_values` map them to and from typed
dataclass fields. A field declared with `bounded` carries its value range,
which its record's constructor checks with `check_ranges`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import struct
import typing

import numpy as np

from .errors import ConfigError, FileFormatError

TNS1_MAGIC = b"TNS1"
MDL1_MAGIC = b"MDL1"
GMM1_MAGIC = b"GMM1"
EMB1_MAGIC = b"EMB1"


def _read_exact(f, n: int) -> bytes:
    buf = f.read(n)
    if len(buf) != n:
        raise FileFormatError(f"truncated file: wanted {n} bytes, got {len(buf)}")
    return buf


def read_u32(f) -> int:
    return struct.unpack("<I", _read_exact(f, 4))[0]


def write_u32(f, value: int) -> None:
    f.write(struct.pack("<I", value))


def read_f32(f) -> float:
    return struct.unpack("<f", _read_exact(f, 4))[0]


def write_f32(f, value: float) -> None:
    f.write(struct.pack("<f", value))


def write_tns1(f, arr: np.ndarray) -> None:
    """One TNS1 block of `arr` at its own rank (0-d included), written from
    its C-order little-endian float32 buffer, converted only if it is not
    one already."""
    a = np.asarray(arr, dtype="<f4", order="C")
    write_tns1_header(f, a.shape)
    f.write(a.data)


def write_tns1_header(f, shape) -> None:
    """The TNS1 fields before the payload: magic, rank, dims."""
    f.write(TNS1_MAGIC)
    write_u32(f, len(shape))
    for dim in shape:
        write_u32(f, dim)


def read_tns1(f) -> np.ndarray:
    magic = _read_exact(f, 4)
    if magic != TNS1_MAGIC:
        raise FileFormatError(f"bad tensor magic {magic!r}")
    rank = read_u32(f)
    shape = tuple(read_u32(f) for _ in range(rank))
    nbytes = 4 * math.prod(shape)
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if nbytes > left:
        raise FileFormatError(f"tensor payload of {nbytes} bytes exceeds the {left} bytes left")
    try:
        data = np.empty(shape, "<f4")
    except ValueError:  # a zero dim next to dims numpy cannot index
        raise FileFormatError(f"tensor shape {shape} is not a valid array shape") from None
    got = f.readinto(data)  # the payload's one copy
    if got != nbytes:
        raise FileFormatError(f"truncated file: wanted {nbytes} bytes, got {got}")
    return data.astype(np.float32, copy=False)


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise FileFormatError naming `what`, the first NaN or +-inf value of
    `arr` in C order and its index, if there is one."""
    if np.isfinite(arr).all():
        return
    at = np.unravel_index(np.argmin(np.isfinite(arr)), arr.shape)
    raise FileFormatError(
        f"{what} value {float(arr[at]):g} at index {tuple(map(int, at))} is not finite"
    )


def read_framed(path, magic: bytes, parse):
    """`parse(f)` of the file at `path` after its 4-byte `magic`.

    A bare TNS1 file is handed to `parse` from its first byte, since
    `read_tns1` checks that magic itself. Bytes left after `parse` are
    rejected, and every FileFormatError raised here names `path`.
    """
    try:
        with open(path, "rb") as f:
            if magic != TNS1_MAGIC and (found := _read_exact(f, 4)) != magic:
                raise FileFormatError(f"bad magic {found!r}, expected {magic!r}")
            out = parse(f)
            if f.read(1):
                raise FileFormatError("trailing bytes after payload")
    except FileFormatError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return out


def open_output(path, magic: bytes = b"", text: bool = False):
    """`path` opened for writing, its directory created if missing: in text
    mode for key=value and CSV records, else in binary mode after `magic`."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    if text:
        return open(path, "w", newline="")
    f = open(path, "wb")
    f.write(magic)
    return f


def save_tensor(path, arr: np.ndarray) -> None:
    with open_output(path) as f:
        write_tns1(f, arr)


def load_tensor(path) -> np.ndarray:
    return read_framed(path, TNS1_MAGIC, read_tns1)


EMB1_BLOCK_ROWS = 65536  # rows per block that `save_embeddings` writes


def save_embeddings(path, embeddings: np.ndarray, true_labels, pred_labels) -> None:
    """EMB1 export: [n, d+2] block of (embedding, true label, predicted label),
    written EMB1_BLOCK_ROWS rows at a time; `true_labels` may be one value
    for every row."""
    emb = np.asarray(embeddings)
    n, d = emb.shape
    true = np.asarray(true_labels).reshape(-1)
    true = np.broadcast_to(true, (n,)) if true.size == 1 else true
    pred = np.asarray(pred_labels).reshape(-1)
    if true.shape != (n,) or pred.shape != (n,):
        raise ValueError(f"{n} embedding rows but {true.size} true and {pred.size} predicted labels")
    block = np.empty((min(n, EMB1_BLOCK_ROWS), d + 2), "<f4")
    with open_output(path, EMB1_MAGIC) as f:
        write_tns1_header(f, (n, d + 2))
        for start in range(0, n, EMB1_BLOCK_ROWS):
            rows = block[: min(EMB1_BLOCK_ROWS, n - start)]
            at = slice(start, start + rows.shape[0])
            rows[:, :d], rows[:, d], rows[:, d + 1] = emb[at], true[at], pred[at]
            f.write(rows.data)


def load_embeddings(path) -> np.ndarray:
    return read_framed(path, EMB1_MAGIC, read_tns1)


def file_sha256(path) -> str:
    """The hex SHA-256 of the bytes of the file at `path`."""
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def write_keyvalue(path, mapping: dict) -> None:
    """Plain key=value text file, one pair per line."""
    with open_output(path, text=True) as f:
        for key, value in mapping.items():
            f.write(f"{key}={value}\n")


def read_keyvalue(path) -> dict:
    try:
        with open(path) as f:
            lines = f.read().split("\n")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not a key=value text file: {exc}") from None
    out = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}: malformed key=value line: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_BOOL_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_scalar(kind, key: str, raw: str):
    try:
        return _BOOL_VALUES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None


def parse_values(types: dict, raw_values: dict, what: str) -> dict:
    """Coerce key=value strings to the annotated field types in `types`.

    `types` maps keys to annotations as `typing.get_type_hints` returns
    them: scalars, `X | None` (parsed as X) and `tuple[X, ...]` (comma
    separated). Unknown keys and values that fail to parse raise
    ConfigError naming the key.
    """
    values = {}
    for key, raw in raw_values.items():
        if key not in types:
            raise ConfigError(f"unknown {what} key: {key}")
        kind = types[key]
        args = [a for a in typing.get_args(kind) if a is not type(None)]
        if typing.get_origin(kind) is tuple:
            values[key] = tuple(_parse_scalar(args[0], key, x) for x in raw.split(",") if x)
        else:
            values[key] = _parse_scalar(args[0] if args else kind, key, raw)
    return values


def format_values(values: dict) -> dict:
    """Field values as `parse_values` reads them back: tuples as comma
    lists, and values at None omitted (key=value has no spelling for None)."""
    return {
        k: ",".join(str(x) for x in v) if isinstance(v, tuple) else v
        for k, v in values.items()
        if v is not None
    }


def bounded(default, low, high=math.inf, closed=False):
    """A dataclass field (with no default at dataclasses.MISSING) whose value,
    or each element of a tuple, lies in [low, high), or [low, high] if
    `closed`. A float `low` marks a float field, which must also be finite."""
    return dataclasses.field(default=default, metadata={"range": (low, high, closed)})


def _spell(end) -> str:
    """A range end as messages spell it: an int power of two from 2**16 as 2**n."""
    return f"2**{end.bit_length() - 1}" if isinstance(end, int) and end >= 2**16 and end.bit_count() == 1 else f"{end:g}"


def check_ranges(record, what: str) -> None:
    """Raise ConfigError naming the record `what`, the key and the value at
    the first `bounded` field of `record` outside its range. NaN is outside
    every range, a tuple is checked element by element, and None is skipped."""
    for f in (f for f in dataclasses.fields(record) if "range" in f.metadata):
        low, high, closed = f.metadata["range"]
        value = getattr(record, f.name)
        values = () if value is None else value if isinstance(value, tuple) else (value,)
        if all(low <= x < high or (closed and x == high) for x in values):
            continue
        if high < math.inf:
            want = f"in [{_spell(low)}, {_spell(high)}{']' if closed else ')'}"
        else:
            want = f"{'finite and ' if isinstance(low, float) else ''}>= {_spell(low)}"
        raise ConfigError(f"{what} {f.name} must be {want}, got {value}")
