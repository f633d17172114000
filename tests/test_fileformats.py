"""Binary formats: TNS1 framing, EMB1 exports, key=value sidecars."""

import io
import re
import struct
import tracemalloc

import numpy as np
import pytest

from protoadapt.autodiff import init_model, load_model, save_model
from protoadapt.errors import FileFormatError
from protoadapt.fileformats import (
    load_embeddings,
    load_tensor,
    read_keyvalue,
    read_tns1,
    save_embeddings,
    save_tensor,
    write_keyvalue,
    write_tns1,
)
from protoadapt.gmm import PrototypicalGMM, load_gmm, save_gmm
from protoadapt.rng import Rng


def test_tns1_roundtrip(tmp_path):
    arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    path = tmp_path / "t.tns1"
    save_tensor(path, arr)
    out = load_tensor(path)
    assert out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()


@pytest.mark.parametrize(
    "arr",
    [
        np.float32(3.5),
        np.array([1.5, -0.0, np.inf], dtype=np.float32),
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(24, dtype=np.float32).reshape(2, 3, 4),
        np.zeros((2, 0, 4), dtype=np.float32),
        np.linspace(-1.0, 1.0, 15).reshape(3, 5),
        np.arange(24, dtype=np.float32).reshape(2, 3, 4)[:, ::2, ::-1],
        np.arange(12.0).reshape(3, 4).T,
    ],
    ids=["rank0", "rank1", "rank2", "rank3", "zero-size", "float64", "strided", "transposed-float64"],
)
def test_tns1_roundtrip_keeps_rank_and_payload(tmp_path, arr):
    path = tmp_path / "t.tns1"
    save_tensor(path, arr)
    data = path.read_bytes()
    rank = np.ndim(arr)
    assert struct.unpack_from(f"<{rank + 1}I", data, 4) == (rank, *np.shape(arr))
    # the payload is the float32 values' little-endian bytes in C order
    assert data[8 + 4 * rank :] == np.ascontiguousarray(arr, dtype=np.float32).astype("<f4").tobytes()
    out = load_tensor(path)
    assert out.shape == np.shape(arr) and out.dtype == np.float32
    assert out.tobytes() == np.asarray(arr, dtype=np.float32).tobytes()


def test_tns1_exact_byte_layout():
    arr = np.array([[1.0, 2.0]], dtype=np.float32)
    buf = io.BytesIO()
    write_tns1(buf, arr)
    expected = (
        b"TNS1"
        + struct.pack("<I", 2)
        + struct.pack("<II", 1, 2)
        + struct.pack("<ff", 1.0, 2.0)
    )
    assert buf.getvalue() == expected


def test_tns1_bad_magic():
    buf = io.BytesIO(b"XXXX" + struct.pack("<I", 1))
    with pytest.raises(FileFormatError):
        read_tns1(buf)


def test_tns1_truncated_payload():
    buf = io.BytesIO()
    write_tns1(buf, np.ones((4, 4), dtype=np.float32))
    data = buf.getvalue()[:-3]
    with pytest.raises(FileFormatError):
        read_tns1(io.BytesIO(data))


class _ShortStream(io.BytesIO):
    """A stream whose end, as seek reports it, lies 8 bytes past its last
    byte, so a short payload passes the size check and meets the read."""

    def seek(self, pos, whence=io.SEEK_SET):
        return super().seek(pos, whence) + (8 if whence == io.SEEK_END else 0)


def test_tns1_short_read_names_wanted_and_got():
    buf = io.BytesIO()
    write_tns1(buf, np.ones((4, 4), dtype=np.float32))
    with pytest.raises(FileFormatError, match="truncated file: wanted 64 bytes, got 61"):
        read_tns1(_ShortStream(buf.getvalue()[:-3]))


def test_load_tensor_holds_one_payload(tmp_path):
    arr = np.arange(1 << 20, dtype=np.float32).reshape(1024, 1024)  # a 4 MiB payload
    path = tmp_path / "t.tns1"
    save_tensor(path, arr)
    tracemalloc.start()
    try:
        out = load_tensor(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * arr.nbytes, f"loading peaked at {peak / arr.nbytes:.2f}x the payload"
    assert out.dtype == np.float32 and out.flags.writeable and np.array_equal(out, arr)


def test_tns1_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.tns1"
    save_tensor(path, np.ones(3, dtype=np.float32))
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(FileFormatError):
        load_tensor(path)


def test_emb1_roundtrip(tmp_path):
    emb = np.random.default_rng(0).normal(size=(10, 5)).astype(np.float32)
    true_l = np.arange(10) % 3
    pred_l = (np.arange(10) + 1) % 3
    path = tmp_path / "e.emb1"
    save_embeddings(path, emb, true_l, pred_l)
    out = load_embeddings(path)
    assert out.shape == (10, 7)
    np.testing.assert_array_equal(out[:, :5], emb)
    np.testing.assert_array_equal(out[:, 5], true_l.astype(np.float32))
    np.testing.assert_array_equal(out[:, 6], pred_l.astype(np.float32))


def _tiny_files(tmp_path):
    """One small file of each binary format, with its loader."""
    files = {}
    files["tns1"] = (tmp_path / "t.tns1", load_tensor)
    save_tensor(files["tns1"][0], np.arange(6, dtype=np.float32).reshape(2, 3))
    files["mdl1"] = (tmp_path / "m.mdl1", load_model)
    save_model(files["mdl1"][0], init_model(2, 2, encoder_hidden=(3,), rng=Rng(0)))
    files["gmm1"] = (tmp_path / "g.gmm1", load_gmm)
    gmm = PrototypicalGMM(np.array([0.5, 0.5]), np.zeros((2, 2)), np.stack([np.eye(2)] * 2), 0.5)
    save_gmm(files["gmm1"][0], gmm)
    files["emb1"] = (tmp_path / "e.emb1", load_embeddings)
    save_embeddings(files["emb1"][0], np.ones((3, 2)), np.arange(3), np.arange(3))
    return files


@pytest.mark.parametrize("fmt", ["tns1", "mdl1", "gmm1", "emb1"])
def test_every_truncation_and_one_extra_byte_rejected(tmp_path, fmt):
    path, load = _tiny_files(tmp_path)[fmt]
    data = path.read_bytes()
    load(path)  # the intact file loads
    bad = tmp_path / "bad"
    for cut in [*range(len(data)), None]:
        bad.write_bytes(data[:cut] if cut is not None else data + b"\x00")
        with pytest.raises(FileFormatError):
            load(bad)


@pytest.mark.parametrize("damage", ["wrong-magic", "truncated", "trailing-byte"])
@pytest.mark.parametrize("fmt", ["tns1", "mdl1", "gmm1", "emb1"])
def test_loader_error_names_the_file(tmp_path, fmt, damage):
    path, load = _tiny_files(tmp_path)[fmt]
    data = path.read_bytes()
    damaged = {"wrong-magic": b"XXXX" + data[4:], "truncated": data[:-1], "trailing-byte": data + b"\x00"}
    path.write_bytes(damaged[damage])
    with pytest.raises(FileFormatError) as exc:
        load(path)
    assert str(exc.value).startswith(f"{path}: ")


def _tns1_header(data: bytes, at: int):
    """(bytes of the magic, rank and dims of the TNS1 block at `at`, its end)."""
    rank = struct.unpack_from("<I", data, at + 4)[0]
    dims = struct.unpack_from(f"<{rank}I", data, at + 8)
    header_end = at + 8 + 4 * rank
    return range(at, header_end), header_end + 4 * int(np.prod(dims))


def _structural_bytes(fmt: str, data: bytes) -> list:
    """Offsets of every magic, rank, dim, count, header and trailer byte.

    GMM1's f32 tau_fit is payload: format version 1 has no checksum for it.
    """
    ranges, at, blocks = [range(0, 4)], 4, 1
    if fmt == "tns1":
        at = 0
    elif fmt == "mdl1":
        ranges.append(range(4, 8))
        at, blocks = 8, struct.unpack_from("<I", data, 4)[0]
        ranges.append(range(len(data) - 28, len(data)))
    elif fmt == "gmm1":
        ranges.append(range(4, 12))
        at, blocks = 16, 3
    for _ in range(blocks):
        header, at = _tns1_header(data, at)
        ranges.append(header)
    return sorted({i for r in ranges for i in r})


def _loaded_arrays(obj) -> list:
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, PrototypicalGMM):
        return [obj.alpha, obj.mu, obj.sigma, np.array(obj.tau_fit)]
    layers = (obj.encoder_layers, obj.decoder_layers, obj.classifier_layers)
    sizes = np.array([len(x) for x in layers] + [obj.neighborhood])
    return [sizes] + [p.data for p in obj.parameters()]


@pytest.mark.parametrize("fmt", ["tns1", "mdl1", "gmm1", "emb1"])
def test_every_structural_bit_flip_loads_same_or_rejected(tmp_path, fmt):
    path, load = _tiny_files(tmp_path)[fmt]
    data = path.read_bytes()
    want = _loaded_arrays(load(path))
    bad = tmp_path / "bad"
    for offset in _structural_bytes(fmt, data):
        for bit in range(8):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << bit
            bad.write_bytes(bytes(flipped))
            try:
                got = _loaded_arrays(load(bad))
            except FileFormatError:
                continue
            same = len(got) == len(want) and all(
                g.shape == w.shape and g.dtype == w.dtype and np.array_equal(g, w)
                for g, w in zip(got, want)
            )
            assert same, f"{fmt}: flipping bit {bit} of byte {offset} loaded different values"


@pytest.mark.parametrize(
    "dims",
    [(1 << 31, 1 << 31, 1 << 31), (0x80000002, 4), (0, 1 << 31, 1 << 31, 1 << 31)],
    ids=["product-overflows-int64", "34GB-payload", "zero-next-to-huge"],
)
def test_tns1_impossible_dims_rejected_before_reading(dims):
    buf = io.BytesIO(b"TNS1" + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + bytes(8))
    with pytest.raises(FileFormatError, match="bytes left|valid array shape"):
        read_tns1(buf)


def test_emb1_bad_magic(tmp_path):
    path = tmp_path / "e.emb1"
    save_tensor(path, np.ones((2, 2), dtype=np.float32))  # TNS1 magic, not EMB1
    with pytest.raises(FileFormatError):
        load_embeddings(path)


def test_keyvalue_roundtrip(tmp_path):
    path = tmp_path / "c.txt"
    write_keyvalue(path, {"alpha": 1, "name": "x y", "f": 0.5})
    out = read_keyvalue(path)
    assert out == {"alpha": "1", "name": "x y", "f": "0.5"}


def test_keyvalue_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# comment\n\nk=v\n")
    assert read_keyvalue(path) == {"k": "v"}


def test_keyvalue_malformed(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("not-a-pair\n")
    with pytest.raises(FileFormatError, match=f"^{re.escape(str(path))}: malformed"):
        read_keyvalue(path)
