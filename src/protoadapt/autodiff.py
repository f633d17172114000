"""Reverse-mode differentiation and the encoder/decoder/classifier model.

The tape records every op of one forward pass in creation order; backward
walks the list once in reverse. Arrays flow through in whatever dtype the
leaves carry: float32 in production, float64 when gradient-checking.

Which nodes receive a gradient: every op node on a path to the loss, and
every parameter leaf (`Tape.watch`), whose gradient `backward` returns.
A leaf that is not a parameter, such as the feature rows or the pseudo
samples fed to `vdense`, ends with `grad is None`: nothing reads it, so
`vdense` does not compute it. The general ops (`vmatmul`, `vadd`, ...)
still send a gradient to every parent. Gradients are never changed in
place: the first one a node receives is stored by reference and later
ones are added out of place.

Inference runs the same layers with no tape (`_tapeless_dense`). The
taped `vdense` applies ReLU as a mask product, which keeps -0.0 as
`vrelu` does; with no tape a hidden layer's ReLU is one in-place clamp,
which writes +0.0 there and builds no mask. Only the next layer's sgemm
reads a hidden output, and the sign of a zero never reaches its sums, so
embeddings, logits and probabilities keep their bits; a -inf
pre-activation (0 under the clamp, NaN under the mask) can only come from
a float32 overflow inside a layer, as loaded images and weights are
finite. See `_tapeless_dense` for the stacks this was checked on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DivergenceError, FileFormatError, TapeError
from .fileformats import (
    MDL1_MAGIC,
    check_finite,
    open_output,
    read_framed,
    read_tns1,
    read_u32,
    write_tns1,
    write_u32,
)
from .linalg import apply_rows, column_sum
from .rng import Rng


class Parameter:
    """A trainable float32 array."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float32)


class Value:
    __slots__ = ("data", "grad", "parents", "backward_fn", "param")

    def __init__(self, data, parents=(), backward_fn=None, param=None):
        self.data = data
        self.grad = None
        self.parents = parents
        self.backward_fn = backward_fn
        self.param = param


class Tape:
    """Op recorder for one forward pass; backward may run exactly once."""

    def __init__(self):
        self.nodes = []
        self.consumed = False

    def leaf(self, data, param: Parameter | None = None, dtype=None) -> Value:
        """A node over `data`, cast to `dtype` if given. An array that
        already has that dtype is not copied: no op writes into its inputs."""
        node = Value(np.asarray(data, dtype=dtype), param=param)
        self.nodes.append(node)
        return node

    def watch(self, param: Parameter, dtype=None) -> Value:
        return self.leaf(param.data, param=param, dtype=dtype)

    def op(self, data, parents, backward_fn) -> Value:
        node = Value(data, parents=tuple(parents), backward_fn=backward_fn)
        self.nodes.append(node)
        return node


def _accumulate(node: Value, grad: np.ndarray) -> None:
    node.grad = grad if node.grad is None else node.grad + grad


def backward(tape: Tape, loss: Value) -> dict:
    """Propagate from `loss`; returns {Parameter: gradient array}. A
    parameter watched more than once gets the sum of its leaves' gradients."""
    if tape.consumed:
        raise TapeError("backward already invoked for this tape")
    tape.consumed = True
    loss.grad = np.asarray(1.0, dtype=np.asarray(loss.data).dtype)
    for node in reversed(tape.nodes):
        if node.grad is None or node.backward_fn is None:
            continue
        for parent, grad in zip(node.parents, node.backward_fn(node.grad)):
            if grad is not None:
                _accumulate(parent, grad)
    grads = {}
    for node in tape.nodes:
        if node.param is not None:
            g = node.grad if node.grad is not None else np.zeros_like(node.data)
            grads[node.param] = grads[node.param] + g if node.param in grads else g
    return grads


# ---------------------------------------------------------------- tape ops


def vmatmul(tape: Tape, a: Value, b: Value) -> Value:
    if a.data.shape[-1] != b.data.shape[0]:
        raise DimensionError(f"matmul: {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return tape.op(out, (a, b), bwd)


def vadd(tape: Tape, a: Value, b: Value) -> Value:
    out = a.data + b.data

    def reduce_to(g, shape):
        while g.ndim > len(shape):
            g = g.sum(axis=0)
        for axis, dim in enumerate(shape):
            if dim == 1 and g.shape[axis] != 1:
                g = g.sum(axis=axis, keepdims=True)
        return g.reshape(shape)

    def bwd(g):
        return reduce_to(g, a.data.shape), reduce_to(g, b.data.shape)

    return tape.op(out, (a, b), bwd)


def vrelu(tape: Tape, a: Value) -> Value:
    mask = a.data > 0
    return tape.op(a.data * mask, (a,), lambda g: (g * mask,))


# Rows shorter than SHORT_ROW are summed column by column: numpy adds a row
# of fewer than 8 elements one at a time from +0.0 and sums longer rows
# pairwise, on every stack. It matters only for the sums (`_row_sum`).
SHORT_ROW = 8


def _row_max(a: np.ndarray) -> np.ndarray:
    """The values of `a.max(axis=-1, keepdims=True)`, folded one column at
    a time over all rows at once with `np.maximum`.

    It can differ from `a.max` only in the sign of a zero maximum (numpy's
    vector loops may pick the other zero) and in which NaN a row with
    several NaNs returns. `_softmax` keeps its bits either way: `a - max`
    is ±0 only where `a` equals the max, and exp(±0) == 1.
    """
    k = a.shape[-1]
    cols = a.reshape(-1, k)
    out = cols[:, 0].copy()
    for j in range(1, k):
        np.maximum(out, cols[:, j], out=out)
    return out.reshape(*a.shape[:-1], 1)


def _row_sum(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1, keepdims=True)`, bit for bit.

    A short row is added one column at a time starting from +0.0, as numpy
    does; starting from the first column would turn a row of -0.0 into
    -0.0 where numpy gives +0.0. Longer rows use `a.sum` (pairwise).
    """
    k = a.shape[-1]
    if k >= SHORT_ROW:
        return a.sum(axis=-1, keepdims=True)
    cols = a.reshape(-1, k)
    out = np.zeros(cols.shape[0], a.dtype)
    for j in range(k):
        out += cols[:, j]
    return out.reshape(*a.shape[:-1], 1)


def _dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`x @ w + b`, before any ReLU, for a layer's `(k,)` bias with k >= 1
    (`_read_model` refuses a zero-width layer).

    The bias is added in place on the matmul output over flat row tiles
    (`linalg.apply_rows`); that is the arithmetic of `x @ w + b` as long
    as `b` does not promote the output's dtype, which holds for float32
    models and for an all-float64 layer.
    """
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"matmul: {x.shape} x {w.shape}")
    out = x @ w
    if np.result_type(out, b) != out.dtype:
        return out + b
    apply_rows(np.add, out.reshape(-1, out.shape[-1]), b)
    return out


def vdense(tape: Tape, x: Value, w: Value, b: Value, relu: bool) -> Value:
    """One dense layer, `_dense_forward` then ReLU as a mask product, as a
    single node.

    Values and gradients are bitwise equal to those of the chain
    `vrelu(vadd(vmatmul(x, w), b))`: the mask is a multiply, so -0.0 and
    negative pre-activations become -0.0, as `vrelu` makes them. The bias
    gradient is `linalg.column_sum`. The backward never writes into the
    incoming gradient, which an op may also hand to its other parents. The
    input gradient is skipped when `x` is a leaf that is not a parameter.
    """
    out = _dense_forward(x.data, w.data, b.data)
    mask = None
    if relu:
        mask = out > 0
        np.multiply(out, mask, out=out)
    want_x = bool(x.parents) or x.param is not None

    def bwd(g):
        if mask is not None:
            g = g * mask
        gx = g @ w.data.T if want_x else None
        return gx, x.data.T @ g, column_sum(g)

    return tape.op(out, (x, w, b), bwd)


def _softmax(a: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, with the bits of the plain numpy
    expression `e = exp(a - a.max(-1)); e / e.sum(-1)`.

    The row max and sums are `_row_max` and `_row_sum`. The subtraction,
    exp and division run on the flat [n*K] array, against each row's
    value repeated K times, so numpy's inner loop spans all rows rather
    than one K-long row: the same elementwise operations. Checked against
    that expression on OpenBLAS's SkylakeX, Haswell and Sandybridge cores
    under numpy's AVX-512 and AVX2 loops (`TestShortAxisKernels` in
    tests/test_autodiff.py).
    """
    k = a.shape[-1]
    p = np.subtract(a.reshape(-1), _row_max(a).repeat(k))
    np.exp(p, out=p)
    p /= _row_sum(p.reshape(-1, k)).repeat(k)
    return p.reshape(a.shape)


def vsoftmax(tape: Tape, a: Value) -> Value:
    """Row softmax over the last axis (`_softmax`)."""
    p = _softmax(a.data)

    def bwd(g):
        d = g - _row_sum(g * p)
        return (np.multiply(p, d, out=d),)

    return tape.op(p, (a,), bwd)


def top_class(probs: np.ndarray):
    """(label, confidence) of [n, K] class probabilities: each row's first
    index of its largest value, in the smallest unsigned type that holds
    K - 1, and the probability there. Both have the bits of
    `probs.argmax(axis=1)` and its gather on every row `_softmax` makes:
    one with no NaN, or all NaN.

    The rows are copied class-major, so each fold step reads one
    contiguous class row. Class j wins a row where it is strictly greater
    (`>`) than the running maximum of classes 0..j-1, so ties keep the
    lowest index and an all-NaN row picks 0, as `argmax` does; the label
    is the last class that won. The confidence is read back from the
    copy at the label, so it keeps that value's bits (a zero's sign, a
    NaN's payload).
    """
    k = probs.shape[-1]
    cols = probs.T.copy()
    n = cols.shape[1]
    top = cols[0].copy()
    wins = np.empty((k - 1, n), bool)
    for j in range(1, k):
        np.greater(cols[j], top, out=wins[j - 1])
        np.maximum(top, cols[j], out=top)
    classes = np.arange(1, k, dtype=np.min_scalar_type(k - 1))[:, None]
    label = (wins * classes).max(axis=0, initial=0)
    at = label.astype(np.intp) * n + np.arange(n)  # intp: no uint8/uint16 wrap
    return label, cols.reshape(-1).take(at)


PROB_CLAMP = 1e-12


def _picked(p: np.ndarray, labels):
    """(each row's flat index of its label in the [..., K] probabilities
    `p`, that probability, it clamped at PROB_CLAMP)."""
    lab = np.asarray(labels).reshape(-1).astype(np.int64, copy=False)
    k = p.shape[-1]
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise IndexError(f"labels must be in [0, {k}), got {lab.min()}..{lab.max()}")
    at = np.arange(0, p.size, k) + lab
    picked = p.reshape(-1)[at]
    return at, picked, np.maximum(picked, PROB_CLAMP)


def _label_grads(g, picked: np.ndarray, clamped: np.ndarray) -> np.ndarray:
    """Each row's gradient of the mean CE with respect to its picked
    probability, for the upstream gradient `g`: 0 where the clamp binds."""
    return np.where(picked > PROB_CLAMP, -g / (picked.shape[0] * clamped), 0.0)


def vcross_entropy(tape: Tape, probs: Value, labels: np.ndarray) -> Value:
    """Mean over rows of -log p[row, label], probabilities clamped at 1e-12."""
    at, picked, clamped = _picked(probs.data, labels)
    loss = -np.log(clamped).mean()

    def bwd(g):
        gp = np.zeros(probs.data.shape, probs.data.dtype)
        gp.reshape(-1)[at] = _label_grads(g, picked, clamped)
        return (gp,)

    return tape.op(np.asarray(loss, dtype=probs.data.dtype), (probs,), bwd)


def vsoftmax_cross_entropy(tape: Tape, logits: Value, labels: np.ndarray) -> Value:
    """`vcross_entropy(vsoftmax(logits), labels)` as one node, bit for bit.

    The forward is that pair's arithmetic. In its backward a row's incoming
    probability gradient is zero but for `a` at the label, so the softmax's
    row sum `s = sum(g_j * p_j)` is `a * p_lab` plus zeros: `a * p_lab +
    0.0`, which also turns a -0.0 into +0.0. The logits gradient is
    `p_j * (0 - s)` off the label and `p_lab * (a - s)` at it.

    That needs no other case for NaN or inf. A softmax row is either in
    [0, 1] or all NaN, and there every product `p_j * (...)` is p_j's own
    NaN, as in the pair. A non-finite `a` (from a non-finite upstream
    gradient) gives the same inf and NaN in both forms. The oracle in
    tests/test_autodiff.py checks both on hard rows.
    """
    p = _softmax(logits.data)
    at, picked, clamped = _picked(p, labels)
    loss = -np.log(clamped).mean()

    def bwd(g):
        a = _label_grads(g, picked, clamped).astype(p.dtype, copy=False)
        s = a * picked
        s += 0.0
        out = p.reshape(-1, p.shape[-1]) * (0.0 - s)[:, None]
        out.reshape(-1)[at] = picked * (a - s)
        return (out.reshape(p.shape),)

    return tape.op(np.asarray(loss, dtype=p.dtype), (logits,), bwd)


# ---------------------------------------------------------------- model


@dataclass
class SegModel:
    """Per-pixel encoder -> decoder -> classifier stack.

    `neighborhood` concatenates the 3x3 pixel neighborhood (edge-replicated)
    into the per-pixel input features, giving the model spatial context
    without convolutions. Sizes are read from the weights: the first
    encoder (or decoder) layer's input, the last decoder (or encoder)
    layer's output and the last classifier layer's output. The encoder may
    be empty; the encoder+decoder and the classifier may not.
    """

    encoder_layers: list
    decoder_layers: list
    classifier_layers: list
    neighborhood: bool = False

    def parameters(self) -> list:
        out = []
        for layer_list in (self.encoder_layers, self.decoder_layers, self.classifier_layers):
            for w, b in layer_list:
                out.extend([w, b])
        return out

    @property
    def input_features(self) -> int:
        return (self.encoder_layers + self.decoder_layers)[0][0].data.shape[0]

    @property
    def in_channels(self) -> int:
        return self.input_features // (9 if self.neighborhood else 1)

    @property
    def embed_dim(self) -> int:
        return (self.encoder_layers + self.decoder_layers)[-1][0].data.shape[1]

    @property
    def K(self) -> int:
        return self.classifier_layers[-1][0].data.shape[1]


def init_model(
    in_channels: int,
    K: int,
    embed_dim: int | None = None,
    encoder_hidden=(64, 32),
    *,
    rng: Rng,
    neighborhood: bool = False,
) -> SegModel:
    """Glorot-uniform initialized model.

    Defaults: encoder in->64->32, decoder 32->embed_dim, classifier
    embed_dim->embed_dim->K, with embed_dim = K unless overridden.
    """
    if embed_dim is None:
        embed_dim = K
    feats = in_channels * (9 if neighborhood else 1)

    def dense(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = (rng.uniform((fan_in, fan_out)) * 2.0 - 1.0) * bound
        return (Parameter(w.astype(np.float32)), Parameter(np.zeros(fan_out, np.float32)))

    dims = [feats, *encoder_hidden]
    encoder = [dense(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    decoder = [dense(dims[-1], embed_dim)]
    classifier = [dense(embed_dim, embed_dim), dense(embed_dim, K)]
    return SegModel(encoder, decoder, classifier, neighborhood)


def pad_images(images: np.ndarray, neighborhood: bool) -> np.ndarray:
    """Edge-pad [B,H,W,C] float32 images by one pixel for `feature_rows`
    (no-op without `neighborhood`). Training pads a split once and cuts
    each batch from the padded array."""
    if not neighborhood:
        return images
    return np.pad(images, ((0, 0), (1, 1), (1, 1), (0, 0)), mode="edge")


def feature_rows(padded: np.ndarray, neighborhood: bool, pixels=None) -> np.ndarray:
    """`pad_images` output [B,H(+2),W(+2),C] -> [B*H*W, F] feature rows, or
    only the rows of the flat pixel indices `pixels`, in their order.

    With `neighborhood`, a row holds the 3x3 window around its pixel in
    (dy, dx, channel) order: the bytes of concatenating the nine shifted
    [B,H,W,C] slices on the channel axis. Each window row dy is 3*C floats
    that lie side by side in the C-contiguous padded image, so a
    [B,H,W,3] view of one unstructured 3*C-float item per window row,
    strided over the padded buffer, is copied (or indexed at `pixels`)
    item by item and read back as floats: the same bytes, moved a window
    row at a time rather than a float at a time. Checked byte for byte on
    OpenBLAS's SkylakeX, Haswell and Sandybridge cores under numpy's
    AVX-512 and AVX2 loops (`TestShortAxisKernels` in
    tests/test_autodiff.py).
    """
    if not neighborhood:
        if pixels is not None:
            padded = padded[np.unravel_index(pixels, padded.shape[:3])]
        return padded.reshape(-1, padded.shape[-1])
    padded = np.ascontiguousarray(padded)
    b, h, w, c = padded.shape
    sb, sh, sw, _ = padded.strides
    item = np.dtype((np.void, 3 * c * padded.itemsize))
    windows = np.ndarray((b, h - 2, w - 2, 3), item, padded, 0, (sb, sh, sw, sh))
    if pixels is None:
        windows = windows.copy()
    else:
        windows = windows[np.unravel_index(pixels, windows.shape[:3])]
    return windows.view(padded.dtype).reshape(-1, 9 * c)


def pixel_features(images: np.ndarray, neighborhood: bool) -> np.ndarray:
    """[B,H,W,C] images -> [B*H*W, F] per-pixel feature rows."""
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise DimensionError(f"expected [B,H,W,C] images, got {images.shape}")
    return feature_rows(pad_images(images, neighborhood), neighborhood)


def _with_relu(layers, relu_last: bool) -> list:
    """(w, b, relu) of each layer: ReLU after every layer but the last
    unless `relu_last`."""
    return [(w, b, relu_last or i < len(layers) - 1) for i, (w, b) in enumerate(layers)]


def _embed_stack(model: SegModel) -> list:
    """`_with_relu` of the encoder then decoder layers: the encoder's
    outputs all pass a ReLU, the decoder's last output does not."""
    return _with_relu(model.encoder_layers + model.decoder_layers, not model.decoder_layers)


def _tapeless_dense(x: np.ndarray, w: Parameter, b: Parameter, relu: bool, hidden: bool):
    """One layer with no tape: `_dense_forward`, then ReLU if `relu`. A
    `hidden` output gets one in-place clamp, `np.maximum(out, 0)`, with no
    mask; the stack's own output gets `vdense`'s mask product.

    The clamp gives +0.0 where the mask product gives -0.0 (every negative
    or -0.0 pre-activation), and 0 where it gives NaN (a -inf
    pre-activation, which only a float32 overflow inside a layer can make:
    loaded images and weights are finite). A hidden activation is read
    only by the next layer's sgemm, which accumulates from a zeroed
    register, so the sign of a zero never reaches a sum: embeddings,
    logits and probabilities keep the taped path's bits. That holds on
    OpenBLAS's SkylakeX, Haswell and Sandybridge cores under numpy's
    AVX-512 and AVX2 loops (`TestBitwiseOracle` in tests/test_autodiff.py).
    """
    out = _dense_forward(x, w.data, b.data)
    if relu and hidden:
        np.maximum(out, 0, out=out)
    elif relu:
        np.multiply(out, out > 0, out=out)
    return out


def _dense_stack(tape: Tape | None, x, stack):
    """The (w, b, relu) layers of `stack` in order: `vdense` nodes on
    `tape`, or with no tape `_tapeless_dense` on float32 arrays, each
    layer's input dropped here once the next has read it."""
    for i, (w, b, relu) in enumerate(stack):
        if tape is None:
            x = _tapeless_dense(x, w, b, relu, hidden=i < len(stack) - 1)
        else:
            x = vdense(tape, x, tape.watch(w, np.float32), tape.watch(b, np.float32), relu)
    return x


def _check_features(model: SegModel, feats):
    if feats.shape[-1] != model.input_features:
        raise DimensionError(f"feature dim {feats.shape[-1]} != model input {model.input_features}")
    return feats


def embed_flat(model: SegModel, feats, tape: Tape | None):
    """Encoder+decoder on flat feature rows (cast to float32): an
    [n, embed_dim] node on `tape`, or with no tape the array itself. The
    caller's `feats` stay alive throughout; `forward_embed` frees its own."""
    _check_features(model, feats)
    x = np.asarray(feats, np.float32) if tape is None else tape.leaf(feats, dtype=np.float32)
    return _dense_stack(tape, x, _embed_stack(model))


def classifier_logits(model: SegModel, emb, tape: Tape | None):
    """Classifier head on [n, embed_dim] float32 nodes on `tape`, or with no
    tape on the array; returns logits in the same form."""
    width = (emb if tape is None else emb.data).shape[-1]
    if width != model.embed_dim:
        raise DimensionError(f"embedding dim {width} != {model.embed_dim}")
    return _dense_stack(tape, emb, _with_relu(model.classifier_layers, False))


def forward_embed(model: SegModel, images: np.ndarray) -> np.ndarray:
    """Inference-only per-pixel embeddings, shaped [B,H,W,embed_dim]: `embed_flat`
    with no tape, handed the feature rows as a temporary, so `_dense_stack`'s frame
    (CPython 3.11+ moves call arguments there) frees them after the first layer."""
    emb = _dense_stack(
        None, _check_features(model, pixel_features(images, model.neighborhood)), _embed_stack(model)
    )
    return emb.reshape(*np.shape(images)[:3], model.embed_dim)


def forward_classify(model: SegModel, embeddings: np.ndarray) -> np.ndarray:
    """Inference-only class probabilities for [..., embed_dim] embeddings."""
    emb = np.asarray(embeddings, dtype=np.float32)
    logits = classifier_logits(model, emb.reshape(-1, emb.shape[-1]), None)
    return _softmax(logits).reshape(*emb.shape[:-1], model.K)


# ---------------------------------------------------------------- optimizer


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam for one parameter list: its moments as flat float64 vectors in
    `params` order."""

    def __init__(self, params: list):
        self.params = list(params)
        n = sum(p.data.size for p in self.params)
        self.t = 0
        self.m = np.zeros(n)
        self.v = np.zeros(n)


def adam_step(state: AdamState, grads: dict, lr: float) -> None:
    """One Adam update of `state.params`; rejects non-finite gradients.

    The update runs in float64 on one vector that holds every parameter
    (a missing gradient counts as zero), and each parameter is rounded
    back to float32, as a view of one new float32 vector. A rejected step
    leaves parameters and state as they were.
    """
    params = state.params
    per_param = [np.zeros(p.data.size) if (gp := grads.get(p)) is None else gp for p in params]
    g = np.concatenate(per_param, axis=None, dtype=np.float64)
    if not np.isfinite(g).all():
        raise DivergenceError("non-finite gradient; update rejected")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1, bias2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    state.m = state.m * b1 + g * (1 - b1)
    state.v = state.v * b2 + (g * (1 - b2)) * g
    step = (state.m / bias1) * lr / (np.sqrt(state.v / bias2) + ADAM_EPS)
    flat = np.concatenate([p.data for p in params], axis=None, dtype=np.float64)
    flat32, offset = (flat - step).astype(np.float32), 0
    for p in params:
        n = p.data.size
        p.data = flat32[offset : offset + n].reshape(p.data.shape)
        offset += n


# ---------------------------------------------------------------- checkpoint

# MDL1 layout: magic | u32 total tensor count | tensors in TNS1 framing
# (W then b per layer; encoder, decoder, classifier order) | u32 K |
# u32 embed_dim | u32 n_encoder_layers | u32 n_decoder_layers |
# u32 n_classifier_layers | u32 in_channels | u32 neighborhood_flag


def save_model(path, model: SegModel) -> None:
    params = model.parameters()
    with open_output(path, MDL1_MAGIC) as f:
        write_u32(f, len(params))
        for p in params:
            write_tns1(f, p.data)
        write_u32(f, model.K)
        write_u32(f, model.embed_dim)
        write_u32(f, len(model.encoder_layers))
        write_u32(f, len(model.decoder_layers))
        write_u32(f, len(model.classifier_layers))
        write_u32(f, model.in_channels)
        write_u32(f, 1 if model.neighborhood else 0)


def load_model(path) -> SegModel:
    """Read an MDL1 checkpoint, rejecting trailing bytes, layers that do not
    chain, a zero-width layer, a NaN or +-inf weight or bias, an empty
    encoder+decoder or classifier, a neighborhood flag other than 0 or 1,
    and a trailer whose sizes differ from the weights'."""
    return read_framed(path, MDL1_MAGIC, _read_model)


def _read_model(f) -> SegModel:
    count = read_u32(f)
    tensors = [read_tns1(f) for _ in range(count)]
    K, embed_dim, n_enc, n_dec, n_cls, in_channels, flag = (read_u32(f) for _ in range(7))
    if count != 2 * (n_enc + n_dec + n_cls):
        raise FileFormatError("tensor count does not match layer counts")
    if n_enc + n_dec == 0 or n_cls == 0:
        raise FileFormatError("model has no encoder/decoder or no classifier layers")
    if flag not in (0, 1):
        raise FileFormatError(f"neighborhood flag must be 0 or 1, got {flag}")
    fan_in = None
    for i, (w, b) in enumerate(zip(tensors[::2], tensors[1::2])):
        if w.ndim != 2 or fan_in not in (None, w.shape[0]) or b.shape != w.shape[1:]:
            raise FileFormatError(f"layer {i} shapes {w.shape}, {b.shape} do not chain")
        if w.shape[1] == 0:
            raise FileFormatError(f"layer {i} has zero width: weight shape {w.shape}")
        check_finite(w, f"layer {i} weight")
        check_finite(b, f"layer {i} bias")
        fan_in = w.shape[1]
    layers = [(Parameter(w), Parameter(b)) for w, b in zip(tensors[::2], tensors[1::2])]
    model = SegModel(
        layers[:n_enc], layers[n_enc : n_enc + n_dec], layers[n_enc + n_dec :], flag == 1
    )
    feats = in_channels * (9 if model.neighborhood else 1)
    if (K, embed_dim, feats) != (model.K, model.embed_dim, model.input_features):
        raise FileFormatError(
            f"trailer K={K}, embed_dim={embed_dim}, in_channels={in_channels} differ from "
            f"the weights' K={model.K}, embed_dim={model.embed_dim}, "
            f"input features={model.input_features}"
        )
    return model
