"""Forward and backward passes for the layer kinds used by both tasks.

Shape conventions: dense activations are ``(units,)`` or ``(batch, units)``;
convolution and pooling activations are ``(channels, positions)`` or
``(batch, channels, positions)``.  Every ``backward`` takes the upstream
gradient and what it needs from ``forward`` (a dense or conv layer's input,
Sigmoid's output, GlobalMaxPool's argmax, nothing for a reshape) and returns
gradients whose shapes mirror the parameters / input exactly.  Layers hold
their parameters but never mutate them during forward/backward; updates
happen in ``training.gd_step``.  Networks drive every stage through the one
protocol that ``Stage`` defines.

Parameters may carry a leading run axis: a dense layer with weights of
shape ``(runs, out, in)`` is ``runs`` independent layers trained side by
side.  Such a layer takes a batch shared by every member, ``(batch, in)``,
or one batch per member, ``(runs, batch, in)``, and always returns one
output per member, ``(runs, batch, out)``.  Each member's arithmetic is the
one a plain layer does, in the same order, so members match independently
trained networks bit for bit.  Parameter-free stages act on the trailing
instance axes and pass any leading axes through.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from symnet.ndcore import SeededRng, ShapeError, init_uniform, sigmoid, softmax, tensor

PADDING_SAME = "zero_same"
PADDING_NONE = "none"


def _as_batch(x, inner_ndim: int, what: str, runs: int | None = None) -> tuple[np.ndarray, bool]:
    """Promote a single instance to a batch of one; report which it was.

    With ``runs`` members the input is a shared batch or one batch per
    member, never a single instance.
    """
    arr = np.asarray(x, dtype=np.float64)
    if runs is None:
        if arr.ndim == inner_ndim:
            return arr[None, ...], True
        if arr.ndim == inner_ndim + 1:
            return arr, False
        raise ShapeError(f"{what}: expected {inner_ndim}-D instance or {inner_ndim + 1}-D batch, got shape {arr.shape}")
    if arr.ndim == inner_ndim + 1 or (arr.ndim == inner_ndim + 2 and arr.shape[0] == runs):
        return arr, False
    raise ShapeError(
        f"{what}: expected a {inner_ndim + 1}-D shared batch or a {inner_ndim + 2}-D batch for each of {runs} runs, "
        f"got shape {arr.shape}"
    )


def _batch_lead(xb: np.ndarray, inner_ndim: int, runs: int | None) -> tuple[int, ...]:
    """The leading axes of a stage's output for the batched input ``xb``:
    ``(batch,)``, or ``(runs, batch)`` when the parameters carry a run axis."""
    lead = xb.shape[:-inner_ndim]
    return lead if runs is None or len(lead) == 2 else (runs,) + lead


@dataclass
class DenseGradients:
    d_weights: np.ndarray
    d_bias: np.ndarray
    d_input: np.ndarray | None


@dataclass
class ConvGradients:
    d_filters: np.ndarray
    d_bias: np.ndarray
    d_input: np.ndarray | None


class Stage:
    """The protocol every stage follows, wrapped around its own forward/backward.

    ``params`` names the stage's parameter arrays (empty for stages without);
    ``step(x) -> (y, cache)`` runs ``forward`` and keeps what backward needs;
    ``backprop(cache, upstream) -> (d_input, record)`` runs ``backward``, and
    ``record`` holds ``d_<name>`` for each name in ``params``, or is None.
    Max pooling's ``d_input`` is a PoolGradient, an array to ``np.asarray``.
    The defaults fit stages whose ``backward`` needs only the upstream;
    ParametricStage caches the input instead.  Only max pooling and the
    sigmoid, whose caches are not their input, override ``step`` and
    ``backprop``, and softmax refuses ``backprop``.  ``Network.backward_pass``
    stops at the first parametric stage, so the parameter-free stages in
    front of it never run ``backprop``.
    """

    params: tuple[str, ...] = ()

    def step(self, x) -> tuple[np.ndarray, object]:
        return self.forward(x), None

    def backprop(self, cache, upstream) -> tuple[np.ndarray, object]:
        return self.backward(upstream), None


class ParametricStage(Stage):
    """A stage with trainable arrays, ``bias`` the one that starts at zero.
    ``kernel_ndim`` is the rank of the first parameter without a run axis.
    Dense and conv layers share one protocol: ``step`` caches the input, and
    ``backprop`` hands it to ``backward(x, upstream, input_grad)``, the
    layer's one gradient routine, which returns the gradient record.  With
    ``input_grad=False`` it forms the parameter gradients alone and ``d_input``
    is None: ``Network.backward_pass`` asks this of its first parametric stage."""

    kernel_ndim: int

    @property
    def runs(self) -> int | None:
        """Members along the leading run axis, or None for a plain layer."""
        kernel = getattr(self, self.params[0])
        return kernel.shape[0] if kernel.ndim > self.kernel_ndim else None

    def with_params(self, **arrays) -> "ParametricStage":
        """A copy of this stage holding ``arrays`` in place of its parameters."""
        clone = copy.copy(self)
        for name, value in arrays.items():
            setattr(clone, name, value)
        return clone

    def step(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.forward(x), x

    def backprop(self, cache, upstream, input_grad: bool = True):
        grads = self.backward(cache, upstream, input_grad)
        return grads.d_input, grads

    def reinitialize(self, rng: SeededRng) -> None:
        """Redraws every non-bias parameter from ``rng``, in ``params`` order,
        and zeroes the bias: the one place weights are drawn.  A stage with a
        run axis is refused, since its members would share one stream."""
        if self.runs is not None:
            raise ValueError(f"reinitialize draws one plain stage; this one has a run axis of {self.runs} members")
        for name in self.params:
            old = getattr(self, name)
            if name == "bias":
                new = np.zeros_like(old)
            else:
                new = init_uniform(rng, old.shape)
            setattr(self, name, new)


class DenseLayer(ParametricStage):
    """Fully connected layer, y = W x + b, with an individual weight per
    input/output pair.  Pre-activation only; nonlinearities are separate
    stages."""

    params = ("weights", "bias")
    kernel_ndim = 2

    def __init__(self, weights, bias):
        self.weights = tensor(weights)
        self.bias = tensor(bias)
        if self.weights.ndim not in (2, 3):
            raise ShapeError(f"dense weights must be 2-D, or 3-D with a leading run axis, got {self.weights.shape}")
        if self.bias.shape != self.weights.shape[:-1]:
            raise ShapeError(f"dense bias {self.bias.shape} does not match weights {self.weights.shape}")

    @property
    def out_units(self) -> int:
        return self.weights.shape[-2]

    @property
    def in_units(self) -> int:
        return self.weights.shape[-1]

    def forward(self, x) -> np.ndarray:
        """y = x W^T + b.  With a run axis, ``np.matmul`` makes the same BLAS
        call on each member's slice that a plain layer makes on its own."""
        xb, single = _as_batch(x, 1, "dense forward", self.runs)
        if xb.shape[-1] != self.in_units:
            raise ShapeError(f"dense forward: input {xb.shape} does not match weights {self.weights.shape}")
        y = np.matmul(xb, np.swapaxes(self.weights, -1, -2)) + self.bias[..., None, :]
        return y[0] if single else y

    def backward(self, x, upstream, input_grad: bool = True) -> DenseGradients:
        """dW[i][j] = upstream[i] * x[j], db = upstream, dx = W^T upstream,
        each summed over the batch where one is present.  ``input_grad=False``
        leaves dx unformed (None)."""
        xb, single = _as_batch(x, 1, "dense backward", self.runs)
        ub, _ = _as_batch(upstream, 1, "dense backward", self.runs)
        if xb.shape[-1] != self.in_units or ub.shape != _batch_lead(xb, 1, self.runs) + (self.out_units,):
            raise ShapeError(
                f"dense backward: input {xb.shape} / upstream {ub.shape} do not match weights {self.weights.shape}"
            )
        d_weights = np.matmul(np.swapaxes(ub, -1, -2), xb)
        d_bias = ub.sum(axis=-2)
        if not input_grad:
            return DenseGradients(d_weights, d_bias, None)
        d_input = np.matmul(ub, self.weights)
        return DenseGradients(d_weights, d_bias, d_input[0] if single else d_input)


class Conv1DLayer(ParametricStage):
    """1-D convolution with the same filter weights applied at every position.

    ``filters`` has shape (out_channels, in_channels, width) and one bias per
    output channel is shared across positions.  ``zero_same`` padding keeps
    the position count (width must be odd so outputs align with inputs);
    ``none`` yields positions - width + 1 outputs.
    """

    params = ("filters", "bias")
    kernel_ndim = 3

    def __init__(self, filters, bias, padding: str = PADDING_SAME):
        self.filters = tensor(filters)
        self.bias = tensor(bias)
        if self.filters.ndim not in (3, 4):
            raise ShapeError(f"conv filters must be 3-D, or 4-D with a leading run axis, got {self.filters.shape}")
        if self.bias.shape != self.filters.shape[:-2]:
            raise ShapeError(f"conv bias {self.bias.shape} does not match filters {self.filters.shape}")
        if padding not in (PADDING_SAME, PADDING_NONE):
            raise ValueError(f"unknown padding mode {padding!r}")
        if padding == PADDING_SAME and self.width % 2 == 0:
            raise ShapeError(f"zero_same padding needs an odd filter width, got {self.width}")
        self.padding = padding

    @property
    def out_channels(self) -> int:
        return self.filters.shape[-3]

    @property
    def in_channels(self) -> int:
        return self.filters.shape[-2]

    @property
    def width(self) -> int:
        return self.filters.shape[-1]

    def _padded(self, xb: np.ndarray) -> np.ndarray:
        if self.padding == PADDING_NONE:
            return xb
        pad = (self.width - 1) // 2
        padded = np.zeros(xb.shape[:-1] + (xb.shape[-1] + 2 * pad,))
        padded[..., pad : pad + xb.shape[-1]] = xb
        return padded

    def _batched_input(self, x, what: str) -> tuple[np.ndarray, bool]:
        xb, single = _as_batch(x, 2, what, self.runs)
        if xb.shape[-2] != self.in_channels:
            raise ShapeError(f"{what}: input {xb.shape} does not match filters {self.filters.shape}")
        if self.padding == PADDING_NONE and xb.shape[-1] < self.width:
            raise ShapeError(f"{what}: {xb.shape[-1]} positions is fewer than filter width {self.width}")
        return xb, single

    def forward(self, x) -> np.ndarray:
        """y[c][p] = b[c] + sum over (k, t) of filters[c][k][t] * x_padded[k][p + t].

        The contraction is a fixed-order loop over filter taps rather than an
        einsum: einsum's buffered iteration can group the same sum differently
        for different memory layouts, which would break bit-level
        reproducibility of whole training runs.
        """
        xb, single = self._batched_input(x, "conv forward")
        padded = self._padded(xb)
        out_p = padded.shape[-1] - self.width + 1
        y = np.zeros(_batch_lead(padded, 2, self.runs) + (self.out_channels, out_p))
        for k in range(self.in_channels):
            for t in range(self.width):
                y += self.filters[..., None, :, k, t, None] * padded[..., None, k, t : t + out_p]
        y += self.bias[..., None, :, None]
        return y[0] if single else y

    def backward(self, x, upstream, input_grad: bool = True) -> ConvGradients:
        """Each shared weight's gradient sums its contributions over all
        positions; d_input is the transposed convolution of the upstream,
        and ``input_grad=False`` leaves it unformed (None).  A PoolGradient
        upstream with ``input_grad=False`` is gathered at its argmax instead
        of being spread into the dense upstream."""
        xb, single = self._batched_input(x, "conv backward")
        padded = self._padded(xb)
        if isinstance(upstream, PoolGradient) and not input_grad:
            return self._pooled_gradients(padded, upstream)
        ub, _ = _as_batch(upstream, 2, "conv backward", self.runs)
        out_p = padded.shape[-1] - self.width + 1
        if ub.shape != _batch_lead(padded, 2, self.runs) + (self.out_channels, out_p):
            raise ShapeError(
                f"conv backward: padded input {padded.shape} / upstream {ub.shape} do not match filters {self.filters.shape}"
            )
        d_filters = np.empty_like(self.filters)
        for k in range(self.in_channels):
            for t in range(self.width):
                d_filters[..., k, t] = (ub * padded[..., None, k, t : t + out_p]).sum(axis=(-3, -1))
        d_bias = ub.sum(axis=(-3, -1))
        if not input_grad:
            return ConvGradients(d_filters, d_bias, None)
        d_padded = np.zeros(ub.shape[:-2] + padded.shape[-2:])
        for t in range(self.width):
            for c in range(self.out_channels):
                d_padded[..., t : t + out_p] += ub[..., c, None, :] * self.filters[..., None, c, :, t, None]
        if self.padding == PADDING_SAME:
            pad = (self.width - 1) // 2
            d_input = d_padded[..., pad : d_padded.shape[-1] - pad]
        else:
            d_input = d_padded
        return ConvGradients(d_filters, d_bias, d_input[0] if single else d_input)

    def _pooled_gradients(self, padded: np.ndarray, routed: "PoolGradient") -> ConvGradients:
        """The parameter gradients of ``backward`` for an upstream that max
        pooling routed, gathered at its argmax: d_filters[c, k, t] is the sum
        over b of up[b, c] * padded[b, k, argmax[b, c] + t], and d_bias the
        sum over b of up.  Both add the batch in index order, and the zeros of
        the dense upstream change no sum, so the bits are the same."""
        up, _ = _as_batch(routed.values, 1, "conv backward", self.runs)
        out_p = padded.shape[-1] - self.width + 1
        if up.shape != _batch_lead(padded, 2, self.runs) + (self.out_channels,) or routed.positions != out_p:
            raise ShapeError(f"conv backward: pooled upstream {up.shape} of {routed.positions} positions does not fit {padded.shape}")
        argmax = routed.argmax.reshape(up.shape)
        rows = np.swapaxes(padded, -1, -2)  # (..., batch, padded positions, in_channels)
        # an index for each run and batch axis of rows, broadcast against argmax's (runs, batch, channels)
        lead = tuple(np.arange(n).reshape((n,) + (1,) * (rows.ndim - 2 - i)) for i, n in enumerate(rows.shape[:-2]))
        d_filters = np.empty_like(self.filters)
        for t in range(self.width):
            d_filters[..., t] = (up[..., None] * rows[lead + (argmax + t,)]).sum(axis=-3)
        return ConvGradients(d_filters, up.sum(axis=-2), None)


@dataclass
class PoolGradient:
    """The gradient max pooling hands down, kept routed: each pooled value's
    gradient and its argmax.  A conv gathers its parameter gradients from it;
    ``np.asarray`` gives any other reader the dense, mostly-zero array."""

    values: np.ndarray
    argmax: np.ndarray
    positions: int

    def __post_init__(self):
        if self.argmax.shape != self.values.shape:
            raise ShapeError(f"max pool backward: argmax shape {self.argmax.shape} does not match upstream {self.values.shape}")

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros(self.values.shape + (self.positions,), dtype=dtype)
        np.put_along_axis(dense, self.argmax[..., None], self.values[..., None], axis=-1)
        return dense


class GlobalMaxPool(Stage):
    """Passes the maximum value in each channel across all positions.

    Ties break toward the lowest position index so gradients are
    reproducible.  One output value per channel, whatever the input width.
    """

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Returns (pooled values, per-channel argmax indices)."""
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim < 2:
            raise ShapeError(f"max pool forward: expected (channels, positions) after any leading axes, got {arr.shape}")
        if arr.shape[-1] < 1:
            raise ShapeError(f"max pool forward: empty position axis in {arr.shape}")
        argmax = np.argmax(arr, axis=-1)  # np.argmax takes the first maximum
        pooled = arr.reshape(-1, arr.shape[-1])[np.arange(argmax.size), argmax.ravel()].reshape(argmax.shape)
        return pooled, argmax

    def step(self, x) -> tuple[np.ndarray, tuple[np.ndarray, int]]:
        pooled, argmax = self.forward(x)
        return pooled, (argmax, np.shape(x)[-1])

    def backprop(self, cache, upstream) -> tuple[PoolGradient, None]:
        # the argmax comes from this stage's own step, so backward's range check is skipped
        return PoolGradient(np.asarray(upstream, dtype=np.float64), *cache), None

    def backward(self, argmax, upstream, positions: int) -> np.ndarray:
        """Routes each channel's upstream value to its argmax position."""
        ub = np.asarray(upstream, dtype=np.float64)
        if ub.ndim < 1:
            raise ShapeError(f"max pool backward: expected one value per channel, got shape {ub.shape}")
        idx = np.asarray(argmax).astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= positions):
            raise ValueError(f"max pool backward: argmax indices out of range for {positions} positions")
        return np.asarray(PoolGradient(ub, idx, positions))


class Sigmoid(Stage):
    """Elementwise logistic output stage."""

    def forward(self, x) -> np.ndarray:
        return sigmoid(x)

    def backward(self, output, upstream) -> np.ndarray:
        # derivative expressed through the cached forward output
        return upstream * output * (1.0 - output)

    def step(self, x) -> tuple[np.ndarray, np.ndarray]:
        y = self.forward(x)
        return y, y

    def backprop(self, cache, upstream) -> tuple[np.ndarray, None]:
        return self.backward(cache, upstream), None


class Softmax(Stage):
    """Softmax over the last axis: an output head that turns logits into
    class probabilities.  It has no backward; networks train on the logits
    with a loss that applies the softmax itself."""

    def forward(self, x) -> np.ndarray:
        return softmax(x)

    def backprop(self, cache, upstream):
        raise ValueError("softmax has no backward; train on logits with the cross_entropy loss")


class Reshape(Stage):
    """Reshapes instance dims, passing leading batch and run dims through untouched."""

    def __init__(self, shape_in, shape_out):
        self.shape_in = tuple(int(d) for d in shape_in)
        self.shape_out = tuple(int(d) for d in shape_out)
        if math.prod(self.shape_in) != math.prod(self.shape_out):
            raise ShapeError(f"reshape {self.shape_in} -> {self.shape_out} changes element count")

    def _map(self, arr: np.ndarray, src: tuple, dst: tuple, what: str) -> np.ndarray:
        lead = arr.ndim - len(src)
        if lead >= 0 and arr.shape[lead:] == src:
            return arr.reshape(arr.shape[:lead] + dst)
        raise ShapeError(f"{what}: expected shape {src} (optionally batched), got {arr.shape}")

    def forward(self, x) -> np.ndarray:
        return self._map(np.asarray(x, dtype=np.float64), self.shape_in, self.shape_out, "reshape forward")

    def backward(self, upstream) -> np.ndarray:
        return self._map(np.asarray(upstream, dtype=np.float64), self.shape_out, self.shape_in, "reshape backward")


class Transpose(Stage):
    """Swaps the last two axes (channels-by-positions vs positions-by-channels)."""

    def forward(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=np.float64)
        if arr.ndim < 2:
            raise ShapeError(f"transpose needs at least 2 dims, got {arr.shape}")
        return np.swapaxes(arr, -1, -2)

    def backward(self, upstream) -> np.ndarray:
        return self.forward(upstream)
