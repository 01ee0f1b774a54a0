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

    def prepare(self, x):
        """What ``forward`` and ``backward`` take in place of ``x`` when the
        same input comes back every epoch; ``x`` itself unless a layer can
        do part of its work once.  Training calls it once per train call."""
        return x

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

    def prepare(self, x) -> "TapWindows":
        """Validates and pads ``x`` once, and gathers its tap windows: the
        input that ``forward`` and ``backward`` take in place of ``x``."""
        xb, single = _as_batch(x, 2, "conv input", self.runs)
        if xb.shape[-2] != self.in_channels:
            raise ShapeError(f"conv input {xb.shape} does not match filters {self.filters.shape}")
        if self.padding == PADDING_NONE and xb.shape[-1] < self.width:
            raise ShapeError(f"conv input: {xb.shape[-1]} positions is fewer than filter width {self.width}")
        if self.padding == PADDING_NONE:
            padded = xb
        else:
            pad = (self.width - 1) // 2
            padded = np.zeros(xb.shape[:-1] + (xb.shape[-1] + 2 * pad,))
            padded[..., pad : pad + xb.shape[-1]] = xb
        out_p = padded.shape[-1] - self.width + 1
        gathered = padded[..., np.arange(self.width)[:, None] + np.arange(out_p)]  # (..., in_ch, width, out_pos)
        if self.runs is not None and xb.ndim == 3:
            gathered = gathered[None]  # a run axis of 1: every member reads the same batch
        windows = np.ascontiguousarray(np.moveaxis(gathered, (-3, -2), (0, 1))[..., None, :])
        return TapWindows(windows, single, self.padding)

    def _windows(self, x) -> tuple["TapWindows", tuple[int, ...]]:
        """``x`` as TapWindows, and the leading axes of the output for it:
        ``(batch,)``, or ``(runs, batch)`` for filters with a run axis."""
        w = x if isinstance(x, TapWindows) else self.prepare(x)
        shape = w.windows.shape
        lead = shape[2:-2] if self.runs is None else (self.runs,) + shape[3:-2]
        fits = (shape[:2], len(shape), w.padding) == ((self.in_channels, self.width), self.filters.ndim + 2, self.padding)
        if not fits or shape[2] not in (1, lead[0]):  # a run axis is this conv's or a shared batch's
            raise ShapeError(
                f"conv: tap windows {shape} with {w.padding} padding were not gathered for "
                f"filters {self.filters.shape} with {self.padding} padding"
            )
        return w, lead

    def _taps(self) -> np.ndarray:
        """The filters laid out tap-major against the windows: (in_ch, width, [runs,] 1, out_ch, 1)."""
        nd = self.filters.ndim
        return self.filters.transpose((nd - 2, nd - 1) + tuple(range(nd - 2)))[..., None, :, None]

    def forward(self, x) -> np.ndarray:
        """y[c][p] = b[c] + sum over (k, t) of filters[c][k][t] * x_padded[k][p + t].

        ``x`` is an input or the TapWindows that ``prepare`` gathered from
        it.  The contraction is one C-ordered product of the tap-major
        filters and the windows, reduced over its two leading (channel, tap)
        axes: numpy adds those slices into the sum in index order, the
        order of a loop over channels and then taps.  ``order="C"`` pins the
        product's layout; a layout left to numpy, or an einsum, could group
        the same sum differently for different memory layouts, which would
        break bit-level reproducibility of whole training runs.
        """
        w, _ = self._windows(x)
        y = np.add.reduce(np.multiply(self._taps(), w.windows, order="C"), axis=(0, 1))
        y += self.bias[..., None, :, None]
        return y[0] if w.single else y

    def backward(self, x, upstream, input_grad: bool = True) -> ConvGradients:
        """Each shared weight's gradient sums its contributions over all
        positions of the tap windows of ``x`` (an input or its TapWindows),
        gathered at the argmax for a PoolGradient upstream with
        ``input_grad=False``.  d_input (None for ``input_grad=False``) is the
        transposed convolution: ``forward`` of the upstream, zero-padded by
        width - 1 for ``none`` padding, through the filters with channel axes
        swapped and taps reversed, so its last bits are not pinned."""
        w, lead = self._windows(x)
        if isinstance(upstream, PoolGradient) and not input_grad:
            per_tap, d_bias = self._pooled_gradients(w, lead, upstream)
        else:
            ub, _ = _as_batch(upstream, 2, "conv backward", self.runs)
            if ub.shape != lead + (self.out_channels, w.windows.shape[-1]):
                raise ShapeError(
                    f"conv backward: tap windows {w.windows.shape} / upstream {ub.shape} do not match filters {self.filters.shape}"
                )
            # (in_ch, width, [runs,] out_ch) summed over batch and positions, each tap's slice as one contiguous block
            per_tap = np.add.reduce(np.multiply(ub, w.windows, order="C"), axis=(-3, -1))
            d_bias = ub.sum(axis=(-3, -1))
        d_filters = per_tap.transpose(tuple(range(2, per_tap.ndim)) + (0, 1))
        if not input_grad:
            return ConvGradients(d_filters, d_bias, None)
        flipped = np.swapaxes(self.filters, -3, -2)[..., ::-1]  # ([runs,] in_ch, out_ch, width)
        transposed = Conv1DLayer(flipped, np.zeros(flipped.shape[:-2]), self.padding)
        if self.padding == PADDING_NONE:
            ub = np.pad(ub, [(0, 0)] * (ub.ndim - 1) + [(self.width - 1, self.width - 1)])
        d_input = transposed.forward(ub)
        return ConvGradients(d_filters, d_bias, d_input[0] if w.single else d_input)

    def _pooled_gradients(self, w: "TapWindows", lead: tuple[int, ...], routed: "PoolGradient"):
        """``backward``'s tap-major sums and d_bias for an upstream that max
        pooling routed: one fancy index gathers windows[k, t, ..., b, 0,
        argmax[..., b, c]], and its product with up is summed over b.  The
        product keeps the gather's memory layout, ([runs,] batch, out_ch,
        in_ch, width), so numpy adds the batch in index order unless every
        later axis has length 1 (then pairwise).  At rule/conv's shape the
        bits are the dense upstream's, whose zeros change no sum."""
        up, _ = _as_batch(routed.values, 1, "conv backward", self.runs)
        if up.shape != lead + (self.out_channels,) or routed.positions != w.windows.shape[-1]:
            raise ShapeError(
                f"conv backward: pooled upstream {up.shape} of {routed.positions} positions does not fit tap windows {w.windows.shape}"
            )
        # an index for each run and batch axis of the windows, broadcast against argmax's ([runs,] batch, out_ch)
        index = np.indices(w.windows.shape[2:-2] + (1,), sparse=True)[:-1]
        gathered = w.windows[(slice(None), slice(None)) + index + (0, routed.argmax.reshape(up.shape))]
        return np.add.reduce(gathered * up, axis=-2), up.sum(axis=-2)


@dataclass
class TapWindows:
    """A conv input gathered once for every epoch that reuses it, in the way
    a PoolGradient is a routed upstream: the validated input's tap windows,
    C-ordered (in_ch, width, [runs or 1,] batch, 1, out_pos), where
    windows[k, t, ..., b, 0, p] is x_padded[..., b, k, p + t].  Every conv
    computation reads the input through them.  The run axis is there only
    for a conv whose filters carry one; ``single`` marks an unbatched input,
    and ``padding`` the mode it was padded for."""

    windows: np.ndarray
    single: bool
    padding: str


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
