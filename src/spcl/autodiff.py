"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

A ``Tensor`` wraps an immutable C-order float64 ndarray and is tracked when
its ``requires_grad`` flag is set. While a ``GradTape`` is active, every
primitive applied to a tracked tensor appends a node (inputs, output, forward
closure, backward closure) to the tape and sets ``requires_grad`` on its
output. ``GradTape.gradient`` walks the tape in reverse to accumulate
d(scalar)/d(param), and ``GradTape.replay`` re-executes the recorded forwards
to reproduce the output bit-for-bit. Outside a tape, the same primitives
evaluate eagerly: nothing is recorded and the outputs are untracked. The flag
outlives the tape, so a later tape treats an earlier tape's op outputs as
tracked leaves, not as constants.

Every ``Tensor`` holds finite values, and every op keeps it so. A finite
input can turn into NaN or Inf only through an overflow, a divide-by-zero or
an invalid operation, and each of these sets an IEEE status flag. Ops
therefore run under ``np.errstate(divide, invalid, over="raise")``: the
flag becomes a ``FloatingPointError``, which ``_apply`` re-raises as
``NonFiniteValue`` naming the op, and ``GradTape.gradient`` as
``NonFiniteValue`` naming the op whose backward failed. Op outputs are not
scanned; values from outside an op are: ``Tensor.__init__`` scans each caller
array and constant (Python scalars included) exactly once. The one routine
that can overflow without setting the caller's flag is a BLAS product large
enough for OpenBLAS to split across threads; ``matmul`` and ``conv2d`` scan
such products themselves and raise the error the flag would have.

The raising error state is entered once per region, not per op: ``GradTape``
enters it for its whole ``with`` block, ``GradTape.gradient`` for its walk
and ``finite_diff_check`` for each parameter's evaluation loop. An op applied
outside any such scope (tests, demos, evaluation) enters its own. Underflow
keeps NumPy's setting. A ``FloatingPointError`` raised inside a region by
NumPy code that is not an op becomes a ``NonFiniteValue`` when the region
exits, so no op, backward walk or finite-difference check hands its caller
a raw ``FloatingPointError`` or an overflow ``RuntimeWarning``.

A ``Tensor`` built from a caller's array copies it. An op output that the
forward has just allocated (a C-contiguous float64 ndarray owning its
memory) is frozen in place instead; an output that views an input, a NumPy
scalar and anything else are copied. A ``_fresh`` C-contiguous view is
frozen in place too: ``RAdam`` hands out each step's parameters as
read-only views of one new flat vector that nothing writes again. Either
way ``Tensor.data`` is read-only and holds the same bits.

Row reductions of many short rows skip NumPy's reduction machinery. For a
C-contiguous (R, n) array with n < 8, ``np.add.reduce`` along the rows
adds the n columns one by one onto 0.0, and ``np.maximum.reduce`` takes them
in order, so ``row_sums`` and ``row_maxes`` compute exactly that, a column
at a time, with the same bits and a fraction of the per-row overhead: the
(2048, 2) logits of a 16x16 segmentation batch reduce 6-30x faster. They
serve ``_unbroadcast`` onto an (R, 1) operand, ``l2_normalize_rows``, and
the row-max shifts and row sums of the pair-loss and segmentation-loss
nodes. Rows of 8 or more, where NumPy sums pairwise in
blocks, and arrays with fewer than 16 rows per column, where one call per
column costs more than NumPy's loop, go to ``np.sum``/``np.max``. A test
holds both paths against NumPy.

``conv2d`` lowers to im2col (Chellapilla, Puri & Simard 2006). The columns
are gathered with ``np.take`` along the pixel axis, which writes them once in
C order, so the reshape to the (pixels, taps) matrix is a view, not a second
copy; a 1x1 kernel's columns are the image rows themselves, a view of the
input. An optional per-channel ``bias`` is added in place to the
(B*H*W, Cout) product before its in-place reshape, and its cotangent is the
column sum of the output cotangent over the same (B*H*W, Cout) rows: one
node with the bits of ``reshape``, ``add`` and ``reshape`` around a
bias-free ``conv2d``. Its backward, like those of ``matmul`` and the
elementwise binary ops, computes an operand's cotangent only when the
operand is tracked: the image batch of a taped forward is a constant, and
the gradient walk would drop that cotangent anyway.

``dense_pass`` runs a dense network pass, LeakyReLU layers with an
optional concatenated skip layer and an affine output, as one node, and
``l2_normalize_rows`` is one node too. Each forward calls the NumPy
routines of the op composition it replaces, in its order, and each
backward repeats the cotangent sequence the tape walk runs over those ops,
including the order in which it adds the cotangents of an intermediate
used more than once: a normalized row, divided by its norm and squared as
a product with itself, takes the division's cotangent, then the product's
two, one at a time. A node computes a cotangent only where the ops would
have: for a tracked input, and for an intermediate that a tracked input
reaches. It lists its LeakyReLU pre-activations as the node's ``kinks``,
which is what ``min_kink_distance`` reads. The values and cotangents have
the bits of the ops, and a node costs one dispatch instead of 4 to 16. A
node builds its backward-only bookkeeping in its backward factory, which
``_apply`` calls only when it records the node.

``avg_pool2x``'s forward and ``upsample2x``'s backward sum each 2x2 window
with four strided adds, (((0.0 + v00) + v01) + v10) + v11 with axis 4
fastest. That is the order in which ``np.add.reduce`` over axes (2, 4) of
the (B, H, 2, W, 2, C) view adds them when C >= 2, since its inner loop
then runs over the channels; the mean then divides by 4.0, as ``np.mean``
does. With one channel NumPy adds each window row first, so such maps go
to ``np.sum``. ``avg_pool2x``'s backward and ``upsample2x``'s forward
write their broadcast result once into a new array. ``leaky_relu`` with a
slope in [+0.0, 1] is ``np.maximum(x, slope * x)``, which picks what
``np.where(x > 0, x, slope * x)`` picks; other slopes use ``np.where``.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from typing import Callable, Sequence

import numpy as np

from .errors import DisconnectedParamWarning, NonFiniteValue, NormTooSmall, ShapeMismatch

EPS_NORM = 1e-30

_TAPE_STACK: list["GradTape"] = []
_RAISE_FP = {"divide": "raise", "invalid": "raise", "over": "raise"}
_raise_depth = 0  # open _raising_floats scopes; while any is open, _apply enters no errstate of its own
_reuse: dict | None = None  # site -> (key, value) of the last eager evaluation; None outside _reusing_evaluations


@contextlib.contextmanager
def _raising_floats():
    """Raise on divide/invalid/overflow for every op in a ``with`` block.

    A ``FloatingPointError`` that no op named (NumPy code between ops)
    leaves the block as ``NonFiniteValue``. The error state is restored on
    every exit. Results are unchanged: errstate only decides whether NumPy
    raises.
    """
    global _raise_depth
    with np.errstate(**_RAISE_FP):
        _raise_depth += 1
        try:
            yield
        except FloatingPointError as exc:
            raise NonFiniteValue(f"NaN/Inf outside an op: {exc}") from exc
        finally:
            _raise_depth -= 1


@contextlib.contextmanager
def _reusing_evaluations():
    """Let each eager evaluation in a ``with`` block reuse what the previous one computed from identical operands.

    ``finite_diff_check``'s perturbation loop is the only caller. The store
    is cleared on every exit, an exception's included.
    """
    global _reuse
    _reuse = {}
    try:
        yield
    finally:
        _reuse = None


def _reuse_store(inputs: Sequence["Tensor"]) -> dict | None:
    """The open reuse store, or None outside its scope and for a node that the active tape records."""
    if _reuse is None or (_TAPE_STACK and any(t.requires_grad for t in inputs)):
        return None
    return _reuse


def _content_key(a: np.ndarray) -> tuple:
    """A caller-owned array's key: shape, dtype and bytes, so a signed zero or an in-place write misses."""
    return a.shape, a.dtype.str, a.tobytes()


def _reused(site: str, inputs: Sequence["Tensor"], key: Callable[[], tuple], compute: Callable[[], object]):
    """``compute()``, or what it returned last under an equal ``key()`` while a reuse store is open.

    The store is filled only once ``compute`` has returned.
    """
    store = _reuse_store(inputs)
    if store is None:
        return compute()
    k = key()
    hit = store.get(site)
    if hit is not None and hit[0] == k:
        return hit[1]
    value = compute()
    store[site] = (k, value)
    return value


# An overflow in a BLAS worker thread never sets the calling thread's flag.
# OpenBLAS's default build splits a product across threads above 2**18
# multiply-adds; the threshold is a build option, so every product above
# 2**16 is scanned. The scan is one pass over the m x n output, against k
# multiply-adds per output element for the product itself.
_THREADED_BLAS_MNK = 1 << 16


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for 2-D operands, raising ``FloatingPointError`` on NaN/Inf like any flagged op."""
    out = x @ y
    if x.shape[0] * x.shape[1] * y.shape[1] > _THREADED_BLAS_MNK and not np.isfinite(out).all():
        raise FloatingPointError("overflow encountered in a threaded matmul")
    return out


def _freeze(a, fresh: bool = False) -> np.ndarray:
    """Read-only C-order float64 array holding ``a``'s values.

    ``fresh`` promises that nothing writes ``a``, or the memory it views,
    from now on; such an array, when it already has the final layout, is
    frozen in place instead of copied.
    """
    if fresh and type(a) is np.ndarray and a.dtype == np.float64:
        flags = a.flags
        if flags.c_contiguous:
            flags.writeable = False
            return a
    out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


class Tensor:
    """Immutable, finite float64 array with optional gradient tracking.

    ``_fresh`` marks an array computed under the raising error state from
    finite operands, which nothing writes from now on (an op output, a
    teacher shadow, a view of RAdam's new parameter vector): it is frozen in
    place and not scanned. Anything else is copied and scanned for NaN/Inf.
    """

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = "", _fresh: bool = False):
        self.data = _freeze(data, _fresh)
        if not (_fresh or np.isfinite(self.data).all()):
            raise NonFiniteValue(f"tensor {name!r} contains NaN/Inf")
        self.requires_grad = bool(requires_grad)
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag}, requires_grad={self.requires_grad})"

    # arithmetic (scalars and ndarrays are wrapped as constants)
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __matmul__(self, other):
        return matmul(self, _as_tensor(other))

    @property
    def T(self):
        return transpose(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def leaky_relu(self, slope: float = 0.01):
        return leaky_relu(self, slope)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Node:
    """One recorded primitive: inputs, output, its forward/backward rules and its LeakyReLU pre-activations."""

    __slots__ = ("op", "inputs", "output", "forward_fn", "backward_fn", "kinks")

    def __init__(self, op, inputs, output, forward_fn, backward_fn, kinks=()):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.forward_fn = forward_fn
        self.backward_fn = backward_fn
        self.kinks = kinks


class GradTape:
    """Ordered record of primitive applications for one differentiable scope."""

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "GradTape":
        self._floats = _raising_floats()
        self._floats.__enter__()
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            popped = _TAPE_STACK.pop()
            assert popped is self
        finally:
            self._floats.__exit__(exc_type, exc, tb)

    def replay(self) -> np.ndarray:
        """Re-execute the recorded forward ops; return the last output's value.

        Leaf tensors are read from their (immutable) data, so the result must
        reproduce the original forward value bit-for-bit.
        """
        if not self.nodes:
            raise ValueError("empty tape")
        values: dict[int, np.ndarray] = {}

        def value_of(t: Tensor) -> np.ndarray:
            return values.get(id(t), t.data)

        out = None
        for node in self.nodes:
            out = node.forward_fn(*[value_of(t) for t in node.inputs])
            values[id(node.output)] = out
        return np.asarray(out)

    def gradient(
        self,
        output: Tensor,
        params: Sequence[Tensor],
        warn_disconnected: bool = True,
    ) -> list[np.ndarray]:
        """Gradient of a recorded scalar output w.r.t. each parameter tensor.

        Parameters that never influenced ``output`` get an exact zero gradient
        and a ``DisconnectedParamWarning`` (suppress with
        ``warn_disconnected=False``). The walk runs under the raising error
        state: a NaN/Inf in a node's cotangents, or in their sum with the
        cotangents already accumulated, raises ``NonFiniteValue`` naming
        that node's op.
        """
        if output.data.ndim != 0:
            raise ShapeMismatch(f"gradient target must be scalar, got shape {output.shape}")
        grads: dict[int, np.ndarray] = {id(output): np.ones((), dtype=np.float64)}
        with _raising_floats():
            try:
                for node in reversed(self.nodes):
                    g_out = grads.pop(id(node.output), None)
                    if g_out is None:
                        continue
                    for t, g in zip(node.inputs, node.backward_fn(g_out)):
                        if g is None or not t.requires_grad:
                            continue
                        acc = grads.get(id(t))
                        grads[id(t)] = g if acc is None else acc + g
            except FloatingPointError:
                raise NonFiniteValue(f"backward of op {node.op!r} produced NaN/Inf") from None
        out: list[np.ndarray] = []
        disconnected: list[str] = []
        for i, p in enumerate(params):
            g = grads.get(id(p))
            if g is None:
                disconnected.append(p.name or f"param[{i}]")
                g = np.zeros(p.shape, dtype=np.float64)
            out.append(np.asarray(g, dtype=np.float64).reshape(p.shape))
        if disconnected and warn_disconnected:
            warnings.warn(
                f"parameters do not influence the output: {disconnected}",
                DisconnectedParamWarning,
                stacklevel=2,
            )
        return out


def active_tape() -> GradTape | None:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _apply(
    op: str,
    inputs: tuple[Tensor, ...],
    forward_fn: Callable[..., np.ndarray],
    backward_fn_factory,
    kinks=(),
) -> Tensor:
    """Run a primitive; record it on the active tape if any input is tracked.

    A recorded op's output gets ``requires_grad``; an eager one's does not.
    ``kinks`` holds the LeakyReLU pre-activations of the op, for
    ``min_kink_distance``; a forward that computes them fills the sequence.

    ``backward_fn_factory(input_datas, out_data)`` must return a closure
    mapping the output cotangent to one cotangent (or None) per input.
    ``forward_fn`` returns a new array or a view, never an array that
    something else can still write: a new array is frozen in place, a view
    is copied. It runs under the raising error state, so its output is
    finite or it raises.
    """
    datas = [t.data for t in inputs]
    try:
        if _raise_depth:
            out_data = forward_fn(*datas)
        else:
            with np.errstate(**_RAISE_FP):
                out_data = forward_fn(*datas)
    except FloatingPointError:
        raise NonFiniteValue(f"op {op!r} produced NaN/Inf") from None
    if type(out_data) is np.ndarray and out_data.base is not None:
        out_data = out_data.copy()
    out = Tensor(out_data, _fresh=True)
    if not _TAPE_STACK:
        return out
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            node = Node(op, inputs, out, forward_fn, backward_fn_factory(datas, out_data), kinks)
            _TAPE_STACK[-1].nodes.append(node)
            break
    return out


# NumPy adds a row of fewer elements one by one; from 8 on it sums pairwise
_SHORT_ROW = 8
# one NumPy call per column costs about what NumPy's reduction spends on 16
# short rows, so fewer rows per column go to NumPy
_ROWS_PER_COLUMN = 16


def _short_rows(x: np.ndarray) -> bool:
    """Whether a column-at-a-time row reduction of ``x`` is both exact and cheaper."""
    if x.ndim != 2 or not x.flags.c_contiguous:
        return False
    rows, n = x.shape
    return n < _SHORT_ROW and rows >= _ROWS_PER_COLUMN * n


def row_sums(x: np.ndarray) -> np.ndarray:
    """``np.sum(x, axis=1, keepdims=True)`` with the same bits, for a 2-D ``x``.

    Many short C-contiguous rows are added a column at a time onto 0.0, the
    order NumPy adds them in; anything else goes to ``np.sum``.
    """
    if not _short_rows(x):
        return np.sum(x, axis=1, keepdims=True)
    out = 0.0 + x[:, :1]
    for j in range(1, x.shape[1]):
        out += x[:, j : j + 1]
    return out


def row_maxes(x: np.ndarray) -> np.ndarray:
    """``np.max(x, axis=1, keepdims=True)`` with the same bits, for a 2-D ``x``."""
    if not _short_rows(x) or x.shape[1] < 2:
        return np.max(x, axis=1, keepdims=True)
    out = np.maximum(x[:, :1], x[:, 1:2])
    for j in range(2, x.shape[1]):
        np.maximum(out, x[:, j : j + 1], out=out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast cotangent back down to the original operand shape."""
    if g.shape == shape:
        return g
    if len(shape) == 2 and g.ndim == 2 and shape == (g.shape[0], 1):
        return row_sums(g)
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

# add, mul and matmul, like conv2d, skip the cotangent of an
# untracked operand (a constant mask, shift or target, the image batch of
# the first dense layer): the gradient walk would drop it anyway. The flags
# are bound as default arguments, which an eager call pays less for than
# for closure cells.

def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(datas, out, na=a.requires_grad, nb=b.requires_grad):
        sa, sb = datas[0].shape, datas[1].shape
        return lambda g: (_unbroadcast(g, sa) if na else None, _unbroadcast(g, sb) if nb else None)

    return _apply("add", (a, b), np.add, bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bwd(datas, out, na=a.requires_grad, nb=b.requires_grad):
        da, db = datas
        return lambda g: (
            _unbroadcast(g * db, da.shape) if na else None,
            _unbroadcast(g * da, db.shape) if nb else None,
        )

    return _apply("mul", (a, b), np.multiply, bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")

    def bwd(datas, out, na=a.requires_grad, nb=b.requires_grad):
        da, db = datas
        return lambda g: (_product(g, db.T) if na else None, _product(da.T, g) if nb else None)

    return _apply("matmul", (a, b), _product, bwd)


def transpose(a: Tensor) -> Tensor:
    return _apply(
        "transpose",
        (a,),
        lambda x: np.ascontiguousarray(x.T),
        lambda datas, out: lambda g: (g.T,),
    )


def _leaky_rule(slope: float):
    """LeakyReLU's forward and backward factor: ``x`` where ``x > 0``, else ``slope * x``.

    For ``+0.0 <= slope <= 1`` (sign bit clear) ``slope * x`` has the sign of
    ``x`` and lies between 0 and ``x``, so the forward is ``np.maximum(x,
    slope * x)`` and the backward factor ``np.maximum(x > 0, slope)``: both
    pick ``np.where``'s value, and a tie is between equal bits, never +0 and
    -0. Every other slope goes through ``np.where``.
    """
    slope = float(slope)
    if 0.0 <= slope <= 1.0 and math.copysign(1.0, slope) > 0.0:
        return (lambda x: np.maximum(x, slope * x)), (lambda x: np.maximum(x > 0.0, slope))
    return (lambda x: np.where(x > 0.0, x, slope * x)), (lambda x: np.where(x > 0.0, 1.0, slope))


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    """``x`` where ``x > 0``, else ``slope * x`` (see ``_leaky_rule``)."""
    fwd, factor = _leaky_rule(slope)

    def bwd(datas, out):
        (da,) = datas
        return lambda g: (g * factor(da),)

    return _apply("leaky_relu", (a,), fwd, bwd, kinks=(a.data,))


def min_kink_distance(f, *args) -> float:
    """Smallest |pre-activation| of a recorded LeakyReLU while evaluating f(*args).

    ``f`` runs under a ``GradTape``, and each recorded node lists its
    LeakyReLU pre-activations as its ``kinks``: a ``leaky_relu`` its input,
    a ``dense_pass`` every hidden and skip layer's. An op that is not
    recorded (no tracked input) is not seen. Central
    differences are invalid when a perturbation crosses the kink, so
    gradient checks should skip configurations where this distance is within
    a safety factor of the step.
    """
    with GradTape() as tape:
        f(*args)
    pre = [x for n in tape.nodes for x in n.kinks]
    return min((float(np.min(np.abs(x))) for x in pre if x.size), default=float("inf"))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(datas, out):
        orig = datas[0].shape
        return lambda g: (g.reshape(orig),)

    return _apply("reshape", (a,), lambda x: x.reshape(shape).copy(), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(_as_tensor(t) for t in tensors)

    def fwd(*xs):
        return np.concatenate(xs, axis=axis)

    def bwd(datas, out):
        sizes = [d.shape[axis] for d in datas]
        splits = np.cumsum(sizes)[:-1]
        return lambda g: tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _apply("concat", tensors, fwd, bwd)


def _patch_indices(h: int, w: int, k: int) -> np.ndarray:
    """Flat pixel indices of each kxk window (same padding) on an h*w grid.

    Out-of-bounds taps map to index h*w, a zero pad slot appended to the
    flattened image.
    """
    r = k // 2
    rows = np.arange(h)[:, None, None, None] + np.arange(-r, r + 1)[None, None, :, None]
    cols = np.arange(w)[None, :, None, None] + np.arange(-r, r + 1)[None, None, None, :]
    rows = np.broadcast_to(rows, (h, w, k, k))
    cols = np.broadcast_to(cols, (h, w, k, k))
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    flat = np.where(inside, rows * w + cols, h * w)
    return flat.reshape(h * w, k * k)


_PATCH_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def conv2d(x: Tensor, kernel: Tensor, image_hw: tuple[int, int], bias: Tensor | None = None) -> Tensor:
    """Same-padded 2-D convolution via im2col, plus an optional per-channel bias.

    x: (B, H*W*Cin) with channel-last pixel layout; kernel: (k*k*Cin, Cout);
    bias: (Cout,). Returns (B, H*W*Cout). The square kernel size is inferred
    from shapes. The backward returns ``None`` for an untracked ``x`` or
    ``bias`` (its ``requires_grad`` is not set), as the image batch is.
    """
    h, w = image_hw
    cin = x.shape[1] // (h * w)
    k2 = kernel.shape[0] // cin
    k = int(round(k2**0.5))
    if k * k * cin != kernel.shape[0]:
        raise ShapeMismatch(f"kernel rows {kernel.shape[0]} not a k*k*{cin} layout")
    cout = kernel.shape[1]
    if bias is not None and bias.shape != (cout,):
        raise ShapeMismatch(f"conv2d bias must have shape ({cout},), got {bias.shape}")
    if k > 1:
        idx = _PATCH_CACHE.get((h, w, k))
        if idx is None:
            idx = _PATCH_CACHE[(h, w, k)] = _patch_indices(h, w, k)

    def im2col(xd, channels):
        b = xd.shape[0]
        if k == 1:
            return xd.reshape(b * h * w, channels)
        imgs = xd.reshape(b, h * w, channels)
        padded = np.concatenate([imgs, np.zeros((b, 1, channels))], axis=1)
        # take() writes the columns in C order, so the reshape is a view; a
        # fancy index on the middle axis (padded[:, idx, :]) would copy again
        return np.take(padded, idx, axis=1).reshape(b * h * w, k * k * channels)

    def fwd(xd, kd, bd=None):
        out = _product(im2col(xd, cin), kd)
        if bd is not None:
            out += bd
        out.shape = (xd.shape[0], h * w * cout)  # in place, so the tensor can own it
        return out

    def bwd(datas, out):
        xd, kd = datas[0], datas[1]
        # the gradient walk drops the cotangent of an untracked input (the
        # image batch), so skip it
        need_x = x.requires_grad
        need_b = bias is not None and bias.requires_grad
        # input cotangent of a same-padded stride-1 conv is a conv of the
        # output cotangent with the spatially flipped, channel-swapped kernel
        flipped = kd.reshape(k, k, cin, cout)[::-1, ::-1].transpose(0, 1, 3, 2).reshape(k * k * cout, cin)

        def back(g):
            b = xd.shape[0]
            g_rows = g.reshape(b * h * w, cout)
            g_kernel = _product(im2col(xd, cin).T, g_rows)
            g_x = _product(im2col(g, cout), flipped).reshape(b, h * w * cin) if need_x else None
            if bias is None:
                return g_x, g_kernel
            return g_x, g_kernel, _unbroadcast(g_rows, (cout,)) if need_b else None

        return back

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _apply("conv2d", inputs, fwd, bwd)


def _window_sums(a: np.ndarray, h: int, w: int, c: int) -> np.ndarray:
    """``a.reshape(B, h, 2, w, 2, c).sum(axis=(2, 4))`` as (B, h*w*c), with the same bits.

    Four strided adds in NumPy's order when there are two or more channels
    (see the module docstring); ``np.sum`` itself for one channel, where
    NumPy adds each window row first, and for an array that is not
    C-contiguous.
    """
    b = a.shape[0]
    v = a.reshape(b, h, 2, w, 2, c)
    if c < 2 or not a.flags.c_contiguous:
        out = v.sum(axis=(2, 4))
    else:
        out = 0.0 + v[:, :, 0, :, 0]
        out += v[:, :, 0, :, 1]
        out += v[:, :, 1, :, 0]
        out += v[:, :, 1, :, 1]
    out.shape = (b, h * w * c)  # in place, so the tensor can own it
    return out


def avg_pool2x(x: Tensor, image_hw: tuple[int, int]) -> Tensor:
    """2x2 mean pooling on (B, H*W*C) channel-last pixels; H and W must be even."""
    h, w = image_hw
    if h % 2 or w % 2:
        raise ShapeMismatch(f"avg_pool2x needs even spatial dims, got {image_hw}")
    c = x.shape[1] // (h * w)

    def fwd(xd):
        out = _window_sums(xd, h // 2, w // 2, c)
        out /= 4.0  # np.mean's division of the same sum
        return out

    def bwd(datas, out):
        (xd,) = datas

        def back(g):
            b = xd.shape[0]
            g_x = np.empty((b, h * w * c))
            g_x.reshape(b, h // 2, 2, w // 2, 2, c)[...] = g.reshape(b, h // 2, 1, w // 2, 1, c) / 4.0
            return (g_x,)

        return back

    return _apply("avg_pool2x", (x,), fwd, bwd)


def upsample2x(x: Tensor, image_hw: tuple[int, int]) -> Tensor:
    """Nearest-neighbor 2x upsampling on (B, H*W*C) channel-last pixels."""
    h, w = image_hw
    c = x.shape[1] // (h * w)

    def fwd(xd):
        b = xd.shape[0]
        out = np.empty((b, 4 * h * w * c))  # written once, then frozen in place
        out.reshape(b, h, 2, w, 2, c)[...] = xd.reshape(b, h, 1, w, 1, c)
        return out

    return _apply("upsample2x", (x,), fwd, lambda datas, out: lambda g: (_window_sums(g, h, w, c),))


def dense_pass(
    x: Tensor,
    hidden: Sequence[tuple[Tensor, Tensor]],
    out: tuple[Tensor, Tensor],
    slope: float,
    skip: tuple[Tensor, Tensor] | None = None,
    shape: tuple[int, ...] | None = None,
) -> Tensor:
    """A dense network pass as one node: LeakyReLU layers, an optional skip layer, an affine output.

    Each ``(w, b)`` of ``hidden`` maps the activation before it, starting at
    the (B, D) ``x``, to ``leaky_relu(h @ w + b, slope)``. ``skip`` is one
    more such layer on the first hidden activation, its output concatenated
    after the last hidden activation's columns. ``out`` maps that to
    ``h @ w + b`` with no activation, and ``shape``, when given, reshapes
    each output row.

    Forward and backward have the bits of the op composition they replace
    (``matmul``, ``add``, ``leaky_relu``, ``concat``, ``reshape``): the same
    NumPy calls in the same order, with each product through ``_product``.
    The first hidden activation, read by the second layer and by the skip
    layer, takes the skip layer's cotangent plus the second layer's (two
    terms, so the sum is the tape walk's whichever comes first). A
    cotangent is computed only where the ops would have computed it: for a
    tracked input, and for an intermediate that some tracked input reaches.
    The node's ``kinks`` are all its LeakyReLU pre-activations.

    Inside ``finite_diff_check``'s perturbation loop an eager pass reuses
    the leading LeakyReLU layers of the previous eager pass, in computation
    order (hidden layers, then skip), up to the first layer whose weight or
    bias is not the same array as before; the output layer is always
    recomputed. The rows ``x`` must match by shape, dtype and bytes, the
    slope and the layer counts must be equal, and weights and biases
    are matched by identity: a Tensor's data is frozen and the store holds
    a reference, so an id is never recycled. A reused layer holds the bits
    that the same NumPy calls on the same operands give. A recorded pass,
    and any pass outside that loop, neither reads nor fills the store.
    """
    act, factor = _leaky_rule(slope)
    layers = [*hidden, *([skip] if skip is not None else []), out]
    inputs = (x, *(t for layer in layers for t in layer))
    n = len(hidden)
    steps = len(layers) - 1  # the LeakyReLU layers: hidden, then skip
    ins, zs = [], []  # each layer's input and each LeakyReLU's pre-activation, set by the forward
    store = _reuse_store(inputs)

    def fwd(xd, *wb):
        ins.clear()
        zs.clear()
        hs = []  # each LeakyReLU layer's output; the skip layer's is the concatenation
        kept = 0
        if store is not None:
            key = (_content_key(xd), slope, n, steps)
            prev = store.get("dense_pass")
            if prev is not None and prev[0] == key:
                _, p_wb, p_zs, p_hs = prev
                while kept < steps and p_wb[2 * kept] is wb[2 * kept] and p_wb[2 * kept + 1] is wb[2 * kept + 1]:
                    kept += 1
        for j in range(steps):
            h = xd if j == 0 else hs[0] if j == n else hs[-1]
            ins.append(h)
            if j < kept:
                zs.append(p_zs[j])
                hs.append(p_hs[j])
                continue
            zs.append(_product(h, wb[2 * j]) + wb[2 * j + 1])
            a = act(zs[-1])
            hs.append(np.concatenate((hs[-1], a), axis=1) if j == n else a)
        h = hs[-1] if hs else xd
        ins.append(h)
        y = _product(h, wb[-2]) + wb[-1]
        if shape is not None:
            y.shape = (y.shape[0], *shape)  # in place, so the tensor can own it
        if store is not None:
            store["dense_pass"] = (key, wb, tuple(zs), tuple(hs))
        return y

    def bwd(datas, out_data):
        rows = (datas[0].shape[0], datas[-1].shape[0])
        tracked = [t.requires_grad for t in inputs]
        # whether each layer's input, product and pre-activation would be tracked as ops
        in_tr, m_tr, z_tr = [], [], []

        def track(j, h_tr):
            in_tr.append(h_tr)
            m_tr.append(h_tr or tracked[2 * j + 1])
            z_tr.append(m_tr[-1] or tracked[2 * j + 2])
            return z_tr[-1]

        h_tr = tracked[0]
        for j in range(n):
            h_tr = track(j, h_tr)
        if skip is not None:
            h_tr = track(n, z_tr[0]) or h_tr  # the concatenation
        track(len(layers) - 1, h_tr)

        def back(g):
            grads = [None] * len(inputs)

            def affine_back(j, g_z):
                """Layer j's bias and weight cotangents into ``grads``; returns its input's, or None."""
                w, b = datas[2 * j + 1], datas[2 * j + 2]
                if tracked[2 * j + 2]:
                    grads[2 * j + 2] = _unbroadcast(g_z, b.shape)
                if not m_tr[j]:
                    return None
                if tracked[2 * j + 1]:
                    grads[2 * j + 1] = _product(ins[j].T, g_z)
                return _product(g_z, w.T) if in_tr[j] else None

            g_h = affine_back(len(layers) - 1, g.reshape(rows))
            g_skip = None
            if skip is not None and g_h is not None:
                g_h, g_s = (np.ascontiguousarray(p) for p in np.split(g_h, [hidden[-1][0].shape[1]], axis=1))
                if z_tr[n]:
                    g_skip = affine_back(n, g_s * factor(zs[n]))
            for j in reversed(range(n)):
                if j == 0 and g_skip is not None:
                    g_h = g_skip if g_h is None else g_skip + g_h
                if not z_tr[j]:
                    break
                g_h = affine_back(j, g_h * factor(zs[j]))
            grads[0] = g_h
            return tuple(grads)

        return back

    return _apply("dense_pass", inputs, fwd, bwd, kinks=zs)


# ---------------------------------------------------------------------------
# composites
# ---------------------------------------------------------------------------

def l2_normalize_rows(m: Tensor | np.ndarray) -> Tensor:
    """Normalize each row of a 2-D matrix to unit norm, as one node.

    Value and cotangent have the bits of the op composition ``t / tsum(t *
    t, axis=1, keepdims=True) ** 0.5``, the oracle ``op_l2_normalize_rows``
    in ``tests/conftest.py``. ``t`` is used three times there: the tape
    walk gives it the division's cotangent, then adds the product's two,
    one at a time, and so does this node.

    The forward's norms, ``row_sums(x * x) ** 0.5``, have the bits of
    ``np.linalg.norm(x, axis=1)`` (the same products, sums and ``sqrt``),
    and they are what the checks read: a sum that overflows raises
    ``NonFiniteValue`` and a norm at or below ``EPS_NORM`` raises
    ``NormTooSmall``, both before anything is recorded.
    """
    t = _as_tensor(m)
    if t.ndim != 2:
        raise ShapeMismatch(f"l2_normalize_rows expects a matrix, got shape {t.shape}")
    saved = []

    def fwd(x):
        try:
            ss = row_sums(x * x)
        except FloatingPointError:
            raise NonFiniteValue("norm overflowed: a row holds values too large to normalize") from None
        n = ss**0.5
        if np.any(n <= EPS_NORM):
            raise NormTooSmall(f"row norm {n.min():.3e} <= {EPS_NORM:.0e}")
        saved[:] = (ss, n)
        return x / n

    def bwd(datas, out):
        (x,) = datas
        ss, n = saved

        def back(g):
            p = _unbroadcast(-g * x / (n * n), n.shape) * 0.5 * ss ** (0.5 - 1.0) * x
            return ((g / n + p) + p,)

        return back

    return _apply("l2_normalize_rows", (t,), fwd, bwd)


def finite_diff_check(
    f: Callable[..., Tensor],
    params: Sequence[Tensor],
    step: float = 1e-5,
    tolerance: float = 1e-4,
    floor: float = 1e-3,
) -> "FiniteDiffReport":
    """Compare analytic gradients of f(*params) against central differences.

    Relative error per coordinate is |a - n| / max(|a| + |n|, floor). The
    floor turns the check into an absolute one on near-zero coordinates,
    where central differences carry truncation error ~ step^2 * f'''/6 and
    roundoff ~ 1e-16 * |f| / step that would otherwise register as spurious
    relative error; proportional corruption of real gradients still fails.
    ``floor`` and ``tolerance`` must be positive and finite: with a zero
    floor an exactly zero coordinate gives 0/0, and a NaN maximum would
    pass any gradient. ``params`` must be non-empty and every parameter
    must have a coordinate, or the check would pass having checked nothing.

    The perturbed evaluations are eager and run in one scope per parameter
    (``_reusing_evaluations``) in which each evaluation reuses what the
    previous one computed from identical operands, and nothing else: the
    leading dense layers of ``dense_pass``, ``supervised_loss``'s validated
    one-hot target and ``consistency_loss``'s teacher probabilities.
    Parameter arrays are matched by identity, caller-owned arrays (pixel
    rows, targets, teacher logits) by shape, dtype and bytes. A perturbed
    parameter is a new array, so everything from its layer on is
    recomputed, and every value is still produced by the same NumPy calls
    on the same operands. The analytic pass runs taped, outside the scope.
    """
    if not (0.0 < step <= 1e-2):
        raise ValueError(f"step must be in (0, 1e-2], got {step}")
    for name, value in (("tolerance", tolerance), ("floor", floor)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not params:
        raise ValueError("params must hold at least one parameter")
    for pi, p in enumerate(params):
        if p.data.size == 0:
            raise ValueError(f"parameter {p.name or f'param[{pi}]'} has no coordinates to check")
    with GradTape() as tape:
        out = f(*params)
    analytic = tape.gradient(out, params, warn_disconnected=False)

    max_rel = 0.0
    worst = ("", 0)
    for pi, p in enumerate(params):
        base = p.data
        numeric = np.zeros(base.size, dtype=np.float64)
        with _raising_floats(), _reusing_evaluations():
            for ci in range(base.size):
                pert = base.reshape(-1).copy()
                pert[ci] += step
                plus = Tensor(pert.reshape(base.shape), name=p.name)
                pert[ci] = base.reshape(-1)[ci] - step
                minus = Tensor(pert.reshape(base.shape), name=p.name)
                args_p = [plus if j == pi else q for j, q in enumerate(params)]
                args_m = [minus if j == pi else q for j, q in enumerate(params)]
                numeric[ci] = (f(*args_p).item() - f(*args_m).item()) / (2.0 * step)
        numeric = numeric.reshape(base.shape)
        a = analytic[pi]
        rel = np.abs(a - numeric) / np.maximum(np.abs(a) + np.abs(numeric), floor)
        m = float(rel.max())
        if m > max_rel:
            max_rel = m
            worst = (p.name or f"param[{pi}]", int(np.argmax(rel)))
    return FiniteDiffReport(max_rel_error=max_rel, tolerance=tolerance, worst=worst)


class FiniteDiffReport:
    """Outcome of a finite-difference gradient comparison."""

    def __init__(self, max_rel_error: float, tolerance: float, worst: tuple[str, int]):
        self.max_rel_error = max_rel_error
        self.tolerance = tolerance
        self.worst = worst

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance

    def __repr__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"FiniteDiffReport({status}, max_rel_error={self.max_rel_error:.3e}, "
            f"tolerance={self.tolerance:.1e}, worst={self.worst})"
        )
