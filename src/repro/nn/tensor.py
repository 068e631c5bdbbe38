"""Reverse-mode automatic differentiation on numpy arrays.

This module is the neural-network substrate of the reproduction: the paper
trains its zero-shot cost model (node-type MLPs + message passing) with
PyTorch, which is not available here, so we implement the required tensor
operations with hand-written backward passes.

The design follows the classic define-by-run tape: every operation returns a
new :class:`Tensor` holding references to its parents and a closure that
propagates gradients to them.  Calling :meth:`Tensor.backward` performs a
topological sort of the graph and accumulates gradients.

Three engine-level features keep the hot loop fast:

* **Fused ops** — :func:`linear` (matmul + bias in one tape node) and
  :func:`fused_act_dropout` (activation + inverted dropout in one node)
  replace chains of elementwise nodes in the MLP forward pass.
* **Gradient ownership** — backward closures that compute a *fresh* array
  hand it to ``_accumulate(..., owned=True)``, which adopts the buffer
  instead of deep-copying it.  Unowned gradients (views or shared upstream
  buffers) are still copied on first accumulation, so a parameter's ``grad``
  never aliases another node's buffer.
* **Flat parameter storage** — :class:`FlatParameterSpace` rebinds a fixed
  set of parameters so their ``data`` (and accumulated ``grad``) are views
  into one contiguous per-dtype buffer.  Optimizers then update the whole
  model with a handful of vectorized ops (see :class:`repro.nn.optim.Adam`)
  and early-stopping snapshots become a single buffer copy.  A parameter
  carrying a ``_grad_view`` receives its first gradient *into* the flat
  buffer instead of adopting the caller's array.

Floating-point precision is configurable module-wide: training runs in
``float32`` by default (see :class:`repro.core.training.TrainingConfig`),
while the library default for ad-hoc tensors stays ``float64``.  Use
:func:`set_default_dtype` / :func:`default_dtype` to change it; float
arrays passed into :class:`Tensor` keep their dtype.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["Tensor", "concat", "maximum", "scatter_sum", "linear",
           "fused_act_dropout", "linear_act_dropout", "activation_numpy",
           "dropout_keep_mask", "row_stable_matmul",
           "segment_sum", "FlatParameterSpace",
           "no_grad", "is_grad_enabled",
           "set_default_dtype", "get_default_dtype", "default_dtype"]

# Grad mode is *per-thread* (like torch.no_grad): a serving thread running
# inference under ``no_grad`` must not disable graph construction for a
# training thread — the continuous-learning controller fine-tunes while the
# predictor keeps serving in the same process.
_GRAD_STATE = threading.local()
_DEFAULT_DTYPE = np.dtype(np.float64)
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def set_default_dtype(dtype):
    """Set the dtype used when wrapping non-float data (float32 or float64)."""
    global _DEFAULT_DTYPE
    dtype = np.dtype(dtype)
    if dtype not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dtype


def get_default_dtype():
    return _DEFAULT_DTYPE


class default_dtype:
    """Context manager scoping :func:`set_default_dtype`."""

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype)

    def __enter__(self):
        self._prev = _DEFAULT_DTYPE
        set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc, tb):
        set_default_dtype(self._prev)
        return False


class no_grad:
    """Context manager that disables graph construction (for inference).

    The switch is thread-local: entering ``no_grad`` on one thread leaves
    every other thread's autograd untouched.
    """

    def __enter__(self):
        self._prev = getattr(_GRAD_STATE, "enabled", True)
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb):
        _GRAD_STATE.enabled = self._prev
        return False


def is_grad_enabled():
    return getattr(_GRAD_STATE, "enabled", True)


def activation_numpy(kind, x, negative_slope=0.01):
    """Forward value of an activation on a plain numpy array.

    The single home of the activation formulas: the ``Tensor`` tape methods,
    :func:`fused_act_dropout` and the modules' ``forward_numpy`` fast path
    all evaluate through here, so the two execution paths cannot diverge.
    """
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "leaky_relu":
        # max(x, slope*x) picks x exactly where x > 0 and slope*x elsewhere
        # (0 < slope < 1): same values as the where() form, one less temp.
        return np.maximum(x, negative_slope * x)
    if kind == "tanh":
        return np.tanh(x)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
    raise ValueError(f"unknown activation {kind!r}")


def dropout_keep_mask(rng, shape, p, dtype):
    """Inverted-dropout keep mask (zeros with probability ``p``, rescaled).

    The uniform draw runs natively in the working dtype: float32 models
    draw float32 randoms (half the generator work and memory traffic).
    Note a float32 draw consumes a *different* rng stream than a float64
    draw, so masks differ across dtypes — but they are deterministic per
    (rng state, dtype), which is the property the engine's bit-identity
    contracts rely on: every code path (fused tape ops, ``forward_numpy``,
    flat vs reference optimizer runs) draws through this one helper.
    The mask is built as a 0/1 array scaled in place — the kept entries are
    exactly 1, so scaling commutes with the cast and the values equal the
    ``(draw >= p) / (1 - p)`` formulation without full-size temporaries.
    """
    dtype = np.dtype(dtype)
    draw_dtype = dtype if dtype == np.dtype(np.float32) else np.float64
    keep = (rng.random(shape, dtype=draw_dtype) >= p).astype(dtype, copy=False)
    keep *= dtype.type(1.0 / (1.0 - p))
    return keep


def row_stable_matmul(x, w):
    """``x @ w`` with per-row results independent of the number of rows.

    BLAS dispatches degenerate matmuls — a single input row or a single
    output column — to gemv kernels whose reduction order over the shared
    dimension differs from the gemm kernels used for larger operands, so the
    *same* row can produce different low-order bits depending on how many
    other rows share the call.  The serving layer's contract (micro-batched
    predictions bit-identical to direct ``predict_runtimes`` calls, cached
    results valid under any later batch composition) needs row results that
    are a pure function of the row, so the graph-free inference path routes
    every matmul through here:

    * one output column: evaluated as an elementwise product reduced with
      ``sum(axis=1)`` — numpy reduces each row independently (pairwise, in a
      fixed order), so the result cannot depend on the other rows;
    * one input row (and >1 output column): padded to two rows so BLAS takes
      the gemm kernel, whose per-row results are row-count-invariant (the
      property ``tests/test_serving.py`` asserts across shapes);
    * everything else: plain ``@`` (gemm).

    ``ZeroShotModel.forward_inference`` feeds every MLP from buffers of at
    least two rows, so on that path the pad branch never runs; it serves
    ad-hoc one-row callers of ``Linear.forward_numpy``.

    The kernel choice depends only on ``w``'s shape — a model property — and
    the row count, never on which rows travel together, so any two batch
    compositions agree bitwise on shared rows.
    """
    if w.shape[1] == 1:
        return np.multiply(x, w[:, 0]).sum(axis=1, keepdims=True)
    if x.shape[0] == 1:
        padded = np.zeros((2, x.shape[1]), dtype=x.dtype)
        padded[0] = x[0]
        return (padded @ w)[:1]
    return x @ w


def _unbroadcast(grad, shape):
    """Sum ``grad`` so that it has ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over dimensions that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _coerce(data):
    """Wrap ``data`` as an array, casting non-float inputs to the default dtype.

    Float32/float64 arrays keep their dtype so a model's precision choice
    propagates through every op (numpy's promotion rules do the rest).
    """
    arr = np.asarray(data)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(_DEFAULT_DTYPE)


def _as_array(value):
    if isinstance(value, Tensor):
        raise TypeError("expected array-like, got Tensor")
    return _coerce(value)


class Tensor:
    """A numpy array with an optional gradient and autograd history."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward",
                 "name", "_grad_view")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=None):
        self.data = _coerce(data)
        self.grad = None
        self.requires_grad = (bool(requires_grad)
                              and getattr(_GRAD_STATE, "enabled", True))
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self.name = name
        self._grad_view = None

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def item(self):
        return float(self.data)

    def numpy(self):
        return self.data

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype):
        """Dtype cast (no gradient flow; used for engine dtype policy)."""
        return Tensor(self.data.astype(dtype, copy=False))

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Graph construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward):
        requires = (any(p.requires_grad for p in parents)
                    and getattr(_GRAD_STATE, "enabled", True))
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad, owned=False):
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` asserts the caller computed ``grad`` freshly and holds
        no other reference, letting the first accumulation adopt the buffer
        in place of a deep copy.  Unowned gradients (upstream buffers, views)
        are copied so ``self.grad`` never aliases another node's state.

        Parameters living in a :class:`FlatParameterSpace` carry a
        ``_grad_view`` into the space's flat gradient buffer; their first
        gradient is written into that view so optimizers see the whole
        model's gradient as one contiguous array.
        """
        if self.grad is None:
            view = self._grad_view
            if view is not None and view.shape == self.data.shape \
                    and view.dtype == self.data.dtype:
                np.copyto(view, grad)
                self.grad = view
                return
            dtype = self.data.dtype
            if (owned and isinstance(grad, np.ndarray) and grad.dtype == dtype
                    and grad.flags.owndata and grad.flags.writeable):
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data + other.data

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                g = _unbroadcast(grad, a.data.shape)
                a._accumulate(g, owned=g is not grad)
            if b.requires_grad:
                g = _unbroadcast(grad, b.data.shape)
                b._accumulate(g, owned=g is not grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(_as_array(other)) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data * other.data

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.data.shape),
                              owned=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.data.shape),
                              owned=True)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        data = self.data / other.data

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.data.shape),
                              owned=True)
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data ** 2),
                                           b.data.shape), owned=True)

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other):
        return Tensor(_as_array(other)) / self

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad, a=self, e=exponent):
            if a.requires_grad:
                a._accumulate(grad * e * a.data ** (e - 1), owned=True)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(_as_array(other))
        data = self.data @ other.data

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad @ b.data.T, owned=True)
            if b.requires_grad:
                b._accumulate(a.data.T @ grad, owned=True)

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self):
        data = np.exp(self.data)

        def backward(grad, a=self, d=data):
            if a.requires_grad:
                a._accumulate(grad * d, owned=True)

        return Tensor._make(data, (self,), backward)

    def log(self):
        data = np.log(self.data)

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad / a.data, owned=True)

        return Tensor._make(data, (self,), backward)

    def abs(self):
        data = np.abs(self.data)

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad * np.sign(a.data), owned=True)

        return Tensor._make(data, (self,), backward)

    def relu(self):
        mask = self.data > 0
        data = activation_numpy("relu", self.data)

        def backward(grad, a=self, m=mask):
            if a.requires_grad:
                a._accumulate(grad * m, owned=True)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, negative_slope=0.01):
        mask = self.data > 0
        data = activation_numpy("leaky_relu", self.data, negative_slope)
        deriv = np.where(mask, 1.0, negative_slope).astype(self.data.dtype,
                                                           copy=False)

        def backward(grad, a=self, d=deriv):
            if a.requires_grad:
                a._accumulate(grad * d, owned=True)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self):
        data = activation_numpy("sigmoid", self.data)

        def backward(grad, a=self, d=data):
            if a.requires_grad:
                a._accumulate(grad * d * (1.0 - d), owned=True)

        return Tensor._make(data, (self,), backward)

    def tanh(self):
        data = activation_numpy("tanh", self.data)

        def backward(grad, a=self, d=data):
            if a.requires_grad:
                a._accumulate(grad * (1.0 - d ** 2), owned=True)

        return Tensor._make(data, (self,), backward)

    def clamp(self, min_value=None, max_value=None):
        data = np.clip(self.data, min_value, max_value)
        mask = np.ones_like(self.data)
        if min_value is not None:
            mask = mask * (self.data >= min_value)
        if max_value is not None:
            mask = mask * (self.data <= max_value)

        def backward(grad, a=self, m=mask):
            if a.requires_grad:
                a._accumulate(grad * m, owned=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions and reshaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad, a=self, ax=axis, kd=keepdims):
            if not a.requires_grad:
                return
            g = np.asarray(grad)
            if ax is not None and not kd:
                g = np.expand_dims(g, ax)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy(), owned=True)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad.reshape(a.data.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self):
        data = self.data.T

        def backward(grad, a=self):
            if a.requires_grad:
                a._accumulate(grad.T)

        return Tensor._make(data, (self,), backward)

    def gather_rows(self, index, assume_unique=False):
        """Select rows ``self[index]`` (first axis); repeats are allowed.

        ``assume_unique=True`` promises the caller that ``index`` has no
        repeats, so the backward pass scatters with plain fancy-index
        assignment instead of ``np.add.at`` (identical result, much faster).
        """
        index = np.asarray(index, dtype=np.int64)
        data = self.data[index]

        def backward(grad, a=self, idx=index, unique=assume_unique):
            if a.requires_grad:
                acc = np.zeros(a.data.shape, dtype=a.data.dtype)
                if unique:
                    acc[idx] = grad
                else:
                    np.add.at(acc, idx, grad)
                a._accumulate(acc, owned=True)

        return Tensor._make(data, (self,), backward)

    def dropout(self, p, rng, training=True):
        """Inverted dropout: zero entries with probability ``p`` and rescale."""
        if not training or p <= 0.0:
            return self
        return self * Tensor(dropout_keep_mask(rng, self.data.shape, p,
                                               self.data.dtype))

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad=None):
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)

        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def linear(x, weight, bias=None):
    """Fused affine map ``x @ weight + bias`` in a single tape node.

    One node instead of two (matmul, add) halves the closure allocations in
    the MLP hot loop; the bias add runs in place on the fresh matmul output.
    Gradients for ``weight``/``bias`` are handed to the accumulator as owned
    buffers (no deep copy).
    """
    if not isinstance(x, Tensor):
        x = Tensor(_as_array(x))
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data

    def backward(grad, a=x, w=weight, b=bias):
        if a.requires_grad:
            a._accumulate(grad @ w.data.T, owned=True)
        if w.requires_grad:
            w._accumulate(a.data.T @ grad, owned=True)
        if b is not None and b.requires_grad:
            g = _unbroadcast(grad, b.data.shape)
            b._accumulate(g, owned=g is not grad)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(data, parents, backward)


_FUSED_ACTIVATIONS = frozenset({"relu", "leaky_relu", "tanh", "sigmoid"})


def fused_act_dropout(x, activation="leaky_relu", p=0.0, rng=None,
                      training=True, negative_slope=0.01):
    """Activation + inverted dropout fused into one tape node.

    The dropout mask is folded into the activation derivative, so forward
    and backward each touch the data once.  With ``p == 0`` or outside
    training this is just the fused activation.
    """
    if activation not in _FUSED_ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    xd = x.data
    data = activation_numpy(activation, xd, negative_slope)
    if activation == "relu":
        deriv = xd > 0
    elif activation == "leaky_relu":
        # dtype-typed scalars keep where() in the working dtype (no float64
        # intermediate + cast); the values are the same float32/float64
        # constants either way.
        deriv = np.where(xd > 0, xd.dtype.type(1.0),
                         xd.dtype.type(negative_slope))
    elif activation == "tanh":
        deriv = data * data
        np.subtract(1.0, deriv, out=deriv)
    else:  # sigmoid
        deriv = data * (1.0 - data)

    if training and p > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng in training mode")
        keep = dropout_keep_mask(rng, data.shape, p, xd.dtype)
        data *= keep
        deriv = deriv * keep

    def backward(grad, a=x, d=deriv):
        if a.requires_grad:
            a._accumulate(grad * d, owned=True)

    return Tensor._make(data, (x,), backward)


def linear_act_dropout(x, weight, bias=None, activation="leaky_relu", p=0.0,
                       rng=None, training=True, negative_slope=0.01):
    """One hidden MLP layer — affine map, activation, inverted dropout — as a
    single tape node.

    Equivalent to ``fused_act_dropout(linear(x, w, b), ...)`` op for op
    (bit-identical values and gradients, same rng stream), with one fewer
    tape node, closure and gradient hand-off per hidden layer.
    """
    if activation not in _FUSED_ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}")
    if not isinstance(x, Tensor):
        x = Tensor(_as_array(x))
    pre = x.data @ weight.data
    if bias is not None:
        pre += bias.data
    data = activation_numpy(activation, pre, negative_slope)
    if activation == "relu":
        deriv = pre > 0
    elif activation == "leaky_relu":
        deriv = np.where(pre > 0, pre.dtype.type(1.0),
                         pre.dtype.type(negative_slope))
    elif activation == "tanh":
        deriv = data * data
        np.subtract(1.0, deriv, out=deriv)
    else:  # sigmoid
        deriv = data * (1.0 - data)
    if training and p > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng in training mode")
        keep = dropout_keep_mask(rng, data.shape, p, pre.dtype)
        data *= keep
        deriv = deriv * keep

    def backward(grad, a=x, w=weight, b=bias, d=deriv):
        grad_pre = grad * d
        if a.requires_grad:
            a._accumulate(grad_pre @ w.data.T, owned=True)
        if w.requires_grad:
            w._accumulate(a.data.T @ grad_pre, owned=True)
        if b is not None and b.requires_grad:
            g = _unbroadcast(grad_pre, b.data.shape)
            b._accumulate(g, owned=g is not grad_pre)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(data, parents, backward)


def concat(tensors, axis=0):
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    if len(tensors) == 1:
        return tensors[0]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad, parts=tensors, offs=offsets, ax=axis):
        for tensor, start, stop in zip(parts, offs[:-1], offs[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[ax] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(data, tuple(tensors), backward)


def maximum(a, b):
    """Elementwise maximum; gradient flows to the larger input (ties split)."""
    a = a if isinstance(a, Tensor) else Tensor(_as_array(a))
    b = b if isinstance(b, Tensor) else Tensor(_as_array(b))
    data = np.maximum(a.data, b.data)
    a_wins = a.data > b.data
    tie = a.data == b.data

    def backward(grad, x=a, y=b, aw=a_wins, t=tie):
        ga = grad * (aw + 0.5 * t)
        gb = grad * (~aw & ~t) + grad * 0.5 * t
        if x.requires_grad:
            x._accumulate(_unbroadcast(ga, x.data.shape), owned=True)
        if y.requires_grad:
            y._accumulate(_unbroadcast(gb, y.data.shape), owned=True)

    return Tensor._make(data, (a, b), backward)


def segment_sum(source, index, num_segments, out=None):
    """``out[j] = sum_{i: index[i]=j} source[i]`` on plain numpy arrays.

    Non-decreasing indices (how the batcher emits edges: grouped by parent)
    take a ``reduceat`` over the runs of equal values, which accumulates
    each segment's rows in the same sequential order as ``np.add.at`` — the
    result is identical without the per-element dispatch cost of ``at``.
    Unsorted indices fall back to ``np.add.at``.  ``out`` (zero-filled by
    the caller, ``num_segments`` rows) avoids the output allocation.
    """
    if out is None:
        out = np.zeros((num_segments,) + source.shape[1:], dtype=source.dtype)
    n = len(index)
    if not n:
        return out
    if n == 1:
        out[index[0]] = source[0]
        return out
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(index[1:], index[:-1], out=change[1:])
    if bool((index[1:] >= index[:-1]).all()):
        starts = np.flatnonzero(change)
        out[index[starts]] = np.add.reduceat(source, starts, axis=0)
    else:
        np.add.at(out, index, source)
    return out


def scatter_sum(source, index, num_segments):
    """Sum rows of ``source`` into ``num_segments`` buckets given by ``index``.

    The workhorse of bottom-up message passing: child hidden states are
    scattered into their parents' slots. ``out[j] = sum_{i: index[i]=j} src[i]``.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.ndim != 1 or len(index) != len(source.data):
        raise ValueError("index must be 1-D and match the number of source rows")
    data = segment_sum(source.data, index, num_segments)

    def backward(grad, src=source, idx=index):
        if src.requires_grad:
            src._accumulate(grad[idx], owned=True)

    return Tensor._make(data, (source,), backward)


class _FlatGroup:
    """One dtype's contiguous storage inside a :class:`FlatParameterSpace`."""

    __slots__ = ("dtype", "data", "grad", "params", "data_views",
                 "grad_views", "slices")

    def __init__(self, dtype, params):
        self.dtype = dtype
        self.params = params
        total = sum(p.data.size for p in params)
        self.data = np.empty(total, dtype=dtype)
        self.grad = np.zeros(total, dtype=dtype)
        self.data_views, self.grad_views, self.slices = [], [], []
        offset = 0
        for param in params:
            size = param.data.size
            shape = param.data.shape
            data_view = self.data[offset:offset + size].reshape(shape)
            grad_view = self.grad[offset:offset + size].reshape(shape)
            np.copyto(data_view, param.data)
            had_grad = param.grad is not None
            if had_grad:
                np.copyto(grad_view, param.grad)
            param.data = data_view
            param._grad_view = grad_view
            param.grad = grad_view if had_grad else None
            self.data_views.append(data_view)
            self.grad_views.append(grad_view)
            self.slices.append((offset, offset + size))
            offset += size

    def bound(self):
        """True while every parameter's ``data`` is still our view."""
        return all(p.data is v for p, v in zip(self.params, self.data_views))

    def grads_complete(self):
        """True when every parameter's grad was accumulated into our buffer."""
        return all(p.grad is v for p, v in zip(self.params, self.grad_views))


class FlatParameterSpace:
    """All of a model's parameters as views into per-dtype flat buffers.

    Flattening copies each parameter's current values into one contiguous
    buffer per dtype and rebinds ``param.data`` (and the gradient
    accumulation target, via ``param._grad_view``) to views of it.  The
    whole model can then be snapshotted, restored, or stepped by an
    optimizer with a constant number of vectorized ops, independent of the
    parameter count.

    Anything that replaces a parameter's ``data`` array wholesale
    (``Module.to`` with a new dtype, ``load_state_dict``) silently unbinds
    the views; :meth:`bound` detects that and :meth:`rebind` re-flattens —
    optimizers check once per step, so external mutation stays correct, just
    off the fast path for that step.
    """

    def __init__(self, parameters):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("cannot flatten zero parameters")
        self.groups = []
        self._flatten()

    def _flatten(self):
        by_dtype = {}
        for param in self.parameters:
            by_dtype.setdefault(param.data.dtype, []).append(param)
        self.groups = [_FlatGroup(dtype, params)
                       for dtype, params in by_dtype.items()]

    def bound(self):
        return all(group.bound() for group in self.groups)

    def rebind(self):
        """Re-flatten after external rebinding of ``param.data`` arrays.

        Current parameter values (and any pending grads) are preserved; the
        parameters simply move into fresh flat buffers.
        """
        self._flatten()

    def snapshot(self):
        """One contiguous copy per dtype — the flat early-stopping snapshot."""
        return [group.data.copy() for group in self.groups]

    def restore(self, snapshots):
        """Write a :meth:`snapshot` back into the parameters (in place)."""
        if len(snapshots) != len(self.groups):
            raise ValueError("snapshot does not match this parameter space")
        if not self.bound():
            self.rebind()
        for group, saved in zip(self.groups, snapshots):
            np.copyto(group.data, saved)
