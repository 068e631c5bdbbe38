"""Neural-network modules built on :mod:`repro.nn.tensor`.

Provides the layers the zero-shot architecture needs: linear layers, small
multi-layer perceptrons with configurable activations, and dropout.  Modules
follow a simplified PyTorch-like protocol (``parameters()``, ``train()`` /
``eval()``, ``state_dict()`` / ``load_state_dict()``).

Every module involved in the inference hot path also implements
``forward_numpy(x)``: a graph-free evaluation on plain numpy arrays with
zero ``Tensor``/closure allocation, used by
:meth:`repro.core.model.ZeroShotModel.forward_inference`.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from .tensor import (Tensor, activation_numpy, dropout_keep_mask, linear,
                     linear_act_dropout, row_stable_matmul)

__all__ = ["Module", "Linear", "ReLU", "LeakyReLU", "Tanh", "Sigmoid",
           "Dropout", "Sequential", "MLP"]

# Distinct deterministic seeds for layers built without an explicit rng:
# layer k constructed in a process gets seed k (identical shapes no longer
# share identical weights).
_DEFAULT_SEEDS = itertools.count()


class Module:
    """Base class for all neural modules."""

    def __init__(self):
        self.training = True

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def forward_numpy(self, x):
        """Graph-free forward on a numpy array (inference fast path)."""
        raise NotImplementedError(
            f"{type(self).__name__} has no numpy fast path")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def _children(self):
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield f"{name}.{key}", item

    def parameters(self):
        """Yield all trainable tensors of this module and its children."""
        for value in vars(self).values():
            if isinstance(value, Tensor) and value.requires_grad:
                yield value
        for _, child in self._children():
            yield from child.parameters()

    def named_parameters(self, prefix=""):
        for name, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                yield prefix + name, value
        for name, child in self._children():
            yield from child.named_parameters(prefix + name + ".")

    def zero_grad(self):
        for param in self.parameters():
            param.grad = None

    def train(self, mode=True):
        self.training = mode
        for _, child in self._children():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def to(self, dtype):
        """Cast all parameters to ``dtype`` in place (grads are dropped)."""
        dtype = np.dtype(dtype)
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
            param.grad = None
        return self

    def param_dtype(self):
        """Dtype of the first parameter (``float64`` for empty modules)."""
        for param in self.parameters():
            return param.data.dtype
        return np.dtype(np.float64)

    def num_parameters(self):
        return sum(p.size for p in self.parameters())

    def state_dict(self):
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state, copy=True):
        """Load parameters; float32/float64 values keep their stored dtype.

        Checkpoints written before the fused-MLP refactor (parameters named
        ``...net.layers.N.weight``) are migrated to the current
        ``...linears.K.weight`` layout transparently.

        ``copy=False`` adopts the given arrays directly instead of copying —
        the inference-only mmap hydration path uses this so parameters stay
        read-only views of an on-disk checkpoint shared across processes.
        A model loaded this way must not be trained (its parameters may not
        be writable).
        """
        state = _migrate_legacy_mlp_keys(state)
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = own[name]
            if param.data.shape != values.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{param.data.shape} vs {values.shape}")
            values = np.asarray(values)
            if values.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                values = values.astype(param.data.dtype)
            param.data = np.array(values, copy=True) if copy else values


_LEGACY_MLP_KEY = re.compile(r"^(.*?)net\.layers\.(\d+)\.(weight|bias)$")


def _migrate_legacy_mlp_keys(state):
    """Rename pre-refactor MLP keys (``net.layers.N.*``) to ``linears.K.*``.

    The old ``Sequential`` interleaved parameter-free activation/dropout
    modules between linear layers, so legacy indices are sparse; K is the
    rank of N among the legacy indices sharing the same module prefix.
    """
    legacy_indices = {}
    for key in state:
        match = _LEGACY_MLP_KEY.match(key)
        if match:
            legacy_indices.setdefault(match.group(1), set()).add(
                int(match.group(2)))
    if not legacy_indices:
        return state
    ranks = {prefix: {index: rank
                      for rank, index in enumerate(sorted(indices))}
             for prefix, indices in legacy_indices.items()}
    migrated = {}
    for key, values in state.items():
        match = _LEGACY_MLP_KEY.match(key)
        if match:
            prefix, index, leaf = (match.group(1), int(match.group(2)),
                                   match.group(3))
            key = f"{prefix}linears.{ranks[prefix][index]}.{leaf}"
        migrated[key] = values
    return migrated


class Linear(Module):
    """Affine map ``y = x W + b`` with He/Xavier initialization.

    Without an explicit ``rng`` each instance derives its own seed (two
    layers of the same shape get different weights); pass ``rng`` for
    reproducible initialization.
    """

    def __init__(self, in_features, out_features, bias=True, rng=None, init="he"):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng(next(_DEFAULT_SEEDS))
        if init == "he":
            scale = np.sqrt(2.0 / in_features)
        elif init == "xavier":
            scale = np.sqrt(2.0 / (in_features + out_features))
        else:
            raise ValueError(f"unknown init {init!r}")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(rng.normal(0.0, scale, size=(in_features, out_features)),
                             requires_grad=True, name="weight")
        self.bias = None
        if bias:
            self.bias = Tensor(np.zeros(out_features), requires_grad=True, name="bias")

    def forward(self, x):
        return linear(x, self.weight, self.bias)

    def forward_numpy(self, x):
        # Inference-path matmuls are row-stable (see row_stable_matmul):
        # a row's result is identical whether it travels alone or inside a
        # batch, which the serving layer's bit-identity contract relies on.
        w = self.weight.data
        if x.dtype != w.dtype:
            x = x.astype(w.dtype)
        out = row_stable_matmul(x, w)
        if self.bias is not None:
            out += self.bias.data
        return out


# The activation/dropout formulas live once, in repro.nn.tensor
# (activation_numpy / dropout_keep_mask); the modules delegate there.
class ReLU(Module):
    activation = "relu"

    def forward(self, x):
        return x.relu()

    def forward_numpy(self, x):
        return activation_numpy("relu", x)


class LeakyReLU(Module):
    activation = "leaky_relu"

    def __init__(self, negative_slope=0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x):
        return x.leaky_relu(self.negative_slope)

    def forward_numpy(self, x):
        return activation_numpy("leaky_relu", x, self.negative_slope)


class Tanh(Module):
    activation = "tanh"

    def forward(self, x):
        return x.tanh()

    def forward_numpy(self, x):
        return activation_numpy("tanh", x)


class Sigmoid(Module):
    activation = "sigmoid"

    def forward(self, x):
        return x.sigmoid()

    def forward_numpy(self, x):
        return activation_numpy("sigmoid", x)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p=0.1, seed=0):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x):
        return x.dropout(self.p, self._rng, training=self.training)

    def forward_numpy(self, x):
        if not self.training or self.p <= 0.0:
            return x
        return x * dropout_keep_mask(self._rng, x.shape, self.p, x.dtype)


class Sequential(Module):
    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def forward_numpy(self, x):
        for layer in self.layers:
            x = layer.forward_numpy(x)
        return x


_ACTIVATIONS = {"relu": ReLU, "leaky_relu": LeakyReLU, "tanh": Tanh, "sigmoid": Sigmoid}


class MLP(Module):
    """Multi-layer perceptron: the basic building block of all paper models.

    ``MLP(10, [64, 64], 32)`` maps 10 inputs through two hidden layers of 64
    units to 32 outputs, with the chosen activation between layers (none after
    the final layer) and optional dropout after each hidden activation.

    The forward pass is fused: each hidden layer is a single
    ``linear_act_dropout`` tape node (affine map, activation and dropout
    mask in one op) instead of a chain of separate layer modules.
    """

    def __init__(self, in_features, hidden_sizes, out_features,
                 activation="leaky_relu", dropout=0.0, rng=None, seed=0):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(seed)
        sizes = [in_features] + list(hidden_sizes) + [out_features]
        self.activation = activation
        self.negative_slope = 0.01
        self.dropout = float(dropout)
        self.linears = [Linear(n_in, n_out, rng=rng)
                        for n_in, n_out in zip(sizes[:-1], sizes[1:])]
        self._dropout_rngs = [
            np.random.default_rng(int(rng.integers(1 << 31)))
            if dropout > 0.0 else None
            for _ in range(len(self.linears) - 1)
        ]
        self.in_features = in_features
        self.out_features = out_features

    def forward(self, x):
        return self.forward_tail(x, start=0)

    def forward_tail(self, x, start=0):
        """Forward from layer ``start`` on (0 = the whole MLP).

        Lets a caller that fused layer 0 into an upstream op (the zero-shot
        model's combine step) run the remaining layers through the same
        code path.
        """
        last = len(self.linears) - 1
        for i in range(start, len(self.linears)):
            layer = self.linears[i]
            if i < last:
                x = linear_act_dropout(
                    x, layer.weight, layer.bias, self.activation,
                    p=self.dropout, rng=self._dropout_rngs[i],
                    training=self.training,
                    negative_slope=self.negative_slope)
            else:
                x = linear(x, layer.weight, layer.bias)
        return x

    def forward_numpy(self, x, rows=None):
        """Graph-free forward; only the first ``rows`` rows are real.

        Rows past ``rows`` are padding a caller added to keep BLAS on its
        gemm kernel: dropout masks cover the real rows only, so the rng
        stream matches an unpadded call.
        """
        last = len(self.linears) - 1
        for i, layer in enumerate(self.linears):
            x = layer.forward_numpy(x)
            if i < last:
                x = activation_numpy(self.activation, x, self.negative_slope)
                if self.training and self.dropout > 0.0:
                    real = x[:rows]
                    real *= dropout_keep_mask(self._dropout_rngs[i],
                                              real.shape, self.dropout,
                                              x.dtype)
        return x
