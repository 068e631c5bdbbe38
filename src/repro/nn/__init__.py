"""Minimal neural-network framework (numpy autograd) used by all learned models.

This package replaces PyTorch in the reproduction: it provides a
reverse-mode autograd :class:`~repro.nn.tensor.Tensor`, standard layers,
optimizers and the Q-error loss from the paper.
"""

from .tensor import (Tensor, concat, maximum, scatter_sum, linear,
                     fused_act_dropout, linear_act_dropout, segment_sum,
                     row_stable_matmul, FlatParameterSpace, no_grad,
                     is_grad_enabled, set_default_dtype, get_default_dtype,
                     default_dtype)
from .modules import (Module, Linear, ReLU, LeakyReLU, Tanh, Sigmoid,
                      Dropout, Sequential, MLP)
from .optim import SGD, Adam, clip_grad_norm
from .losses import q_error, q_error_metrics, QErrorLoss, mse_loss, huber_loss
from .serialize import save_state, load_state
from .blas import openblas, pin_blas_to_one_thread

__all__ = [
    "Tensor", "concat", "maximum", "scatter_sum", "linear",
    "fused_act_dropout", "linear_act_dropout", "segment_sum",
    "row_stable_matmul", "FlatParameterSpace",
    "no_grad", "is_grad_enabled",
    "set_default_dtype", "get_default_dtype", "default_dtype",
    "Module", "Linear", "ReLU", "LeakyReLU", "Tanh", "Sigmoid",
    "Dropout", "Sequential", "MLP",
    "SGD", "Adam", "clip_grad_norm",
    "q_error", "q_error_metrics", "QErrorLoss", "mse_loss", "huber_loss",
    "save_state", "load_state", "openblas", "pin_blas_to_one_thread",
]
