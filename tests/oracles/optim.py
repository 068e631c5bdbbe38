"""Per-parameter Adam and gradient clipping: the specs of the flat engine."""

from contextlib import contextmanager

import numpy as np

import repro.core.training as training
from repro import perfstats
from repro.nn.optim import Optimizer


def clip_grad_norm_reference(parameters, max_norm):
    """Per-parameter reference for :func:`repro.nn.clip_grad_norm`.

    Scales gradients in place so their global L2 norm is at most
    ``max_norm``; returns the pre-clipping norm.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                              for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for param in parameters:
            param.grad *= scale
    return total


class Adam_reference(Optimizer):
    """Per-parameter Adam (Kingma & Ba) — the spec of :class:`repro.nn.Adam`.

    Optimizer state follows each parameter's dtype; state buffers are lazily
    (re)allocated so casting a model with ``Module.to`` after constructing
    the optimizer stays correct.  The step works in preallocated scratch
    buffers to avoid per-step temporaries.  ``space`` answers the flat
    space's ``snapshot``/``restore`` with one copy per parameter (what a
    ``state_dict`` round trip does), so ``train_model`` can run on it.
    """

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch = [np.empty_like(p.data) for p in self.parameters]
        self.space = self

    def snapshot(self):
        return [param.data.copy() for param in self.parameters]

    def restore(self, snapshots):
        for param, saved in zip(self.parameters, snapshots):
            param.data = saved.copy()

    def step(self):
        perfstats.increment("optim.reference_step")
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        sqrt_bias2 = np.sqrt(bias2)
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            dtype = param.data.dtype
            if self._m[i].dtype != dtype:
                self._m[i] = self._m[i].astype(dtype)
                self._v[i] = self._v[i].astype(dtype)
                self._scratch[i] = np.empty(param.data.shape, dtype=dtype)
            m, v, scratch = self._m[i], self._v[i], self._scratch[i]
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            # update = lr * m_hat / (sqrt(v_hat) + eps), computed in scratch:
            # sqrt(v_hat) = sqrt(v) / sqrt(bias2), m_hat = m / bias1.
            np.sqrt(v, out=scratch)
            scratch /= sqrt_bias2
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bias1
            param.data -= scratch


@contextmanager
def reference_training():
    """Run ``train_model`` on :class:`Adam_reference` and
    :func:`clip_grad_norm_reference` while the block is open."""
    saved = training.Adam, training.clip_grad_norm
    training.Adam, training.clip_grad_norm = (Adam_reference,
                                              clip_grad_norm_reference)
    try:
        yield
    finally:
        training.Adam, training.clip_grad_norm = saved
