"""Optimizers for :mod:`repro.nn` models.

The engine's :class:`Adam` is *flat*: constructing it moves all parameters
into a :class:`~repro.nn.tensor.FlatParameterSpace` (one contiguous buffer
per dtype, parameters become views), its moment state lives in matching
flat buffers, and a step is a constant number of vectorized ops over the
whole model instead of a per-parameter Python loop.  It must match the
per-parameter Adam (and :func:`clip_grad_norm` the per-parameter clipping)
bit-for-bit; those loops live with the tests as oracles
(``tests/oracles/optim.py``), and the tier-1 suite asserts the identity
over whole ``train_model`` runs.

Bit-identity details worth knowing:

* Every update op is elementwise, so running it over the concatenated
  buffer produces exactly the per-parameter results.
* The gradient norm is still accumulated per parameter (same ``vdot`` per
  slice, same Python-float summation order as the reference) — a single
  ``vdot`` over the flat buffer would change the floating-point reduction
  order.  Only the *scaling* is collapsed to one in-place multiply.
* A step in which some parameters received no gradient (a batch without
  some node type) falls back to a per-parameter walk over the flat views —
  the reference skips those parameters entirely, and decaying their moments
  anyway would diverge from it.
"""

from __future__ import annotations

import numpy as np

from .. import perfstats
from .tensor import FlatParameterSpace

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm):
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for monitoring training stability).
    The norm itself is accumulated per parameter — bit-identical to the
    per-parameter loop — but gradients that together tile one
    flat buffer (parameters flattened by :class:`Adam` /
    :class:`~repro.nn.tensor.FlatParameterSpace`) are rescaled with a single
    in-place multiply on the buffer.
    """
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                              for p in parameters)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        by_base = {}
        for param in parameters:
            base = param.grad.base if isinstance(param.grad, np.ndarray) \
                else None
            by_base.setdefault(id(base) if base is not None else None,
                               (base, []))[1].append(param)
        for base, group in by_base.values():
            if base is not None and sum(p.grad.size for p in group) == base.size:
                # The group's views cover the flat buffer exactly: scaling
                # the buffer scales each gradient, elementwise-identical to
                # the per-parameter loop.
                base *= scale
                perfstats.increment("optim.flat_clip")
            else:
                for param in group:
                    param.grad *= scale
    return total


class Optimizer:
    def __init__(self, parameters):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self):
        for param in self.parameters:
            param.grad = None

    def step(self):
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters, lr=1e-2, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity = self._velocity[i]
                if velocity.dtype != param.data.dtype:
                    velocity = self._velocity[i] = velocity.astype(
                        param.data.dtype)
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Flat-parameter Adam: the whole model updated in ~8 vectorized ops.

    Construction flattens the parameters (see
    :class:`~repro.nn.tensor.FlatParameterSpace`); moments and scratch live
    in flat buffers aligned with the parameter buffer.  When every
    parameter's gradient was accumulated into the flat gradient buffer (the
    common case), the step runs whole-buffer ops; otherwise it walks the
    flat views per parameter, skipping missing gradients exactly like the
    per-parameter Adam.  Both paths are bit-identical to that loop.
    """

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self.space = FlatParameterSpace(self.parameters)
        self._alloc_state()

    def _alloc_state(self, old_state=None):
        """Flat m/v/scratch per group; preserves old moments across rebinds."""
        self._m, self._v, self._scratch, self._scratch2 = {}, {}, {}, {}
        for group in self.space.groups:
            m = np.zeros_like(group.data)
            v = np.zeros_like(group.data)
            if old_state is not None:
                for param, (start, stop) in zip(group.params, group.slices):
                    old = old_state.get(id(param))
                    if old is not None:
                        m[start:stop] = old[0].ravel()
                        v[start:stop] = old[1].ravel()
            self._m[id(group)] = m
            self._v[id(group)] = v
            self._scratch[id(group)] = np.empty_like(group.data)
            self._scratch2[id(group)] = (np.empty_like(group.data)
                                         if self.weight_decay else None)

    def _rebind(self):
        """Re-flatten after ``Module.to`` / ``load_state_dict`` rebound data.

        Matches the reference's lazy state handling: moments survive (cast
        to the parameter's new dtype by the flat copy).
        """
        old_state = {}
        for group in self.space.groups:
            m, v = self._m[id(group)], self._v[id(group)]
            for param, (start, stop) in zip(group.params, group.slices):
                shape = param.data.shape
                old_state[id(param)] = (m[start:stop].reshape(shape),
                                        v[start:stop].reshape(shape))
        self.space.rebind()
        self._alloc_state(old_state)

    def step(self):
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        sqrt_bias2 = np.sqrt(bias2)
        if not self.space.bound():
            self._rebind()
        for group in self.space.groups:
            if group.grads_complete():
                self._step_flat(group, bias1, sqrt_bias2)
            else:
                self._step_partial(group, bias1, sqrt_bias2)

    def _step_flat(self, group, bias1, sqrt_bias2):
        """Whole-buffer update: elementwise-identical to the reference loop."""
        perfstats.increment("optim.flat_step")
        m, v = self._m[id(group)], self._v[id(group)]
        scratch = self._scratch[id(group)]
        grad = group.grad
        if self.weight_decay:
            g_eff = self._scratch2[id(group)]
            np.multiply(group.data, self.weight_decay, out=g_eff)
            g_eff += grad
            grad = g_eff
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        np.sqrt(v, out=scratch)
        scratch /= sqrt_bias2
        scratch += self.eps
        np.divide(m, scratch, out=scratch)
        scratch *= self.lr / bias1
        group.data -= scratch

    def _step_partial(self, group, bias1, sqrt_bias2):
        """Per-parameter walk over the flat views (some grads missing).

        Same op sequence as the per-parameter Adam, so parameters that do
        have gradients move identically while the others — moments included
        — stay untouched.
        """
        perfstats.increment("optim.partial_step")
        m_flat, v_flat = self._m[id(group)], self._v[id(group)]
        scratch_flat = self._scratch[id(group)]
        for param, (start, stop) in zip(group.params, group.slices):
            if param.grad is None:
                continue
            shape = param.data.shape
            m = m_flat[start:stop].reshape(shape)
            v = v_flat[start:stop].reshape(shape)
            scratch = scratch_flat[start:stop].reshape(shape)
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            np.sqrt(v, out=scratch)
            scratch /= sqrt_bias2
            scratch += self.eps
            np.divide(m, scratch, out=scratch)
            scratch *= self.lr / bias1
            param.data -= scratch
