"""The zero-shot cost model architecture (Section 3, Algorithm 1).

Three stages, exactly as in the paper:

1. **Node encoding** — a node-type-specific MLP maps each node's transferable
   feature vector to an initial hidden state ``h_v`` (Fig. 3, step 2).
2. **Bottom-up message passing** — in topological order, each node combines
   the *sum* of its children's updated states (DeepSets-style) concatenated
   with its own initial state through a node-type-specific combine MLP:
   ``h'_v = MLP'_T(v)( sum_u h'_u  ⊕  h_v )`` (Fig. 3, step 3).
3. **Estimation** — the updated root state feeds the estimation MLP, which
   outputs the (standardized log) runtime (Fig. 3, step 4).

All stages are differentiable and trained end-to-end with the Q-error loss.

Two execution paths share the same parameters:

* :meth:`ZeroShotModel.forward` builds the autograd graph for training.
  Updated hidden states are assembled by *block concatenation*: each
  (level, type) group's combiner output is appended to a list and levels
  gather children out of the concatenation via precomputed positions
  (``GraphBatch.mp_positions``), instead of adding a dense
  ``O(n_nodes × hidden)`` scatter per group.
* :meth:`ZeroShotModel.forward_inference` is the graph-free fast path: pure
  numpy, zero ``Tensor``/closure allocation.  Every node's combiner input
  sits in one preallocated buffer in message-passing order, so each group
  reads one contiguous slice of at least two rows (no per-layer pad) and
  writes its updated states as one block.  ``forward`` dispatches to it
  automatically under ``no_grad``.
"""

from __future__ import annotations

import numpy as np

from .. import perfstats
from ..featurization import FEATURE_DIMS, GraphBatch, NODE_TYPES
from ..nn import MLP, Module, Tensor, concat, scatter_sum, segment_sum
from ..nn.tensor import (activation_numpy, dropout_keep_mask, is_grad_enabled,
                         _unbroadcast)

__all__ = ["ZeroShotModel"]


def _combine_first_layer(assembled, initial, group, n_group, mlp):
    """The combine step's input stage as one tape node.

    Fuses gather(children) → segment-sum → concat with gather(own) → first
    combiner layer (affine + activation + dropout) — the op chain the loop
    version builds from five separate nodes.  Forward values, gradients and
    the dropout rng stream are identical; the backward pass accumulates
    straight into ``assembled.grad`` / ``initial.grad`` rows (children and
    update slots are unique and disjoint across groups, so row-wise adds
    equal the dense scatters they replace) without per-group dense buffers.
    """
    layer = mlp.linears[0]
    weight, bias = layer.weight, layer.bias
    dtype = initial.data.dtype
    hidden = initial.data.shape[1]
    combined = np.zeros((n_group, 2 * hidden), dtype=dtype)
    child_positions = group.child_positions
    if group.edge_children.size:
        segment_sum(assembled.data[child_positions],
                    group.edge_parent_slots, n_group,
                    out=combined[:, :hidden])
    combined[:, hidden:] = initial.data[group.node_indices]

    pre = combined @ weight.data
    if bias is not None:
        pre += bias.data
    data = activation_numpy(mlp.activation, pre, mlp.negative_slope)
    if mlp.activation == "relu":
        deriv = pre > 0
    elif mlp.activation == "leaky_relu":
        deriv = np.where(pre > 0, pre.dtype.type(1.0),
                         pre.dtype.type(mlp.negative_slope))
    elif mlp.activation == "tanh":
        deriv = data * data
        np.subtract(1.0, deriv, out=deriv)
    else:  # sigmoid
        deriv = data * (1.0 - data)
    if mlp.training and mlp.dropout > 0.0:
        keep = dropout_keep_mask(mlp._dropout_rngs[0], data.shape,
                                 mlp.dropout, dtype)
        data *= keep
        deriv = deriv * keep

    def backward(grad, asm=assembled, init=initial, w=weight, b=bias,
                 d=deriv, comb=combined, grp=group, n=n_group):
        grad_pre = grad * d
        if w.requires_grad:
            w._accumulate(comb.T @ grad_pre, owned=True)
        if b is not None and b.requires_grad:
            g = _unbroadcast(grad_pre, b.data.shape)
            b._accumulate(g, owned=g is not grad_pre)
        needs_asm = asm is not None and asm.requires_grad \
            and grp.edge_children.size
        needs_init = init.requires_grad
        if not (needs_asm or needs_init):
            return
        grad_comb = grad_pre @ w.data.T
        if needs_asm:
            if asm.grad is None:
                asm.grad = np.zeros(asm.data.shape, dtype=asm.data.dtype)
            # Each node is the child of exactly one parent, so these rows
            # are written by exactly one group: the row-wise add is the
            # dense zero-buffer scatter of the loop version, minus the
            # buffer.
            asm.grad[grp.child_positions] += \
                grad_comb[:, :hidden][grp.edge_parent_slots]
        if needs_init:
            if init.grad is None:
                init.grad = np.zeros(init.data.shape, dtype=init.data.dtype)
            init.grad[grp.node_indices] += grad_comb[:, hidden:]

    parents = [initial, weight]
    if assembled is not None:
        parents.append(assembled)
    if bias is not None:
        parents.append(bias)
    return Tensor._make(data, tuple(parents), backward)


class ZeroShotModel(Module):
    """Node-type MLP encoders + bottom-up message passing + estimation MLP."""

    def __init__(self, hidden_dim=64, n_encoder_layers=1, n_combine_layers=1,
                 dropout=0.0, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.hidden_dim = hidden_dim
        self.encoders = {
            node_type: MLP(FEATURE_DIMS[node_type],
                           [hidden_dim] * n_encoder_layers, hidden_dim,
                           dropout=dropout, rng=rng)
            for node_type in NODE_TYPES
        }
        self.combiners = {
            node_type: MLP(2 * hidden_dim,
                           [hidden_dim] * n_combine_layers, hidden_dim,
                           dropout=dropout, rng=rng)
            for node_type in NODE_TYPES
        }
        self.estimator = MLP(hidden_dim, [hidden_dim, hidden_dim // 2], 1,
                             dropout=dropout, rng=rng)

    def param_dtype(self):
        """Dtype of the first parameter, read off it directly.

        The same parameter :meth:`Module.param_dtype` finds first (the plan
        encoder's first weight), without walking the module tree on every
        inference call.  It reads the live array, so a later cast
        (:meth:`Module.to`, ``TrainingConfig(dtype=...)``) or checkpoint
        load is seen at once.
        """
        return self.encoders[NODE_TYPES[0]].linears[0].weight.data.dtype

    def forward(self, batch: GraphBatch) -> Tensor:
        """Predict one (standardized log) runtime per graph in the batch."""
        if not is_grad_enabled():
            return Tensor(self.forward_inference(batch))

        dtype = self.param_dtype()
        features = batch.features_as(dtype)

        # Step 2: initial hidden states, one encoder per node type.  Global
        # node ids are grouped by type, so concatenating per-type blocks in
        # NODE_TYPES order yields the global hidden-state matrix.
        blocks = []
        for node_type in NODE_TYPES:
            if batch.type_counts.get(node_type, 0):
                blocks.append(self.encoders[node_type](
                    Tensor(features[node_type])))
        initial = concat(blocks, axis=0)

        # Step 3: bottom-up pass, level by level.  Instead of accumulating
        # into a dense (n_nodes, hidden) matrix per group, each group's
        # combiner output becomes one block; at the start of a level the
        # blocks so far are concatenated once and children (always at lower
        # levels) are gathered out of it via the precomputed mp positions.
        parts = []
        assembled = None
        for level_groups in batch.levels:
            if parts:
                assembled = concat(parts, axis=0)
            for group in level_groups:
                n_group = len(group.node_indices)
                mlp = self.combiners[group.node_type]
                if len(mlp.linears) > 1:
                    # Gather + segment-sum + concat + first combiner layer
                    # as one tape node (bit-identical to the op chain).
                    hidden = _combine_first_layer(assembled, initial, group,
                                                  n_group, mlp)
                    parts.append(mlp.forward_tail(hidden, start=1))
                    continue
                if group.edge_children.size:
                    # child_positions / node_indices are unique by
                    # construction (each node is one child, updated once),
                    # so backward scatters with plain assignment.
                    child_states = assembled.gather_rows(
                        group.child_positions, assume_unique=True)
                    child_sum = scatter_sum(child_states,
                                            group.edge_parent_slots, n_group)
                else:
                    child_sum = Tensor(np.zeros((n_group, self.hidden_dim),
                                                dtype=dtype))
                own = initial.gather_rows(group.node_indices,
                                          assume_unique=True)
                parts.append(mlp(concat([child_sum, own], axis=1)))

        # Step 4: estimation MLP on the root states (gathered from the
        # concatenated blocks through the mp-order positions).
        updated = concat(parts, axis=0)
        root_states = updated.gather_rows(batch.root_positions,
                                          assume_unique=True)
        return self.estimator(root_states).reshape(-1)

    def forward_inference(self, batch: GraphBatch) -> np.ndarray:
        """Graph-free forward pass: pure numpy, no Tensor/tape allocation.

        Semantically identical to :meth:`forward` in eval mode (dropout
        consumes the same rng stream when active); used automatically under
        ``no_grad`` and by ``predict_runtimes``.  Every MLP reads at least
        two rows (see :func:`_two_rows`), so each ``Linear`` goes straight
        to gemm and a one-plan batch pays no per-layer pad.

        A served batch (see :func:`~repro.featurization.make_batch`) opens
        with its given rows: the stored states of the constant children its
        nodes do not compute.  The constant nodes it does compute are
        stored back once the pass is done.  A node's state depends only on
        its features and its children's states, summed in edge order, so a
        given row holds the bits a full graph would recompute.
        """
        perfstats.increment("model.graph_free_inference")
        dtype = self.param_dtype()
        features = batch.features_as(dtype)
        hidden = self.hidden_dim
        n_nodes = batch.n_nodes
        states = batch.states
        n_given = 0 if states is None else len(batch.given)

        # Row r holds [sum of children's updated states | initial state] of
        # the node at mp position r, so a group's combiner input is one
        # contiguous slice.  Zeros stand for leaves' empty child sums, and
        # the trailing row lets a one-node group read two rows.
        combined = np.zeros((n_nodes + 1, 2 * hidden), dtype=dtype)
        for node_type in NODE_TYPES:
            count = batch.type_counts.get(node_type, 0)
            if count:
                offset = batch.type_offsets[node_type]
                rows = batch.mp_positions[offset:offset + count]
                combined[rows, hidden:] = self.encoders[node_type] \
                    .forward_numpy(_two_rows(features[node_type]),
                                   rows=count)[:count]

        # ``updated`` holds the given rows, then the nodes in mp order:
        # groups run in mp order, so each writes one contiguous block, and
        # its children (given rows or finished lower levels) are gathered
        # through their child positions.
        updated = np.empty((n_given + n_nodes, hidden), dtype=dtype)
        if n_given:
            updated[:n_given] = states.states[batch.given]
        start = 0
        for level_groups in batch.levels:
            for group in level_groups:
                stop = start + len(group.node_indices)
                children = group.child_positions
                if len(group.edge_starts) < len(children):
                    # Sums each parent's run in edge order: the values the
                    # np.add.at scatter would give.
                    np.add.reduceat(updated[children], group.edge_starts,
                                    axis=0, out=combined[start:stop, :hidden])
                elif children.size:  # one child per parent
                    combined[start:stop, :hidden] = updated[children]
                updated[n_given + start:n_given + stop] = \
                    self.combiners[group.node_type].forward_numpy(
                        combined[start:max(stop, start + 2)],
                        rows=stop - start)[:stop - start]
                start = stop
        if states is not None:
            states.store(batch.computed,
                         updated[n_given + batch.computed_positions])

        n_graphs = len(batch.root_positions)
        return self.estimator.forward_numpy(
            _two_rows(updated[n_given + batch.root_positions]),
            rows=n_graphs)[:n_graphs].reshape(-1)


def _two_rows(x):
    """``x``, with a zero row appended when it has only one.

    BLAS runs a one-row matmul on a gemv kernel whose low-order bits differ
    from gemm's; a second row keeps the layers on gemm, whose per-row
    results do not depend on the row count (the property
    :func:`~repro.nn.row_stable_matmul` pads for, per call).
    """
    return np.concatenate((x, np.zeros_like(x))) if len(x) == 1 else x
