"""Feature / target standardization fitted on the training set only."""

from __future__ import annotations

import numpy as np

from .graph import NODE_TYPES

__all__ = ["StandardScaler", "FeatureScalers", "TargetScaler"]


class StandardScaler:
    """Per-dimension standardization with degenerate-dimension protection."""

    def __init__(self):
        self.mean = None
        self.std = None

    def fit(self, matrix):
        matrix = np.asarray(matrix, dtype=np.float64)
        self.mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        std[std < 1e-9] = 1.0
        self.std = std
        return self

    def transform(self, matrix):
        if self.mean is None:
            raise RuntimeError("scaler is not fitted")
        return (np.asarray(matrix, dtype=np.float64) - self.mean) / self.std

    def state(self):
        return {"mean": self.mean, "std": self.std}

    @classmethod
    def from_state(cls, state):
        scaler = cls()
        scaler.mean = np.asarray(state["mean"], dtype=np.float64)
        scaler.std = np.asarray(state["std"], dtype=np.float64)
        return scaler


class FeatureScalers:
    """One scaler per node type, fitted over all graphs of a training set."""

    def __init__(self, scalers=None):
        self.scalers = scalers or {}

    def fit(self, graphs):
        """Fit each node type's scaler on its rows over ``graphs``.

        Rows are taken from each graph's :meth:`~repro.featurization.
        QueryGraph.packed` per-type matrices, concatenated in graph order:
        the same rows in the same order as stacking every node's feature
        vector (node order within a graph keeps each type's rows in
        creation order), without building a graph's per-node lists.
        """
        blocks = [[] for _ in NODE_TYPES]
        for graph in graphs:
            for code, matrix in graph.packed().features_by_code.items():
                blocks[code].append(matrix)
        self.scalers = {}
        for node_type, matrices in zip(NODE_TYPES, blocks):
            if matrices:
                self.scalers[node_type] = StandardScaler().fit(
                    np.concatenate(matrices))
        return self

    def transform(self, node_type, matrix):
        scaler = self.scalers.get(node_type)
        if scaler is None:
            return np.asarray(matrix, dtype=np.float64)
        return scaler.transform(matrix)

    def state(self):
        return {t: s.state() for t, s in self.scalers.items()}

    @classmethod
    def from_state(cls, state):
        return cls({t: StandardScaler.from_state(s) for t, s in state.items()})


class TargetScaler:
    """Log-space standardization of runtimes; predictions are inverted back."""

    def __init__(self, mean=0.0, std=1.0):
        self.mean = mean
        self.std = std

    def fit(self, runtimes_ms):
        logs = np.log(np.maximum(np.asarray(runtimes_ms, dtype=np.float64), 1e-3))
        self.mean = float(logs.mean())
        self.std = float(logs.std()) or 1.0
        return self

    def to_scaled(self, runtimes_ms):
        logs = np.log(np.maximum(np.asarray(runtimes_ms, dtype=np.float64), 1e-3))
        return (logs - self.mean) / self.std

    def to_log(self, scaled):
        return np.asarray(scaled) * self.std + self.mean

    def to_runtime_ms(self, scaled):
        return np.exp(self.to_log(scaled))
