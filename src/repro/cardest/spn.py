"""Mini Sum-Product Networks for single-table selectivity estimation.

A compact reimplementation of the structure DeepDB [Hilprecht et al. 2020]
uses: learned from the *data only* (no queries),

* **sum nodes** partition rows (2-means clustering),
* **product nodes** partition columns into (approximately) independent
  groups, detected via pairwise rank correlation,
* **leaves** hold per-column distributions: exact value masses for
  low-cardinality columns, equi-depth histograms otherwise, plus NULL mass.

Probabilities of conjunctive per-column constraints are evaluated
recursively.  The model is intentionally approximate: that is the quality
regime the paper's "DeepDB Est. Cardinalities" curves occupy (better than
the optimizer's independence arithmetic, worse than exact counts).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perfstats
from ..sql import BooleanPredicate, Comparison, PredOp

__all__ = ["SPN", "learn_spn", "predicate_to_constraints",
           "UnsupportedPredicate"]

_MIN_INSTANCES = 64
_MAX_DEPTH = 6
_CORR_THRESHOLD = 0.3
_DISCRETE_LIMIT = 64
_HISTOGRAM_BINS = 24


class UnsupportedPredicate(Exception):
    """Raised when a predicate cannot be mapped to SPN constraints."""


def predicate_to_constraints(predicate):
    """Map a conjunctive predicate tree to ``{column: [Comparison, ...]}``.

    Raises :class:`UnsupportedPredicate` for disjunctions and string-pattern
    operators, mirroring the limits of data-driven estimators discussed in
    Section 3.4 of the paper.
    """
    constraints = {}

    def visit(node):
        if node is None:
            return
        if isinstance(node, BooleanPredicate):
            if node.op != PredOp.AND:
                raise UnsupportedPredicate("disjunctions are not supported")
            for child in node.children:
                visit(child)
            return
        if node.op in (PredOp.LIKE, PredOp.NOT_LIKE):
            raise UnsupportedPredicate("string patterns are not supported")
        constraints.setdefault(node.column, []).append(node)

    visit(predicate)
    return constraints


# ----------------------------------------------------------------------
# Leaves
# ----------------------------------------------------------------------
@dataclass
class _Leaf:
    """Distribution of one column: discrete masses or histogram + NULL mass."""

    column: str
    null_mass: float
    discrete_values: np.ndarray = None     # sorted values
    discrete_masses: np.ndarray = None
    bin_edges: np.ndarray = None            # histogram mode
    bin_masses: np.ndarray = None

    @classmethod
    def fit(cls, column, values):
        n = len(values)
        if n == 0:
            return cls(column, 0.0, np.array([]), np.array([]))
        null_mask = np.isnan(values)
        null_mass = float(null_mask.mean())
        valid = values[~null_mask]
        if valid.size == 0:
            return cls(column, null_mass, np.array([]), np.array([]))
        uniques, counts = np.unique(valid, return_counts=True)
        if uniques.size <= _DISCRETE_LIMIT:
            return cls(column, null_mass, uniques, counts / n)
        edges = np.quantile(valid, np.linspace(0, 1, _HISTOGRAM_BINS + 1))
        edges = np.unique(edges)
        hist, _ = np.histogram(valid, bins=edges)
        return cls(column, null_mass, bin_edges=edges,
                   bin_masses=hist / n)

    # -- probability of one comparison ---------------------------------
    def _prob_discrete(self, node: Comparison, literal):
        """``discrete_values`` is sorted, so every mass subset is a prefix,
        suffix or single element — resolved with ``searchsorted`` instead of
        boolean-mask scans (bit-identical: the same masses are summed in the
        same order)."""
        values, masses = self.discrete_values, self.discrete_masses
        if values.size == 0:
            return 0.0
        op = node.op
        if op == PredOp.EQ:
            i = values.searchsorted(literal, side="left")
            if i < values.size and values[i] == literal:
                return float(masses[i])
            return 0.0
        if op == PredOp.NEQ:
            return float(masses[values != literal].sum())
        if op == PredOp.LT:
            return float(masses[:values.searchsorted(literal, side="left")].sum())
        if op == PredOp.LEQ:
            return float(masses[:values.searchsorted(literal, side="right")].sum())
        if op == PredOp.GT:
            return float(masses[values.searchsorted(literal, side="right"):].sum())
        if op == PredOp.GEQ:
            return float(masses[values.searchsorted(literal, side="left"):].sum())
        raise UnsupportedPredicate(str(op))

    def _prob_histogram(self, node: Comparison, literal):
        edges, masses = self.bin_edges, self.bin_masses
        if edges is None or len(edges) < 2:
            return 0.0

        def cdf(x):
            """Mass below x (linear interpolation inside bins)."""
            if x <= edges[0]:
                return 0.0
            if x >= edges[-1]:
                return float(masses.sum())
            i = int(edges.searchsorted(x, side="right")) - 1
            i = min(i, len(masses) - 1)
            lo, hi = float(edges[i]), float(edges[i + 1])
            frac = (x - lo) / (hi - lo) if hi > lo else 1.0
            return float(masses[:i].sum() + masses[i] * frac)

        total = float(masses.sum())
        if node.op == PredOp.EQ:
            # Point mass approximation: mass of the bin / bin density.
            i = min(max(int(edges.searchsorted(literal, side="right")) - 1, 0),
                    len(masses) - 1)
            span = max(edges[i + 1] - edges[i], 1e-12)
            return float(masses[i] / max(span, 1.0))
        if node.op == PredOp.NEQ:
            return total - self._prob_histogram(
                Comparison(node.table, node.column, PredOp.EQ, literal), literal)
        if node.op == PredOp.LT:
            return cdf(literal)
        if node.op == PredOp.LEQ:
            return cdf(np.nextafter(literal, np.inf))
        if node.op == PredOp.GT:
            return total - cdf(np.nextafter(literal, np.inf))
        if node.op == PredOp.GEQ:
            return total - cdf(literal)
        raise UnsupportedPredicate(str(node.op))

    def probability(self, nodes, literal_mapper):
        """P(all comparisons hold) for this column (intersection approx)."""
        for node in nodes:
            if node.op != PredOp.IS_NULL:
                prob = 1.0 - self.null_mass
                break
        else:
            prob = 1.0
        for node in nodes:
            if node.op == PredOp.IS_NULL:
                prob = min(prob, self.null_mass)
                continue
            if node.op == PredOp.IS_NOT_NULL:
                prob = min(prob, 1.0 - self.null_mass)
                continue
            if node.op == PredOp.IN:
                eq = Comparison(node.table, node.column, PredOp.EQ, 0)
                literals = [literal_mapper(node, v) for v in node.literal]
                p = sum(self._prob_one(eq, lit) for lit in literals
                        if lit is not None)
            else:
                literal = literal_mapper(node, node.literal)
                p = self._prob_one(node, literal) if literal is not None else 0.0
            prob = min(prob, p)
        # Scalar clamp (bit-identical to np.clip on floats, without the
        # per-call ufunc dispatch overhead).
        return min(max(float(prob), 0.0), 1.0)

    def _prob_one(self, node, literal):
        if self.discrete_values is not None and self.discrete_values.size:
            return self._prob_discrete(node, literal)
        return self._prob_histogram(node, literal)


# ----------------------------------------------------------------------
# Internal nodes
# ----------------------------------------------------------------------
@dataclass
class _Product:
    children: list  # sub-SPNs over disjoint column sets

    def probability(self, constraints, literal_mapper):
        if self._columns.isdisjoint(constraints):
            return self._neutral_mass
        prob = 1.0
        for child in self.children:
            prob *= child.probability(constraints, literal_mapper)
        return prob


@dataclass
class _Sum:
    weights: np.ndarray
    children: list

    def probability(self, constraints, literal_mapper):
        if self._columns.isdisjoint(constraints):
            return self._neutral_mass
        total = 0.0
        for w, child in zip(self.weights, self.children):
            total += w * child.probability(constraints, literal_mapper)
        return float(total)


@dataclass
class _LeafSet:
    """Product of independent leaves (base case over remaining columns)."""

    leaves: dict  # column -> _Leaf

    def probability(self, constraints, literal_mapper):
        if self._columns.isdisjoint(constraints):
            return 1.0
        prob = 1.0
        for column, nodes in constraints.items():
            leaf = self.leaves.get(column)
            if leaf is None:
                continue
            prob *= leaf.probability(nodes, literal_mapper)
        return prob


def _annotate_structure(node):
    """Attach per-node column sets and *neutral masses* for pruned traversal.

    A subtree touching none of the constrained columns evaluates — through
    the full recursion — to a constraint-independent constant: 1.0 for leaf
    sets, and the correspondingly weighted sums/products above them.  That
    constant is precomputed here *with the same arithmetic and operand order
    the recursion uses*, so short-circuiting a disjoint subtree returns the
    bit-identical value the full traversal would have produced, skipping the
    walk.  This is what makes repeated selectivity queries on wide tables
    cheap: only the branches owning the constrained columns are visited.
    """
    if isinstance(node, _LeafSet):
        node._columns = frozenset(node.leaves)
        node._neutral_mass = 1.0
        return node._columns, 1.0
    if isinstance(node, _Product):
        columns = set()
        prob = 1.0
        for child in node.children:
            child_columns, mass = _annotate_structure(child)
            columns |= child_columns
            prob *= mass
        node._columns = frozenset(columns)
        node._neutral_mass = prob
        return node._columns, prob
    columns = set()
    total = 0.0
    for w, child in zip(node.weights, node.children):
        child_columns, mass = _annotate_structure(child)
        columns |= child_columns
        total += w * mass
    total = float(total)
    node._columns = frozenset(columns)
    node._neutral_mass = total
    return node._columns, total


class SPN:
    """Learned single-table distribution supporting conjunctive queries."""

    def __init__(self, root, columns, n_rows):
        self._root = root
        self.columns = list(columns)
        self.n_rows = n_rows
        _annotate_structure(root)

    def selectivity(self, constraints, literal_mapper):
        """P(row satisfies all constraints); constraints col -> [Comparison]."""
        unknown = set(constraints) - set(self.columns)
        if unknown:
            raise KeyError(f"SPN has no columns {sorted(unknown)}")
        if not constraints:
            return 1.0
        prob = self._root.probability(constraints, literal_mapper)
        return min(max(float(prob), 0.0), 1.0)


# ----------------------------------------------------------------------
# Structure learning
# ----------------------------------------------------------------------
def _rank_correlation(matrix):
    """Pairwise |Spearman| correlation of the columns of ``matrix``."""
    n, k = matrix.shape
    ranks = np.empty_like(matrix)
    for j in range(k):
        col = matrix[:, j]
        filled = np.where(np.isnan(col), np.nanmean(col) if not np.all(np.isnan(col)) else 0.0, col)
        ranks[:, j] = np.argsort(np.argsort(filled, kind="stable"))
    with np.errstate(invalid="ignore"):
        corr = np.corrcoef(ranks, rowvar=False)
    corr = np.nan_to_num(corr, nan=0.0)
    return np.abs(corr)


def _components(corr, k):
    """Connected components above the threshold, by union-find.

    Components are ordered by their smallest member, members ascending.
    """
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(k):
        for j in range(i + 1, k):
            if corr[i, j] > _CORR_THRESHOLD:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _independent_groups(matrix, columns):
    """Connected components of the correlation graph above the threshold."""
    return _components(_rank_correlation(matrix), len(columns))


def _two_means(matrix, rng):
    """Cheap 2-means row clustering on standardized data.

    Centers are initialized at the extremes of the summed-coordinate
    projection: deterministic and well-separated even for discrete data
    (random initialization frequently collapses to one cluster there).
    """
    filled = np.where(np.isnan(matrix), 0.0, matrix)
    std = filled.std(axis=0)
    std[std == 0] = 1.0
    normed = (filled - filled.mean(axis=0)) / std
    n = len(normed)
    projection = normed.sum(axis=1)
    centers = np.stack([normed[projection.argmin()], normed[projection.argmax()]])
    if np.allclose(centers[0], centers[1]):
        return np.zeros(n, dtype=np.int64)
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(8):
        dists = np.stack([((normed - c) ** 2).sum(axis=1) for c in centers])
        new_assign = dists.argmin(axis=0)
        if (new_assign == assign).all():
            break
        assign = new_assign
        for c in range(2):
            members = normed[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    return assign


def _learn(matrix, columns, rng, depth):
    n, k = matrix.shape
    if k == 1 or n < _MIN_INSTANCES or depth >= _MAX_DEPTH:
        return _LeafSet({col: _Leaf.fit(col, matrix[:, j])
                         for j, col in enumerate(columns)})

    groups = _independent_groups(matrix, columns)
    if len(groups) > 1:
        children = [_learn(matrix[:, idx], [columns[i] for i in idx], rng,
                           depth + 1)
                    for idx in groups]
        return _Product(children)

    assign = _two_means(matrix, rng)
    sizes = np.bincount(assign, minlength=2)
    if sizes.min() < max(_MIN_INSTANCES // 4, 8):
        return _LeafSet({col: _Leaf.fit(col, matrix[:, j])
                         for j, col in enumerate(columns)})
    children = []
    weights = []
    for c in range(2):
        members = matrix[assign == c]
        children.append(_learn(members, columns, rng, depth + 1))
        weights.append(len(members) / n)
    return _Sum(np.array(weights), children)


def _sample_matrix(column_arrays, seed, max_rows):
    columns = list(column_arrays)
    if not columns:
        raise ValueError("learn_spn needs at least one column")
    n = len(next(iter(column_arrays.values())))
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    if n > max_rows:
        rows = rng.choice(n, size=max_rows, replace=False)
    matrix = np.stack([np.asarray(column_arrays[c], dtype=np.float64)[rows]
                       for c in columns], axis=1)
    return matrix, columns, n, rng


def learn_spn(column_arrays, seed=0, max_rows=20_000):
    """Learn an SPN from ``{column: values}`` (floats, NaN as NULL)."""
    perfstats.increment("spn.learn.count")
    matrix, columns, n, rng = _sample_matrix(column_arrays, seed, max_rows)
    root = _learn(matrix, columns, rng, depth=0)
    return SPN(root, columns, n)
