"""Schema metadata: table definitions and foreign-key relationships."""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

__all__ = ["ForeignKey", "Schema"]


@dataclass(frozen=True)
class ForeignKey:
    """An N:1 relationship ``child.child_column -> parent.parent_column``."""

    child_table: str
    child_column: str
    parent_table: str
    parent_column: str


@dataclass
class Schema:
    """All tables of a database plus their foreign keys."""

    table_names: list
    foreign_keys: list = field(default_factory=list)

    def __post_init__(self):
        known = set(self.table_names)
        for fk in self.foreign_keys:
            if fk.child_table not in known or fk.parent_table not in known:
                raise ValueError(f"foreign key {fk} references unknown table")

    def join_graph(self):
        """Undirected graph with one edge per foreign key (multi-FK safe)."""
        graph = nx.MultiGraph()
        graph.add_nodes_from(self.table_names)
        for fk in self.foreign_keys:
            graph.add_edge(fk.child_table, fk.parent_table, fk=fk)
        return graph

    def connected_subsets(self, start, size, rng):
        """Random connected set of ``size`` tables containing ``start``.

        Used by the workload generator to pick joinable table sets.  Returns
        the table list and the foreign keys forming the spanning join tree.
        """
        graph = self.join_graph()
        chosen = [start]
        edges = []
        frontier = list(graph.edges(start, keys=True))
        while len(chosen) < size and frontier:
            pick = frontier.pop(int(rng.integers(len(frontier))))
            u, v, key = pick
            other = v if u in chosen else u
            if other in chosen:
                continue
            chosen.append(other)
            edges.append(graph.edges[u, v, key]["fk"])
            frontier.extend(edge for edge in graph.edges(other, keys=True))
        return chosen, edges
