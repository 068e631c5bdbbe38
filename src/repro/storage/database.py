"""A database: schema + tables + indexes + catalog access."""

from __future__ import annotations

from .index import Index
from .schema import Schema

__all__ = ["Database"]


class Database:
    """A self-contained dataset (the paper's notion of a "database").

    Holds the tables, the schema (foreign keys), secondary indexes, and gives
    access to catalog statistics.  An optional ``genspec`` records how the
    data was generated, which the update experiments (Fig. 8) use to grow the
    database with identically distributed rows.
    """

    def __init__(self, name, schema: Schema, tables, genspec=None):
        self.name = name
        self.schema = schema
        self.tables = {table.name: table for table in tables}
        missing = set(schema.table_names) - set(self.tables)
        if missing:
            raise ValueError(f"database {name!r} missing tables {sorted(missing)}")
        self.indexes = {}
        self.genspec = genspec

    # ------------------------------------------------------------------
    def __repr__(self):
        return (f"Database({self.name!r}, tables={len(self.tables)}, "
                f"indexes={len(self.indexes)})")

    def table(self, name):
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"database {self.name!r} has no table {name!r}") from None

    def column(self, table_name, column_name):
        return self.table(table_name).column(column_name)

    def fingerprint(self):
        """Cheap content fingerprint: name + per-table row counts.

        Used by the estimator and featurization caches to notice rebuilt or
        grown databases that reuse a name (appends change row counts).
        In-place value edits that keep every row count are not detected —
        callers doing that must invalidate explicitly.
        """
        return (self.name,
                tuple(sorted((name, len(table))
                             for name, table in self.tables.items())))

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def table_stats(self, table_name):
        return self.table(table_name).stats

    def column_stats(self, table_name, column_name):
        stats = self.table(table_name).stats.columns.get(column_name)
        if stats is None:
            raise KeyError(f"no stats for {table_name}.{column_name}")
        return stats

    def analyze(self):
        """Recompute statistics for all tables (after updates)."""
        for table in self.tables.values():
            table.invalidate_stats()
            _ = table.stats

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def create_index(self, table_name, column_name):
        """Create (or return the existing) index on ``table.column``."""
        key = (table_name, column_name)
        if key not in self.indexes:
            column = self.column(table_name, column_name)
            self.indexes[key] = Index(table_name, column_name, column.values)
        return self.indexes[key]

    def drop_index(self, table_name, column_name):
        self.indexes.pop((table_name, column_name), None)

    def index_on(self, table_name, column_name):
        return self.indexes.get((table_name, column_name))

    def rebuild_indexes(self):
        """Rebuild all indexes (required after appends)."""
        for table_name, column_name in list(self.indexes):
            column = self.column(table_name, column_name)
            self.indexes[(table_name, column_name)] = Index(
                table_name, column_name, column.values)
