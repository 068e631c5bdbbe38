"""In-memory tables of typed columns."""

from __future__ import annotations

from hashlib import blake2b

import numpy as np

from .column import Column
from .statistics import compute_table_stats

__all__ = ["Table"]


class Table:
    """A named collection of equally long columns."""

    def __init__(self, name, columns):
        if not columns:
            raise ValueError(f"table {name!r} needs at least one column")
        lengths = {len(col) for col in columns}
        if len(lengths) != 1:
            raise ValueError(f"table {name!r}: ragged columns {sorted(lengths)}")
        self.name = name
        self.columns = {col.name: col for col in columns}
        if len(self.columns) != len(columns):
            raise ValueError(f"table {name!r}: duplicate column names")
        self._stats = None

    def __len__(self):
        return len(next(iter(self.columns.values())))

    def __contains__(self, column_name):
        return column_name in self.columns

    def column(self, name) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from None

    @property
    def stats(self):
        """Table statistics; computed lazily and cached until invalidated."""
        if self._stats is None:
            self._stats = compute_table_stats(self.name, list(self.columns.values()))
        return self._stats

    def invalidate_stats(self):
        self._stats = None

    def content_fingerprint(self):
        """BLAKE2 digest of the table's full content.

        Covers column names, dtypes, dictionaries and the raw value bytes —
        unlike :meth:`Database.fingerprint` (name + row counts) this notices
        in-place value edits, so derived artifacts keyed on it (the artifact
        store's per-table SPNs) can never be served stale.  Costs one hash
        pass over the data; callers that need it repeatedly should key their
        own memo on it, not re-derive it per use.
        """
        digest = blake2b(digest_size=16)
        digest.update(self.name.encode())
        for name, col in self.columns.items():
            digest.update(name.encode())
            digest.update(col.dtype.name.encode())
            digest.update(np.ascontiguousarray(col.values).tobytes())
            if col.dictionary is not None:
                digest.update(repr(list(col.dictionary)).encode())
        return digest.hexdigest()

    def append(self, new_columns):
        """Append rows given as a dict ``column_name -> values array``.

        Dictionary columns must be appended as *codes* against the existing
        dictionary. Statistics are invalidated (re-``ANALYZE`` on next use).
        """
        missing = set(self.columns) - set(new_columns)
        if missing:
            raise ValueError(f"append to {self.name!r} missing columns {sorted(missing)}")
        lengths = {len(v) for v in new_columns.values()}
        if len(lengths) != 1:
            raise ValueError("appended columns must be equally long")
        for name, col in self.columns.items():
            extra = np.asarray(new_columns[name])
            col.values = np.concatenate([col.values, extra.astype(col.values.dtype)])
        self.invalidate_stats()

    def take(self, row_ids):
        """A new table holding only the selected rows (used in tests/examples)."""
        return Table(self.name, [col.take(row_ids) for col in self.columns.values()])
