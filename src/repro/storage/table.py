"""In-memory tables and per-query trie materialization.

A :class:`Table` holds raw columns plus lazily built tries.  Tries are
built *per key order and per annotation subset* -- this is the physical
side of attribute elimination (Section IV-A): a query only ever loads
the key levels and annotation buffers it touches.  Unfiltered tries are
cached (index construction is excluded from query timing, matching the
paper's measurement protocol); filtered builds are part of query cost,
mirroring the selections inside the generated code of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError
from ..trie import AnnotationSpec, Dictionary, Trie, build_trie
from .schema import AttrType, Kind, Schema


@dataclass(frozen=True)
class AnnotationRequest:
    """A request for one annotation buffer on a trie.

    ``values`` may be a plain column (identified by ``source`` for cache
    keying) or a computed expression array (``source`` is the expression
    text).  ``level`` counts key attributes the annotation depends on.
    """

    name: str
    source: str
    level: int
    combine: str = "sum"
    values: Optional[np.ndarray] = None
    dictionary: Optional[Dictionary] = None

    def cache_token(self) -> Tuple:
        return (self.name, self.source, self.level, self.combine)


class Table:
    """A relation with raw columnar storage and cached trie indexes."""

    def __init__(self, schema: Schema, columns: Dict[str, np.ndarray]):
        missing = [a.name for a in schema.attributes if a.name not in columns]
        if missing:
            raise SchemaError(f"table '{schema.name}' missing columns: {missing}")
        lengths = {c.shape[0] for c in columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"table '{schema.name}' has ragged columns")
        self.schema = schema
        self.columns = {a.name: columns[a.name] for a in schema.attributes}
        self.num_rows = int(next(iter(lengths))) if lengths else 0
        self.catalog = None  # set by Catalog.register
        self._trie_cache: Dict[Tuple, Trie] = {}
        self._cache_domain_versions: Dict[Tuple, Tuple[int, ...]] = {}
        self._distinct_cache: Dict[Tuple[str, ...], int] = {}
        self._string_dicts: Dict[str, Dictionary] = {}
        #: dictionary-encoded string columns, built on first use and
        #: dropped with the table (``replace_table`` makes a new one).
        self._string_codes: Dict[str, np.ndarray] = {}

    @classmethod
    def from_columns(cls, schema: Schema, **columns) -> "Table":
        coerced = {}
        from .schema import coerce_column

        for attr in schema.attributes:
            if attr.name not in columns:
                raise SchemaError(f"missing column '{attr.name}'")
            coerced[attr.name] = coerce_column(attr, columns[attr.name])
        return cls(schema, coerced)

    @property
    def name(self) -> str:
        return self.schema.name

    def column(self, name: str) -> np.ndarray:
        self.schema.attribute(name)  # raises on unknown names
        return self.columns[name]

    # -- statistics ---------------------------------------------------------

    def distinct_count(self, attrs: Sequence[str]) -> int:
        """Number of distinct value combinations over ``attrs``."""
        token = tuple(attrs)
        cached = self._distinct_cache.get(token)
        if cached is not None:
            return cached
        if self.num_rows == 0:
            count = 0
        elif len(token) == 1:
            count = int(np.unique(self.columns[token[0]]).size)
        else:
            from ..xcution.codes import group_runs  # xcution imports storage

            _order, starts = group_runs([self.columns[a] for a in token])
            count = int(starts.size)
        self._distinct_cache[token] = count
        return count

    def keys_are_unique(self, attrs: Sequence[str]) -> bool:
        """True when ``attrs`` functionally identify a row.

        The query translator uses this to decide whether a relation
        contributes tuple multiplicities to aggregates (duplicates on
        its in-query keys) -- see Section IV-A's annotation rules.
        """
        if self.num_rows == 0:
            return True
        return self.distinct_count(attrs) == self.num_rows

    # -- string/dictionary support -------------------------------------------

    def string_dictionary(self, column: str) -> Dictionary:
        """Order-preserving per-column dictionary for a string column."""
        d = self._string_dicts.get(column)
        if d is None:
            attr = self.schema.attribute(column)
            if attr.type is not AttrType.STRING:
                raise SchemaError(f"'{column}' is not a string column")
            d = Dictionary.build(self.columns[column])
            self._string_dicts[column] = d
        return d

    def string_codes(self, column: str) -> np.ndarray:
        """A string column as uint32 codes of :meth:`string_dictionary`.

        Encoded once, on first use, and cached: group-bys and string
        annotations run on the codes instead of re-ranking raw strings.
        """
        codes = self._string_codes.get(column)
        if codes is None:
            codes = self.string_dictionary(column).encode(self.columns[column])
            codes.flags.writeable = False  # shared by every later query
            self._string_codes[column] = codes
        return codes

    def _domain_dictionary(self, attr_name: str) -> Dictionary:
        attr = self.schema.attribute(attr_name)
        if self.catalog is not None:
            return self.catalog.domain_dictionary(attr.domain_name)
        # Standalone tables build private per-domain dictionaries over
        # every key column sharing the domain (i and j of a matrix must
        # encode identically).
        token = ("__domain__", attr.domain_name)
        d = self._string_dicts.get(token)  # reuse the dict cache map
        if d is None:
            domain_columns = [
                self.columns[a.name]
                for a in self.schema.attributes
                if a.is_key and a.domain_name == attr.domain_name
            ]
            d = Dictionary.build(np.concatenate(domain_columns))
            self._string_dicts[token] = d
        return d

    def _domain_version(self, attr_name: str) -> int:
        attr = self.schema.attribute(attr_name)
        if self.catalog is not None:
            return self.catalog.domain_version(attr.domain_name)
        return 0

    # -- tries ---------------------------------------------------------------

    def trie_inputs(
        self,
        key_order: Sequence[str],
        annotations: Sequence[AnnotationRequest] = (),
        row_mask: Optional[np.ndarray] = None,
    ):
        """Resolve encoded builder inputs for ``key_order`` + annotations.

        Returns ``(key_columns, domain_sizes, specs)``: dictionary-coded
        key columns (row-masked), per-level domain sizes, and
        :class:`AnnotationSpec` objects whose values are the raw
        per-row arrays (string columns dictionary-encoded).
        """
        key_order = tuple(key_order)
        for attr_name in key_order:
            if self.schema.attribute(attr_name).kind is not Kind.KEY:
                raise SchemaError(f"'{attr_name}' is not a key attribute")
        key_columns = []
        domain_sizes = []
        for attr_name in key_order:
            col = self.columns[attr_name]
            if row_mask is not None:
                col = col[row_mask]
            dictionary = self._domain_dictionary(attr_name)
            key_columns.append(dictionary.encode(col))
            domain_sizes.append(dictionary.size)

        specs = []
        for req in annotations:
            values = req.values
            dictionary = req.dictionary
            if values is None:
                if req.combine != "count":
                    attr = self.schema.attribute(req.source)
                    values = self.columns[req.source]
                    if attr.type is AttrType.STRING:
                        dictionary = self.string_dictionary(req.source)
                        values = self.string_codes(req.source)
            if values is not None and row_mask is not None:
                values = values[row_mask]
            specs.append(AnnotationSpec(req.name, values, req.level, req.combine, dictionary))
        return key_columns, domain_sizes, specs

    def get_trie(
        self,
        key_order: Sequence[str],
        annotations: Sequence[AnnotationRequest] = (),
        row_mask: Optional[np.ndarray] = None,
    ) -> Trie:
        """Build (or fetch from cache) a trie over ``key_order``.

        Only the requested key attributes and annotation buffers are
        materialized (attribute elimination).  Builds with a
        ``row_mask`` (pushed-down selections) happen at plan time and
        never enter this cache: their cost is part of the first query
        with those literal values, as in the paper (the query shape's
        plan skeleton memoizes them per value).
        """
        key_order = tuple(key_order)
        cacheable = row_mask is None
        token = None
        if cacheable:
            token = (key_order, tuple(a.cache_token() for a in annotations))
            versions = tuple(self._domain_version(a) for a in key_order)
            if token in self._trie_cache and self._cache_domain_versions.get(token) == versions:
                return self._trie_cache[token]

        key_columns, domain_sizes, specs = self.trie_inputs(
            key_order, annotations, row_mask
        )
        trie = build_trie(key_columns, key_order, specs, domain_sizes=domain_sizes)
        if cacheable:
            self._trie_cache[token] = trie
            self._cache_domain_versions[token] = tuple(
                self._domain_version(a) for a in key_order
            )
        return trie

    def invalidate_tries(self) -> None:
        """Drop cached tries (called when a shared domain is re-coded)."""
        self._trie_cache.clear()
        self._cache_domain_versions.clear()

    def __repr__(self) -> str:
        return f"Table({self.schema.name!r}, rows={self.num_rows})"
