"""The catalog: registered tables and shared key-domain dictionaries.

Key attributes that join with one another must agree on their encoded
values, so the catalog maintains one order-preserving dictionary per
key *domain* (e.g. ``custkey``), extended as tables register.  Extending
a dictionary re-codes existing values, so registration bumps a domain
version and invalidates cached tries built against older codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SchemaError
from ..trie import Dictionary
from .table import Table


@dataclass
class SampleMeta:
    """Bookkeeping for one materialized sample table.

    A sample is a first-class catalog table (queryable by name) plus
    this record tying it to its base table.  ``base_table`` holds the
    exact :class:`Table` object the sample was drawn from: a sample is
    *usable* only while the catalog still maps ``base`` to that object,
    so replacing the base table (``Catalog.replace``) orphans -- and
    drops -- every sample built over the old rows.
    """

    name: str
    base: str
    fraction: float
    kind: str  # uniform | stratified
    strata: Tuple[str, ...]
    seed: int
    rows: int
    base_table: Optional[Table] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict:
        return {
            "name": self.name,
            "base": self.base,
            "fraction": self.fraction,
            "kind": self.kind,
            "strata": list(self.strata),
            "seed": self.seed,
            "rows": self.rows,
        }


class Catalog:
    """A named collection of tables sharing key-domain dictionaries."""

    def __init__(self):
        self.tables: Dict[str, Table] = {}
        self._domains: Dict[str, Dictionary] = {}
        self._versions: Dict[str, int] = {}
        #: bumped on every registration and every domain re-code; a cheap
        #: staleness pre-check for cached plans and prepared statements.
        self.version: int = 0
        #: materialized samples by sample-table name (``repro.approx``).
        self.samples: Dict[str, SampleMeta] = {}
        #: bumped whenever the sample set changes (create / drop /
        #: base replacement): approximate plan-cache keys embed this, so
        #: a newly created sample is picked up by the next approximate
        #: query without flushing any cached exact plans.
        self.samples_epoch: int = 0

    def register(self, table: Table) -> Table:
        """Register ``table``, extending the dictionaries of its key domains.

        Extending a dictionary re-codes existing values, so the affected
        ``domain_version`` bumps -- invalidating every cached trie *and*
        every cached :class:`~repro.xcution.plan.PhysicalPlan` built
        against the older codes (prepared statements and the engine's
        plan cache re-validate against these versions).
        """
        if table.name in self.tables:
            raise SchemaError(f"table '{table.name}' already registered")
        for attr in table.schema.attributes:
            if not attr.is_key:
                continue
            domain = attr.domain_name
            column = table.columns[attr.name]
            existing = self._domains.get(domain)
            if existing is None:
                self._domains[domain] = Dictionary.build(column)
                self._versions.setdefault(domain, 0)
            else:
                extended = existing.extend(column)
                if extended.size != existing.size:
                    self._domains[domain] = extended
                    self._versions[domain] = self._versions.get(domain, 0) + 1
                    self._invalidate_domain_users(domain)
        table.catalog = self
        self.tables[table.name] = table
        self.version += 1
        return table

    def replace(self, table: Table) -> Table:
        """Replace an already-registered table with new contents.

        The re-registration contract for mutable bases: the old table is
        dropped, every sample built over it is dropped with it (their
        rows describe data that no longer exists), the versions of every
        key domain the table participates in are bumped -- invalidating
        cached tries, plans, and prepared statements built against the
        old rows -- and the new table registers as usual.
        """
        old = self.tables.pop(table.name, None)
        if old is None:
            raise SchemaError(
                f"table '{table.name}' is not registered; use register()"
            )
        for meta in [m for m in self.samples.values() if m.base == table.name]:
            self.tables.pop(meta.name, None)
            del self.samples[meta.name]
            self.samples_epoch += 1
        # unconditionally bump every key domain the old table used: the
        # dictionary may not grow, but the rows behind the codes changed
        for attr in old.schema.attributes:
            if attr.is_key:
                domain = attr.domain_name
                self._versions[domain] = self._versions.get(domain, 0) + 1
                self._invalidate_domain_users(domain)
        self.version += 1
        return self.register(table)

    def register_sample(
        self,
        table: Table,
        *,
        base: str,
        fraction: float,
        kind: str,
        strata: Tuple[str, ...] = (),
        seed: int = 0,
    ) -> SampleMeta:
        """Register ``table`` as a materialized sample of ``base``."""
        base_table = self.table(base)  # raises on unknown base
        self.register(table)
        meta = SampleMeta(
            name=table.name,
            base=base,
            fraction=float(fraction),
            kind=kind,
            strata=tuple(strata),
            seed=int(seed),
            rows=table.num_rows,
            base_table=base_table,
        )
        self.samples[table.name] = meta
        self.samples_epoch += 1
        return meta

    def drop_sample(self, name: str) -> SampleMeta:
        """Drop one sample (table and metadata) by sample-table name."""
        meta = self.samples.pop(name, None)
        if meta is None:
            raise SchemaError(f"no sample named '{name}'")
        table = self.tables.pop(name, None)
        if table is not None:
            # invalidate cached approximate plans probing the dropped table
            for attr in table.schema.attributes:
                if attr.is_key:
                    domain = attr.domain_name
                    self._versions[domain] = self._versions.get(domain, 0) + 1
                    self._invalidate_domain_users(domain)
        self.version += 1
        self.samples_epoch += 1
        return meta

    def samples_of(self, base: str) -> List[SampleMeta]:
        """Usable samples of ``base``, in registration order.

        A sample is usable while the catalog still holds both the
        sample table *and* the exact base-table object it was drawn
        from; a replaced base orphans its samples.
        """
        return [
            meta
            for meta in self.samples.values()
            if meta.base == base
            and meta.name in self.tables
            and self.tables.get(base) is meta.base_table
        ]

    def sample_bytes(self) -> int:
        """Total bytes held by registered sample tables (the gauge)."""
        total = 0
        for meta in self.samples.values():
            table = self.tables.get(meta.name)
            if table is not None:
                total += sum(int(c.nbytes) for c in table.columns.values())
        return total

    def _invalidate_domain_users(self, domain: str) -> None:
        for table in self.tables.values():
            if any(
                a.is_key and a.domain_name == domain for a in table.schema.attributes
            ):
                table.invalidate_tries()

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"no table named '{name}'") from None

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def domain_dictionary(self, domain: str) -> Dictionary:
        d = self._domains.get(domain)
        if d is None:
            # A domain no registered key uses yet: empty dictionary.
            d = Dictionary.build(np.empty(0, dtype=np.int64))
            self._domains[domain] = d
            self._versions[domain] = 0
        return d

    def domain_size(self, domain: str) -> int:
        return self.domain_dictionary(domain).size

    def domain_version(self, domain: str) -> int:
        return self._versions.get(domain, 0)

    def names(self) -> Iterable[str]:
        return self.tables.keys()

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def __repr__(self) -> str:
        return f"Catalog(tables={sorted(self.tables)})"
