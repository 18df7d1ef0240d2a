"""Schemas: the key/annotation data model (Section III-A).

LevelHeaded classifies every attribute as either a *key* or an
*annotation* via a user-defined schema, much like Google Mesa's
key/value-space split.  Keys are the only attributes that may partake
in joins (they become trie levels and hypergraph vertices); annotations
are everything else and are the only attributes that may be aggregated.
Both support filter predicates and GROUP BY.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SchemaError


class AttrType(enum.Enum):
    """Supported attribute types (Section III-A)."""

    INT = "int"
    LONG = "long"
    FLOAT = "float"
    DOUBLE = "double"
    STRING = "string"
    DATE = "date"

    @property
    def numpy_dtype(self):
        return {
            AttrType.INT: np.int32,
            AttrType.LONG: np.int64,
            AttrType.FLOAT: np.float32,
            AttrType.DOUBLE: np.float64,
            AttrType.STRING: np.str_,
            AttrType.DATE: np.int64,  # proleptic-Gregorian ordinal
        }[self]


#: Types a key attribute may have: keys are dictionary-encoded integers.
KEY_TYPES = (AttrType.INT, AttrType.LONG)


class Kind(enum.Enum):
    KEY = "key"
    ANNOTATION = "annotation"


@dataclass(frozen=True)
class Attribute:
    """One schema attribute.

    ``domain`` names the shared key domain: attributes with the same
    domain (e.g. ``c_custkey`` and ``o_custkey`` both in ``custkey``)
    share one order-preserving dictionary so their encoded values are
    join-compatible.  It defaults to the attribute name and is only
    meaningful for keys.
    """

    name: str
    type: AttrType
    kind: Kind
    domain: Optional[str] = None

    def __post_init__(self):
        if self.kind is Kind.KEY and self.type not in KEY_TYPES:
            raise SchemaError(
                f"key attribute '{self.name}' must be int/long, got {self.type.value}"
            )

    @property
    def domain_name(self) -> str:
        return self.domain if self.domain is not None else self.name

    @property
    def is_key(self) -> bool:
        return self.kind is Kind.KEY


def key(name: str, domain: Optional[str] = None, type: AttrType = AttrType.LONG) -> Attribute:
    """Shorthand for declaring a key attribute."""
    return Attribute(name, type, Kind.KEY, domain=domain)


def annotation(name: str, type: AttrType = AttrType.DOUBLE) -> Attribute:
    """Shorthand for declaring an annotation attribute."""
    return Attribute(name, type, Kind.ANNOTATION)


@dataclass
class Schema:
    """An ordered set of attributes for one relation."""

    name: str
    attributes: List[Attribute] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for attr in self.attributes:
            if attr.name in seen:
                raise SchemaError(f"duplicate attribute '{attr.name}' in schema '{self.name}'")
            seen.add(attr.name)
        self._by_name: Dict[str, Attribute] = {a.name: a for a in self.attributes}

    def attribute(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"schema '{self.name}' has no attribute '{name}'") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    @property
    def key_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes if a.is_key)

    @property
    def annotation_names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes if not a.is_key)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.attributes)


def parse_date(text: str) -> int:
    """Parse ``YYYY-MM-DD`` into the stored ordinal representation."""
    return datetime.date.fromisoformat(text.strip()).toordinal()


def format_date(ordinal: int) -> str:
    """Render a stored date ordinal back to ``YYYY-MM-DD``."""
    return datetime.date.fromordinal(int(ordinal)).isoformat()


def coerce_column(attr: Attribute, values: Sequence) -> np.ndarray:
    """Coerce raw ingested values to the attribute's storage dtype."""
    if attr.type is AttrType.STRING:
        return np.asarray(values, dtype=np.str_)
    if attr.type is AttrType.DATE:
        arr = np.asarray(values)
        if arr.dtype.kind in ("U", "S", "O"):
            return np.array([parse_date(str(v)) for v in values], dtype=np.int64)
        return arr.astype(np.int64)
    arr = np.asarray(values)
    target = attr.type.numpy_dtype
    try:
        return arr.astype(target)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"cannot coerce column '{attr.name}' to {attr.type.value}") from exc
