"""Trie storage: dictionary encoding, level structure, and building.

The trie is LevelHeaded's only physical index (Section III-B).  See
:mod:`repro.trie.trie` for the structure and :mod:`repro.trie.builder`
for vectorized construction with annotation pre-aggregation.
"""

from .builder import AnnotationSpec, build_trie
from .dictionary import Dictionary
from .trie import Annotation, Trie, TrieLevel

__all__ = [
    "AnnotationSpec",
    "build_trie",
    "Dictionary",
    "Annotation",
    "Trie",
    "TrieLevel",
]
