"""Stable content fingerprints for cache keys.

The serving plan cache persists compiled programs on disk keyed by a
fingerprint of ``(graph, chip, constraints)``.  Those keys must be stable
across Python processes, which rules out ``hash()`` (salted per process for
strings) and ``repr()`` of sets/frozensets (iteration order follows the
salted hashes).  ``canonicalize`` rewrites an arbitrary nested structure of
the types our IR uses into a deterministic string; ``stable_hash`` digests it
with SHA-256.
"""

from __future__ import annotations

import dataclasses
import hashlib
from enum import Enum
from typing import Mapping


def canonicalize(obj: object) -> str:
    """Deterministic textual form of a nested structure.

    Handles the types that appear in IR signatures and hardware specs:
    scalars, strings, enums, tuples/lists, mappings, sets/frozensets and
    frozen dataclasses.  Sets and mappings are sorted by the canonical form
    of their elements/keys so the result is independent of insertion and
    hash-iteration order.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        # repr() of a float is already round-trip exact in Python 3.
        return repr(obj)
    if isinstance(obj, Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, bytes):
        return f"bytes:{obj.hex()}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(canonicalize(item) for item in obj) + ")"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(canonicalize(item) for item in obj)) + "}"
    if isinstance(obj, Mapping):
        items = sorted((canonicalize(k), canonicalize(v)) for k, v in obj.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{field.name}={canonicalize(getattr(obj, field.name))}"
            for field in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    raise TypeError(f"cannot canonicalize {type(obj).__name__} value {obj!r}")


def stable_hash(obj: object, *, length: int = 16) -> str:
    """Hex SHA-256 digest (truncated to ``length`` chars) of ``obj``'s canonical form."""
    digest = hashlib.sha256(canonicalize(obj).encode("utf-8")).hexdigest()
    return digest[:length]


def memoized_hash(obj: object, tag: str) -> str:
    """``stable_hash((tag, obj))``, computed once per frozen dataclass instance.

    The memo sits in the instance ``__dict__``, outside the dataclass fields,
    so ``==``, ``hash``, ``repr`` and :func:`canonicalize` never see it.
    """
    cached = obj.__dict__.get("_fingerprint")
    if cached is None:
        cached = stable_hash((tag, obj))
        object.__setattr__(obj, "_fingerprint", cached)
    return cached
