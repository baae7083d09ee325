"""Frozen harnesses: serialise a quiescent state once, copy it often.

The explorer expands every frontier state by applying each alphabet
step to its own copy of the state's harness.  Rather than copying the
live object graph once per step, :class:`FrozenHarness` pickles it
once and :meth:`FrozenHarness.thaw` unpickles one independent copy per
step -- an object graph rebuilt from a few kilobytes of bytes.

Some objects are not copied at all: the pickler's ``persistent_id``
keeps them as in-process references, and every thawed copy shares the
original.  They are

* code -- classes and functions, which is also what lets a mutant
  harness class defined inside a test function freeze;
* enum members;
* the immutable geometry, configuration and spec types in
  :data:`SHARED_TYPES`.

The shared types are named one by one.  Being a frozen dataclass is not
enough to qualify: a frozen dataclass can still hold a mutable field,
and a shared mutable object would couple sibling copies.

The references make a frozen harness valid only inside the process
that froze it, which is where the explorer (and each of its workers)
thaws it.  This module is imported on first use, so importing
:mod:`repro.check` loads no pickler.
"""

from __future__ import annotations

import io
import pickle
from enum import Enum
from types import FunctionType
from typing import Any, Dict, List

from repro.core.config import (
    BusConfig,
    CacheConfig,
    MemoryConfig,
    ProcessorConfig,
    RingConfig,
    SystemConfig,
)
from repro.ring.scheduler import SlotLane
from repro.ring.slots import FrameLayout
from repro.ring.topology import RingTopology
from repro.spec.core import GuardedAction, ProtocolSpec

__all__ = ["SHARED_TYPES", "FrozenHarness"]

#: Types whose instances every thawed copy shares with the original.
#: After classes, functions and enum members, each type holds only
#: immutable data once built: scalar-field configs, ring geometry
#: (``RingTopology`` caches derived tables, which are a function of
#: its fields), and validated spec tables, which nothing mutates after
#: import.
SHARED_TYPES = (
    type,
    FunctionType,
    Enum,
    SystemConfig,
    RingConfig,
    BusConfig,
    CacheConfig,
    MemoryConfig,
    ProcessorConfig,
    FrameLayout,
    RingTopology,
    SlotLane,
    ProtocolSpec,
    GuardedAction,
)


class _Freezer(pickle.Pickler):
    def __init__(self, file: io.BytesIO, shared: List[Any]) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.shared = shared
        self._index: Dict[int, int] = {}

    def persistent_id(self, obj: Any) -> Any:
        if not isinstance(obj, SHARED_TYPES):
            return None
        index = self._index.get(id(obj))
        if index is None:
            index = self._index[id(obj)] = len(self.shared)
            self.shared.append(obj)
        return index


class _Thawer(pickle.Unpickler):
    def __init__(self, data: bytes, shared: List[Any]) -> None:
        super().__init__(io.BytesIO(data))
        self.shared = shared

    def persistent_load(self, pid: Any) -> Any:
        return self.shared[pid]


class FrozenHarness:
    """One quiescent harness, serialised; :meth:`thaw` copies it."""

    __slots__ = ("data", "shared")

    def __init__(self, harness: Any) -> None:
        buffer = io.BytesIO()
        #: The objects ``data`` refers to by index instead of copying.
        self.shared: List[Any] = []
        _Freezer(buffer, self.shared).dump(harness)
        self.data = buffer.getvalue()

    def thaw(self) -> Any:
        """A new harness, independent of the original and of every
        other thawed copy except for the shared immutable objects."""
        return _Thawer(self.data, self.shared).load()
