"""Versioned data stores.

The recovery theory assumes ``undo(t)`` can be implemented "by reading the
last version of the data objects before the attack from the log of the
workflow management system" (Section III-A).  We therefore keep a full
version history per data object.  Two store flavours exist:

- :class:`DataStore` — every object has *one current copy* (the assumption
  behind Theorem 4: a write destroys the previous value for readers), plus
  an internal history used exclusively by recovery.
- :class:`MultiVersionDataStore` — readers may pin snapshots, which breaks
  anti-flow and output dependences (the third recovery strategy of
  Section III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.errors import DataStoreError, VersionNotFoundError

__all__ = ["Version", "DataStore", "MultiVersionDataStore", "TOMBSTONE"]


class _Tombstone:
    """Sentinel marking an object logically removed by recovery.

    Written when every write that ever produced an object is undone and
    the object had no pre-attack value (it was created by a malicious or
    abandoned task): after recovery the object "should not exist".
    """

    _instance: Optional["_Tombstone"] = None

    def __new__(cls) -> "_Tombstone":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<TOMBSTONE>"


#: Singleton written in place of objects removed by recovery.
TOMBSTONE = _Tombstone()


@dataclass(frozen=True)
class Version:
    """One committed version of a data object.

    Attributes
    ----------
    number:
        Version number, starting at 0 for the initial value and increasing
        by 1 per write.
    value:
        The stored value.
    writer:
        Uid of the task instance that wrote it, or ``None`` for the initial
        value loaded before any task ran.
    """

    number: int
    value: Any
    writer: Optional[str] = None


class DataStore:
    """Single-copy data store with per-object version history.

    Reads always observe the latest version (one copy per object); the
    history exists so that recovery can restore "the last version before
    the attack".

    Every mutation goes through :meth:`write`, which also appends the
    object's name to a write *journal*.  :meth:`mark` and
    :meth:`written_since` let a caller visit only the objects written
    since an earlier point instead of walking the whole store.
    """

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        self._history: Dict[str, List[Version]] = {}
        # Latest value of every object (kept by :meth:`write`), and the
        # name of every object written, in write order.
        self._latest: Dict[str, Any] = {}
        self._journal: List[str] = []
        if initial:
            for name, value in initial.items():
                self._history[name] = [Version(0, value, None)]
                self._latest[name] = value

    # -- reading -------------------------------------------------------------

    def read(self, name: str) -> Any:
        """Current value of ``name``."""
        return self.latest(name).value

    def read_version(self, name: str) -> Tuple[int, Any]:
        """Current ``(version number, value)`` of ``name``."""
        v = self.latest(name)
        return v.number, v.value

    def latest(self, name: str) -> Version:
        """Latest :class:`Version` of ``name``."""
        return self._versions(name)[-1]

    def version(self, name: str, number: int) -> Version:
        """A specific historical version of ``name``.

        Version numbers run ``0..n-1`` without gaps (:meth:`write`
        appends the next number), so the number is the list index.
        """
        versions = self._versions(name)
        if 0 <= number < len(versions):
            return versions[number]
        raise VersionNotFoundError(f"{name!r} has no version {number}")

    def history(self, name: str) -> Tuple[Version, ...]:
        """Full version history of ``name``, oldest first."""
        return tuple(self._versions(name))

    def _versions(self, name: str) -> List[Version]:
        """The live version list of ``name`` (not a copy)."""
        try:
            return self._history[name]
        except KeyError:
            raise DataStoreError(f"unknown data object {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._history

    def names(self) -> Iterator[str]:
        """Iterate over the names of all known data objects."""
        return iter(self._history)

    def snapshot(self) -> Dict[str, Any]:
        """Current value of every object (a plain dict copy)."""
        return dict(self._latest)

    def latest_values(self) -> Mapping[str, Any]:
        """Read-only live mapping of every object to its current value
        (no copy: it reflects later writes)."""
        return MappingProxyType(self._latest)

    # -- write journal -------------------------------------------------------

    def mark(self) -> int:
        """Position in the write journal; pass to :meth:`written_since`."""
        return len(self._journal)

    def written_since(self, mark: int) -> List[str]:
        """Names written after ``mark`` (``0``: since the store was
        created; initial values are not writes), each once, in
        first-write order."""
        return list(dict.fromkeys(self._journal[mark:]))

    # -- writing -------------------------------------------------------------

    def write(self, name: str, value: Any, writer: Optional[str] = None) -> int:
        """Commit a new version of ``name`` and return its version number.

        Unknown objects are created (first write becomes version 0 when no
        initial value existed, mirroring a task that creates an object).
        """
        versions = self._history.setdefault(name, [])
        number = versions[-1].number + 1 if versions else 0
        versions.append(Version(number, value, writer))
        self._latest[name] = value
        self._journal.append(name)
        return number

    def restore(self, name: str, number: int,
                writer: Optional[str] = None) -> int:
        """Write the value of historical version ``number`` as a *new*
        version (recovery never rewrites history).  Returns the new
        version number."""
        old = self.version(name, number)
        return self.write(name, old.value, writer)

    def last_version_before(self, name: str, number: int) -> Version:
        """The newest version of ``name`` strictly older than ``number``.

        This is the paper's "last version of the data object before the
        attack": undoing a write with version ``number`` restores this.
        """
        versions = self._versions(name)
        index = min(number, len(versions)) - 1
        if index < 0:
            raise VersionNotFoundError(
                f"{name!r} has no version before {number} "
                "(object was created by the undone task)"
            )
        return versions[index]


class MultiVersionDataStore(DataStore):
    """Data store where readers may pin and read consistent snapshots.

    Multiple versions break anti-flow (``→a``) and output (``→o``)
    dependences: a normal task can keep reading the version it saw even
    after recovery rewrites the object.  This enables the third recovery
    strategy of Section III-D (concurrency at the risk of normal tasks
    only) at the price of extra storage.
    """

    def __init__(self, initial: Optional[Mapping[str, Any]] = None) -> None:
        super().__init__(initial)
        self._pins: Dict[str, Dict[str, int]] = {}

    def pin(self, reader: str, name: str) -> int:
        """Pin ``reader`` to the current version of ``name``.

        Subsequent :meth:`read_pinned` calls by the same reader observe
        this version regardless of later writes.  Returns the pinned
        version number.
        """
        number = self.latest(name).number
        self._pins.setdefault(reader, {})[name] = number
        return number

    def read_pinned(self, reader: str, name: str) -> Any:
        """Read ``name`` at the version pinned by ``reader``.

        Falls back to the latest version when the reader has no pin.
        """
        pinned = self._pins.get(reader, {}).get(name)
        if pinned is None:
            return self.read(name)
        return self.version(name, pinned).value

    def release(self, reader: str) -> None:
        """Drop all pins held by ``reader`` (it committed or aborted)."""
        self._pins.pop(reader, None)

    def storage_cost(self) -> int:
        """Total number of stored versions (the paper's extra-storage
        cost of the multi-version strategy)."""
        return sum(len(vs) for vs in self._history.values())
