"""Record and file-schema definitions (the data-definition layer).

ENCOMPASS provides "a data definition language [and] a data dictionary";
here a :class:`FileSchema` plays both roles: it names the file, fixes
its organization (key-sequenced / relative / entry-sequenced), its
primary key, its automatically-maintained alternate keys, whether it is
TMF-audited, and where it lives (one volume, or key-range partitions
across several — possibly on different nodes).

A record is a dict of field name → value; keys are tuples of field
values, which sort correctly for range operations.

Stored records are immutable *images*.  GUARDIAN processes share no
memory, so a value a DISCPROCESS stores can only change by being
replaced, never in place.  :func:`freeze` takes the image once, when a
requester's record enters the DISCPROCESS; from then on the same
:class:`FrozenRecord` is shared by reference by the block that stores
it, the audit before/after images, the pair's checkpoints, read and
scan replies, backout and ROLLFORWARD.  A frozen image prints, compares
and serialises like the dict it replaces and raises on mutation.  The
requester's file-system client turns a reply back into a plain dict
with :func:`thaw`: the one copy, landing in the requester's own buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Dict, NoReturn, Optional, Tuple

__all__ = [
    "KEY_SEQUENCED",
    "RELATIVE",
    "ENTRY_SEQUENCED",
    "FileSchema",
    "FrozenList",
    "FrozenRecord",
    "PartitionSpec",
    "Record",
    "RecordError",
    "SecuritySpec",
    "freeze",
    "primary_key_of",
    "thaw",
]

KEY_SEQUENCED = "key-sequenced"
RELATIVE = "relative"
ENTRY_SEQUENCED = "entry-sequenced"

_ORGANIZATIONS = (KEY_SEQUENCED, RELATIVE, ENTRY_SEQUENCED)

Record = Dict[str, Any]


class RecordError(ValueError):
    """A record does not fit its schema."""


def _immutable(self: Any, *args: Any, **kwargs: Any) -> NoReturn:
    raise TypeError(
        f"{type(self).__name__} is an immutable stored image; "
        "build a new value instead"
    )


class FrozenRecord(dict):
    """An immutable record image: a dict that raises on mutation."""

    __slots__ = ()

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self) -> Any:
        # Pickle and copy by value: the default protocol would refill
        # the new object through the blocked mutators.
        return (FrozenRecord, (dict(self),))


class FrozenList(list):
    """An immutable list inside a record image (e.g. a nested key)."""

    __slots__ = ()

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _immutable
    append = clear = extend = insert = pop = remove = reverse = sort = _immutable

    def __reduce__(self) -> Any:
        return (FrozenList, (list(self),))


def freeze(value: Any) -> Any:
    """The immutable image of ``value`` (``value`` itself if already one).

    Dicts become :class:`FrozenRecord` and lists :class:`FrozenList`, at
    every depth; any other value is stored as it is (record fields are
    scalars and tuples of scalars).
    """
    if isinstance(value, dict):
        if value.__class__ is FrozenRecord:
            return value
        return FrozenRecord({key: freeze(item) for key, item in value.items()})
    if isinstance(value, list):
        if value.__class__ is FrozenList:
            return value
        return FrozenList([freeze(item) for item in value])
    return value


def thaw(value: Any) -> Any:
    """A plain, mutable copy of a record image (other values as they are).

    Only the top level is copied: nested values stay frozen, so code
    that mutates them fails loudly instead of changing the stored image.
    """
    cls = value.__class__
    if cls is FrozenRecord:
        return dict(value)
    if cls is FrozenList:
        return list(value)
    return value


@dataclass(frozen=True)
class PartitionSpec:
    """One key-range partition of a file.

    ``low_key`` is the inclusive lower bound of primary keys stored in
    this partition (``None`` for the first partition).  Partitions are
    ordered by ``low_key``; a key belongs to the last partition whose
    ``low_key`` is <= the key.
    """

    node: str
    volume: str
    low_key: Optional[Tuple[Any, ...]] = None


@dataclass(frozen=True)
class SecuritySpec:
    """Access control for a file (§Data Base Management, feature 5).

    "Security controls by function, user class, network node,
    application program, and specified terminal."  A principal is the
    requesting process's network identity, ``node.$name`` (which covers
    node, application program, and — for TCP-mediated access — the
    terminal's TCP).  Patterns are ``fnmatch`` globs; controls are per
    *function*: read vs. write.  ``("*",)`` (the default) allows all.
    """

    read: Tuple[str, ...] = ("*",)
    write: Tuple[str, ...] = ("*",)

    def allows(self, function: str, principal: str) -> bool:
        patterns = self.read if function == "read" else self.write
        return any(fnmatchcase(principal, pattern) for pattern in patterns)


@dataclass(frozen=True)
class FileSchema:
    """Data-dictionary entry for one logical file."""

    name: str
    organization: str
    primary_key: Tuple[str, ...] = ()
    alternate_keys: Tuple[str, ...] = ()
    audited: bool = False
    partitions: Tuple[PartitionSpec, ...] = ()
    security: SecuritySpec = SecuritySpec()

    def __post_init__(self) -> None:
        if self.organization not in _ORGANIZATIONS:
            raise RecordError(
                f"unknown organization {self.organization!r} for {self.name}"
            )
        if self.organization == KEY_SEQUENCED and not self.primary_key:
            raise RecordError(f"key-sequenced file {self.name} needs a primary key")
        if self.organization != KEY_SEQUENCED and self.alternate_keys:
            raise RecordError(
                f"{self.name}: alternate keys require a key-sequenced file"
            )
        if not self.partitions:
            raise RecordError(f"{self.name}: at least one partition (location) required")
        lows = [p.low_key for p in self.partitions]
        if lows[0] is not None:
            raise RecordError(f"{self.name}: first partition must have low_key=None")
        if any(low is None for low in lows[1:]):
            raise RecordError(f"{self.name}: only the first partition may omit low_key")
        for earlier, later in zip(lows[1:], lows[2:]):
            if not earlier < later:
                raise RecordError(f"{self.name}: partition low keys must ascend")

    @property
    def partitioned(self) -> bool:
        return len(self.partitions) > 1

    def partition_for(self, key: Tuple[Any, ...]) -> PartitionSpec:
        """The partition holding ``key``."""
        chosen = self.partitions[0]
        for spec in self.partitions[1:]:
            if spec.low_key is not None and key >= spec.low_key:
                chosen = spec
            else:
                break
        return chosen

    def key_of(self, record: Record) -> Tuple[Any, ...]:
        return primary_key_of(record, self.primary_key)

    def check_record(self, record: Record) -> None:
        if not isinstance(record, dict):
            raise RecordError(f"{self.name}: record must be a dict, got {type(record)}")
        for fname in self.primary_key:
            if fname not in record:
                raise RecordError(f"{self.name}: record missing key field {fname!r}")
        for fname in self.alternate_keys:
            if fname not in record:
                raise RecordError(
                    f"{self.name}: record missing alternate key field {fname!r}"
                )


def primary_key_of(record: Record, key_fields: Tuple[str, ...]) -> Tuple[Any, ...]:
    """Extract the primary-key tuple from a record."""
    try:
        return tuple(record[fname] for fname in key_fields)
    except KeyError as exc:
        raise RecordError(f"record missing key field {exc}") from exc
