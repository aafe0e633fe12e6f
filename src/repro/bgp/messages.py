"""BGP update messages for a single implicit prefix.

The simulator studies one destination prefix at a time (as the paper's
experiments do), so messages carry no NLRI field.  Two optional
attributes extend plain BGP exactly as the paper prescribes:

* ``lock`` — STAMP's Lock bit on blue announcements (section 4.1);
* ``et`` — STAMP's 1-bit Event Type (section 5.2).

``root_cause`` carries R-BGP's root cause information (RCI); plain BGP
and STAMP ignore it.
"""

from __future__ import annotations

from typing import Optional

from repro.types import ASN, ASPath, EventType, Link


class Announcement:
    """Route advertisement.

    ``path`` is announcer-first: ``path[0]`` is the sending AS,
    ``path[-1]`` the origin of the prefix.

    Hand-written ``__slots__`` class (one instance per sent update is
    the transport hot path); equality, hashing, repr, and immutability
    match the former frozen dataclass.  ``__init__`` fills the slots
    through the module-level bound setters below, which bypass the
    immutability guard without one ``object.__setattr__`` lookup per
    field.
    """

    __slots__ = ("path", "et", "lock", "root_cause")

    def __init__(
        self,
        path: ASPath,
        et: EventType = EventType.NO_LOSS,
        lock: bool = False,
        root_cause: Optional[Link] = None,
    ) -> None:
        if not path:
            raise ValueError("announcement path must be non-empty")
        _set_path(self, path)
        _set_et(self, et)
        _set_lock(self, lock)
        _set_root_cause(self, root_cause)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Announcement is immutable (tried to set {name})")

    def __reduce__(self):
        # The immutability guard breaks slot-state pickling; rebuild
        # through the constructor instead.
        return (self.__class__, (self.path, self.et, self.lock, self.root_cause))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Announcement):
            return NotImplemented
        return (
            self.path == other.path
            and self.et == other.et
            and self.lock == other.lock
            and self.root_cause == other.root_cause
        )

    def __hash__(self) -> int:
        return hash((self.path, self.et, self.lock, self.root_cause))

    def __repr__(self) -> str:
        return (
            f"Announcement(path={self.path!r}, et={self.et!r}, "
            f"lock={self.lock!r}, root_cause={self.root_cause!r})"
        )

    @property
    def sender(self) -> ASN:
        """The AS that sent this announcement."""
        return self.path[0]


_set_path = Announcement.path.__set__
_set_et = Announcement.et.__set__
_set_lock = Announcement.lock.__set__
_set_root_cause = Announcement.root_cause.__set__


class Withdrawal:
    """Route withdrawal.  Withdrawals are always loss events (ET=0).

    Hand-written like :class:`Announcement`, with the same guarantees
    as the frozen dataclass it replaces: positional ``(et,
    root_cause)``, equality and hashing over both fields, and no
    attribute set or deleted after construction.
    """

    __slots__ = ("et", "root_cause")

    def __init__(
        self,
        et: EventType = EventType.LOSS,
        root_cause: Optional[Link] = None,
    ) -> None:
        _set_withdrawal_et(self, et)
        _set_withdrawal_root_cause(self, root_cause)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Withdrawal is immutable (tried to set {name})")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Withdrawal is immutable (tried to delete {name})")

    def __reduce__(self):
        return (self.__class__, (self.et, self.root_cause))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.et == other.et and self.root_cause == other.root_cause

    def __hash__(self) -> int:
        return hash((self.et, self.root_cause))

    def __repr__(self) -> str:
        return f"Withdrawal(et={self.et!r}, root_cause={self.root_cause!r})"


_set_withdrawal_et = Withdrawal.et.__set__
_set_withdrawal_root_cause = Withdrawal.root_cause.__set__
