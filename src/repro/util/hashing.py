"""Hash frozen dataclasses once per instance."""

from __future__ import annotations

from dataclasses import fields


def hash_once(cls: type) -> type:
    """Make a frozen, slotted dataclass compute its hash once.

    Plans and machine specs key every per-plan memo, so a lookup would
    otherwise rehash each field, the spec's nested ones included. The
    class declares ``_hash: int | None = field(default=None, init=False,
    repr=False, compare=False)``; its dataclass hash is stored there on
    first use. Equality does not change. Pickling rebuilds the instance
    from its fields and leaves the stored hash behind, because string
    hashes are salted per process and instances travel to spawned
    workers.
    """
    field_hash = cls.__hash__
    init = tuple(f.name for f in fields(cls) if f.init)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = field_hash(self)
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        return cls, tuple(getattr(self, name) for name in init)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls
