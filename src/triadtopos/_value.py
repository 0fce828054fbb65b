"""The common base of the library's immutable value classes."""


class Value:
    """A `__slots__` value compared, hashed and shown by its `_fields`; other
    slots hold labels or derived data.  No attribute can be assigned or deleted:
    `_set` stores the slots in `__slots__` order, for `__init__` (the generic one
    below, or a class's own that checks or derives data) and for copy and pickle."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        """Store the slots in order, by position or by keyword."""
        names = self.__slots__
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes each of {', '.join(names)} once;"
                            f" got {len(args)} values and unused keywords {sorted(kwargs)}")
        self._set(*args)

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __getstate__(self) -> tuple:  # protocols 0 and 1 refuse __slots__ without it
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setstate__(self, state: tuple) -> None:
        self._set(*state)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")
