"""The immutable value base shared by the package's records.

Each record class lists its fields, in constructor order, in ``_fields`` and
stores them in ``__slots__``; the constructor sets them, then calls
``__post_init__``, where a subclass checks them.  A record compares and hashes
by its field values, refuses attribute assignment, and pickles by calling its
constructor again.  Plain slotted classes, not ``@dataclass`` ones: importing
that module (it pulls in ``inspect``) and decorating each class would cost
every CLI process start-up time (see README, "Start-up").
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # compares and hashes by the field values (one field: its bare value)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        # the generic constructor: every field required, by position or name
        names = self._fields
        if kwargs:
            args += tuple([kwargs.pop(name) for name in names[len(args):] if name in kwargs])
        if kwargs or len(args) != len(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        # looked up on the instance: bench/spans.py times every Isometry
        # construction by wrapping Isometry.__post_init__ on the class
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
