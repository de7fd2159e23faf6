"""Exception types and the immutable record base shared across the package.

Two failure families matter to callers: inputs that violate a schema or a
declared precondition (``ValidationError``, CLI exit 1) and inputs that are
well-formed but fall outside the finitely-describable class the library
handles (``UnsupportedStructureError``, CLI exit 2).
"""

import operator


class KronError(Exception):
    """Base class for all library errors."""


class ValidationError(KronError):
    """Schema violation, broken precondition, or domain error.

    The message names the offending field or value.
    """


class UnsupportedStructureError(KronError):
    """Input is valid but outside the supported structural class."""


class _Record:
    """Base of the package's immutable value records.

    A record lists its public fields in ``__slots__`` in constructor order,
    then any private slots (a leading underscore), which hold only values
    derived from the fields.  This base's ``__init__`` is every record's
    constructor: it binds positional and keyword arguments to the public
    fields in slot order and sets them through the slot descriptors; a
    missing, extra, unknown or repeated field raises a TypeError naming the
    record.  A record that validates or normalises its fields, or has
    defaults, defines an ``__init__`` that ends in ``super().__init__(...)``,
    and sets a derived private slot with ``object.__setattr__``.  From the
    public fields this base also gives type-strict equality, the hash of their
    tuple, the repr ``Name(field=value, ...)``, and copies and pickles rebuilt
    through the constructor; assigning or deleting an attribute raises
    AttributeError.  Records use it, not frozen dataclasses, because every
    ``kron`` call would pay at start-up for importing ``dataclasses`` and for
    generating each class's methods.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # each public slot's descriptor setter, which writes past __setattr__
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)
        # the tuple of the public fields' values, read in C (attrgetter gives
        # a bare value for one name)
        get = operator.attrgetter(*fields)
        cls._values = property(get if len(fields) > 1 else lambda record: (get(record),))

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            fields = self._fields
            rest = fields[len(args):]
            if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(rest):
                raise TypeError(f"{type(self).__qualname__}() takes the fields ({', '.join(fields)}); got "
                                f"{len(args)} by position and ({', '.join(kwargs)}) by keyword")
            args += tuple(kwargs[name] for name in rest)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values
