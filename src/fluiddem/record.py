"""Immutable value records, built without generating code per class.

A subclass of Record names its fields in its own annotations, in order,
after the fields it inherits; a class attribute gives a field's default.
Instances take the fields by position or keyword, run __post_init__ (which
may normalize a field with object.__setattr__), and refuse assignment and
deletion. Equality and hashing compare the field values of two records of
the same class, and repr is `Name(field=value, ...)`. `class C(Record,
eq=False)` keeps identity equality and hashing, for records that hold arrays.
"""


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq=True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(dict.fromkeys(cls._fields + tuple(own)))
        cls._defaults = {**cls._defaults, **{f: cls.__dict__[f] for f in own if f in cls.__dict__}}
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__qualname__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                problem = "multiple values for" if key in values else "an unexpected keyword"
                raise TypeError(f"{name}() got {problem} argument '{key}'")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments: {', '.join(missing)}")
        self.__dict__.update({f: values[f] if f in values else self._defaults[f] for f in fields})
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def replace(self, **changes):
        """A copy with some fields changed; __post_init__ checks it again."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))

    def __setattr__(self, key, value):
        raise AttributeError(f"cannot assign to field '{key}'")

    def __delattr__(self, key):
        raise AttributeError(f"cannot delete field '{key}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        pairs = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({pairs})"
