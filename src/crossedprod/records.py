"""Frozen value records, built without code generation.

``@record`` gives a class the ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and frozen ``__setattr__``/``__delattr__`` of a frozen stdlib
dataclass from closures over its fields, not from generated source, whose
compiling dominated a cold start.  Fields are the record bases' annotations,
then the class's own, with class-body values as defaults; body methods stay.
The class is decorated in place, so zero-argument ``super()`` works and it
may write its ``__slots__``: a slot without an annotation is no field.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _setstate(self, state):  # unpickling or copying; a slots record's is (None, {slot: value})
    for name, value in (state[1] if isinstance(state, tuple) else state).items():
        _set(self, name, value)


def record(cls=None, *, eq: bool = True):
    if cls is None:
        return lambda c: record(c, eq=eq)
    own = cls.__dict__
    fields = dict(getattr(cls, "__record_fields__", {}))
    for name in own.get("__annotations__", {}):
        fields[name] = own[name] if name in own and name not in own.get("__slots__", ()) \
            else fields.get(name, _MISSING)
    names = tuple(fields)
    tail = tuple(v for v in fields.values() if v is not _MISSING)  # defaults trail
    arity, required = len(names), len(names) - len(tail)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if kwargs or not required <= len(args) <= arity:
            args = _bind(cls, names, tail, args, kwargs)
        elif len(args) < arity:
            args += tail[len(args) - required:]
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{k}={getattr(self, k)!r}" for k in names) + ")"

    methods = {"__init__": __init__, "__repr__": __repr__, "__setstate__": _setstate,
               "__setattr__": _frozen, "__delattr__": _frozen}
    if eq:
        # attrgetter of one name returns the bare value, not a 1-tuple
        get = attrgetter(*names) if arity > 1 else \
            lambda self: tuple(getattr(self, k) for k in names)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return self is other or get(self) == get(other)

        def __hash__(self):
            return hash(get(self))

        methods.update(__eq__=__eq__, __hash__=__hash__)
    for name, method in methods.items():
        if name not in own:
            setattr(cls, name, method)
    cls.__record_fields__ = fields
    return cls


def _bind(cls, names, tail, args, kwargs) -> list:
    """Field values from a call with keywords or a wrong positional count."""
    given = dict(zip(names[len(names) - len(tail):], tail))
    given.update(zip(names, args), **kwargs)
    if len(args) > len(names) or set(kwargs) - set(names[len(args):]) or len(given) < len(names):
        raise TypeError(f"{cls.__name__}() takes the fields {names}, not "
                        f"{len(args)} positional arguments and the keywords {sorted(kwargs)}")
    return [given[k] for k in names]
