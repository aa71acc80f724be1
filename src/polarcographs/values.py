"""Small value classes: equality, hash and repr derived from the field names.

The package's records, profiles, witnesses and expression nodes subclass
``Value`` (mutable, unhashable) or ``FrozenValue`` (immutable, hashable),
list their fields in ``__slots__`` and write their own ``__init__``; a frozen
class sets its fields with ``set_field`` (``object.__setattr__``).  Equality
holds between instances of the same class with equal fields, as with a
dataclass, and the repr has the dataclass format.  A class that leaves a
slot out of equality, hash and repr names the others in ``_fields``.

This stands in for ``dataclasses``, whose import pulls in ``inspect``,
``ast``, ``dis`` and ``tokenize`` and whose decorator execs generated code
for every class: together most of the package's import time.
"""

set_field = object.__setattr__


class Value:
    """Fields compared by ``==`` within one class; not hashable."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in cls.__dict__:
            cls._fields = cls.__slots__

    def _astuple(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which takes the slots in order
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class FrozenValue(Value):
    """A Value whose fields cannot be assigned or deleted; hashed by its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
