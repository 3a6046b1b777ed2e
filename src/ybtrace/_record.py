"""The frozen value classes' shared base.

Each record names its fields in ``_fields`` and writes its own ``__init__``,
which checks its arguments and fills ``self.__dict__`` in one call.  The base
supplies what a frozen dataclass would, without generating code at import.
"""

from operator import itemgetter


class Record:
    """A frozen record over the two or more field names in ``_fields``.

    Records are equal when they are of one class and their fields are equal.
    The hash is the hash of the fields, computed on the first call and kept
    on the instance, outside the fields; a record with an unhashable field
    (a dict, a SquareMatrix) is unhashable.  No attribute can be assigned or
    deleted.  The repr is ``Name(field=value, ...)``.
    """

    _fields = ()

    def __init_subclass__(cls):
        # the field values as a tuple, read from the instance dict, where
        # __init__ puts every field; faster than getting each attribute
        cls._values = itemgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self.__dict__) == values(other.__dict__)
        return NotImplemented

    def __hash__(self):
        # the fields never change, so their hash is kept on the first call;
        # an unhashable field raises here on every call and nothing is kept
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(self._values(d))
        return h

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
