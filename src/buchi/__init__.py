"""Exact-arithmetic workbench for square sequences with constant second
difference, the quadric surfaces attached to them, p-adic value
distribution of rational functions, and the reduction of Diophantine
systems to diagonal quadratic form.

`import buchi` loads no submodule: each one loads on first use, as
`buchi.nevanlinna` or `from buchi import surfaces`, so that a `buchi`
command starts with only the modules it runs."""

import importlib

__version__ = "0.1.0"

__all__ = ["exact", "nevanlinna", "reduction", "sequences", "surfaces",
           "symbolic", "__version__"]


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Record:
    """Base of the package's records.  A subclass names its fields, in order,
    in __slots__, and is built from them by position or keyword.  Records
    of one class compare equal when their fields do, hash as the tuple of
    their fields, and refuse assignment with AttributeError, unless the
    class sets __setattr__ = object.__setattr__."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names) or kwargs.keys() != set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__


def guard(name: str, cost: int, limit: int, what: str, error=ValueError, *where) -> None:
    """Every resource-guard refusal: error(f"{what} {cost} > {name} = {limit}
    refused (resource guard)", *where) if cost > limit; a ParseError site
    passes its (line, col), and a cost past 4300 digits is shown by its bits."""
    if cost > limit:
        shown = cost if cost.bit_length() <= 14_000 else f"of {cost.bit_length()} bits"
        raise error(f"{what} {shown} > {name} = {limit} refused (resource guard)", *where)
