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


def guard(name: str, cost: int, limit: int, what: str, error=ValueError, *where) -> None:
    """Every resource-guard refusal: error(f"{what} {cost} > {name} = {limit}
    refused (resource guard)", *where) if cost > limit; a ParseError site
    passes its (line, col), and a cost past 4300 digits is shown by its bits."""
    if cost > limit:
        shown = cost if cost.bit_length() <= 14_000 else f"of {cost.bit_length()} bits"
        raise error(f"{what} {shown} > {name} = {limit} refused (resource guard)", *where)
