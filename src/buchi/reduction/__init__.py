"""Source-to-source reduction of integer polynomial equation systems to
diagonal quadratic systems, with witness translation and bounded
equisatisfiability checking.

The names below are looked up in their submodule on first use and are
not kept here, so `from buchi.reduction import parse` loads the parser
alone, and a function replaced on its submodule is seen here too."""

import importlib

_SUBMODULE = {
    "EquisatReport": "compiler", "GadgetBlock": "compiler", "SquareEq": "compiler",
    "TargetSystem": "compiler", "bounded_equisat": "compiler",
    "compile_system": "compiler", "encode_square": "compiler",
    "translate_witness": "compiler", "validate_target": "compiler",
    "print_formulas": "formulas",
    "IntermediateSystem": "lower", "LinearEq": "lower", "Squaring": "lower",
    "TACProgram": "lower", "eliminate_mul": "lower", "lower_tac": "lower",
    "run_trace": "lower",
    "Equation": "parser", "ParseError": "parser", "SourceSystem": "parser",
    "evaluate": "parser", "expand": "parser", "parse": "parser",
    "parse_poly": "parser",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    if name in _SUBMODULE:
        return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
