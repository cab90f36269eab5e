"""Source-to-source reduction of integer polynomial equation systems to
diagonal quadratic systems, with witness translation and bounded
equisatisfiability checking."""

from .compiler import (EquisatReport, GadgetBlock, SquareEq, TargetSystem,
                       bounded_equisat, compile_system, encode_square,
                       translate_witness, validate_target)
from .formulas import print_formulas
from .lower import (IntermediateSystem, LinearEq, Squaring, TACProgram,
                    eliminate_mul, lower_tac, run_trace)
from .parser import (Equation, ParseError, SourceSystem, evaluate, expand,
                     parse, parse_poly)

__all__ = [
    "Equation", "EquisatReport", "GadgetBlock", "IntermediateSystem",
    "LinearEq", "ParseError", "SquareEq", "Squaring", "SourceSystem",
    "TACProgram", "TargetSystem", "bounded_equisat", "compile_system",
    "eliminate_mul", "encode_square", "evaluate", "expand", "lower_tac",
    "parse", "parse_poly", "print_formulas", "run_trace",
    "translate_witness", "validate_target",
]
