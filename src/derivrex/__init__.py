"""Derivative-based regular-expression engine.

Matching, DFA construction, and equivalence checking all reduce to one
operation: the derivative of an expression by a symbol.  A separate
brute-force enumerator provides an independent semantics for cross-checks.
"""

from .automaton import (
    Dfa,
    EquivVerdict,
    build_dfa,
    dfa_accepts,
    equivalent,
    from_json,
    to_dot,
    to_json,
)
from .derivative import deriv_sym, deriv_word, matches, nullable
from .errors import (
    AlphabetError,
    AutomatonFormatError,
    DerivrexError,
    EnumerationBudgetError,
    PairBudgetError,
    ParseError,
    QuotientBoundError,
    StateBudgetError,
)
from .oracle import LangSample, dump_words, enumerate_lang, quotient
from .syntax import (
    EMPTY,
    EPSILON,
    Concat,
    Diff,
    Empty,
    Epsilon,
    Intersect,
    Regex,
    Star,
    Sym,
    Union,
    Word,
    canonicalize,
    concat,
    diff,
    intersect,
    parse,
    render,
    star,
    union,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "AutomatonFormatError",
    "Concat",
    "DerivrexError",
    "Dfa",
    "Diff",
    "EMPTY",
    "EPSILON",
    "Empty",
    "EnumerationBudgetError",
    "Epsilon",
    "EquivVerdict",
    "Intersect",
    "LangSample",
    "PairBudgetError",
    "ParseError",
    "QuotientBoundError",
    "Regex",
    "Star",
    "StateBudgetError",
    "Sym",
    "Union",
    "Word",
    "build_dfa",
    "canonicalize",
    "concat",
    "deriv_sym",
    "deriv_word",
    "dfa_accepts",
    "diff",
    "dump_words",
    "enumerate_lang",
    "equivalent",
    "from_json",
    "intersect",
    "matches",
    "nullable",
    "parse",
    "quotient",
    "render",
    "star",
    "to_dot",
    "to_json",
    "union",
]
