"""Exception types shared across the engine."""


class DerivrexError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(DerivrexError):
    """Malformed concrete syntax."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class AlphabetError(DerivrexError):
    """A symbol fell outside the alphabet in force."""


class AutomatonFormatError(DerivrexError):
    """A document given to from_json does not describe a total automaton."""


class StateBudgetError(DerivrexError):
    """The derivative closure grew past the allowed number of states."""

    def __init__(self, discovered: int, max_states: int):
        super().__init__(
            f"derivative closure exceeded the {max_states}-state budget "
            f"({discovered} states discovered)"
        )
        self.discovered = discovered
        self.max_states = max_states


class PairBudgetError(DerivrexError):
    """The equivalence check explored more state pairs than allowed."""

    def __init__(self, explored: int, max_pairs: int):
        super().__init__(
            f"equivalence check exceeded the {max_pairs}-pair budget "
            f"({explored} pairs explored)"
        )
        self.explored = explored
        self.max_pairs = max_pairs


class EnumerationBudgetError(DerivrexError):
    """A language slice grew past the allowed number of words."""

    def __init__(self, cap: int):
        super().__init__(f"language slice exceeded the {cap}-word budget")
        self.cap = cap


class QuotientBoundError(DerivrexError):
    """Quotient of a sample whose length bound is already zero."""
