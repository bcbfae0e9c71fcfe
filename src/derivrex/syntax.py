"""Regular-expression terms, their concrete syntax, and canonical forms.

The term language is the classic one extended with intersection and
difference: the empty language, the empty word, single symbols, union,
concatenation, and Kleene star, plus ``&`` and ``-``.  Symbols are single
lowercase ASCII letters, so the atoms ``0`` (empty language) and ``1``
(empty word) can never collide with them.

Concrete syntax::

    union   :=  diff ('+' diff)*
    diff    :=  inter ('-' inter)*
    inter   :=  concat ('&' concat)*
    concat  :=  starred starred*           juxtaposition
    starred :=  atom '*'*
    atom    :=  '0' | '1' | letter | '(' union ')'

``*`` binds tightest, then juxtaposition, then ``&``, ``-`` and ``+`` in
decreasing precedence.  The infix operators associate to the left;
juxtaposition nests to the right.  Whitespace between tokens is skipped.

Canonical form identifies terms up to associativity, commutativity and
idempotence of ``+`` and ``&``, drops ``0``/``1`` units, and collapses
nested stars, which keeps the set of derivatives of any term finite.
"""

from __future__ import annotations

import string
import threading
import weakref
from operator import attrgetter
from typing import Callable, Iterable

from .errors import AlphabetError, ParseError

# A word is a plain string of alphabet symbols; "" is the empty word.
Word = str

LETTERS = frozenset(string.ascii_lowercase)


class Regex:
    """Base class for terms.

    Terms are hash-consed: building a term structurally equal to a live one
    returns that very object, so equality and hashing are by identity and
    cost O(1) whatever the size of the term.  Every node keeps its own memos
    (sort key, nullability, canonical form, derivatives, derivative classes,
    printed text), which are freed together with the last reference to the
    node.  Terms are immutable: setting an attribute raises AttributeError.
    """

    __slots__ = (
        "_key", "_nullable", "_canon", "_derivs", "_classes", "_text", "__weakref__"
    )
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} terms are immutable")

    def __repr__(self) -> str:
        return f"<regex {render(self)}>"

    def __reduce__(self):
        # Copies and unpickled terms go back through the intern table.
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


# The intern table maps a class and the identities of its fields to the
# live term with that structure.  Keys hold ids rather than the children:
# a derivative of a star contains the star, so keys holding children would
# keep every term reachable from this module.  Ids are safe because a live
# term holds its children, so their ids cannot be reused while its entry
# exists.
_INTERNED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
_setslot = object.__setattr__


def _intern(cls: type, key: tuple, order: tuple, nullable: bool, *fields) -> Regex:
    # Called after a lookup missed.  The lookup is repeated under the lock
    # so that threads racing to build one term agree on one object.
    with _INTERN_LOCK:
        node = _INTERNED.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls.__match_args__, fields):
                _setslot(node, name, value)
            _setslot(node, "_key", order)
            _setslot(node, "_nullable", nullable)
            _setslot(node, "_canon", None)
            _setslot(node, "_derivs", None)
            _setslot(node, "_classes", None)
            _setslot(node, "_text", None)
            _INTERNED[key] = node
    return node


class Empty(Regex):
    """The empty language, written ``0``."""

    __slots__ = ()

    def __new__(cls) -> Regex:
        return _INTERNED.get((cls,)) or _intern(cls, (cls,), (0,), False)


class Epsilon(Regex):
    """The language containing only the empty word, written ``1``."""

    __slots__ = ()

    def __new__(cls) -> Regex:
        return _INTERNED.get((cls,)) or _intern(cls, (cls,), (1,), True)


class Sym(Regex):
    """A single symbol."""

    __slots__ = ("ch",)
    __match_args__ = ("ch",)

    def __new__(cls, ch: str) -> Regex:
        key = (cls, ch)
        return _INTERNED.get(key) or _intern(cls, key, (2, ch), False, ch)


class Star(Regex):
    """Kleene star."""

    __slots__ = ("inner",)
    __match_args__ = ("inner",)

    def __new__(cls, inner: Regex) -> Regex:
        key = (cls, id(inner))
        return _INTERNED.get(key) or _intern(cls, key, (3, inner._key), True, inner)


class _Binary(Regex):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _tag: int  # rank in the term order
    _null: Callable[[bool, bool], bool]  # nullability from the operands'

    def __new__(cls, left: Regex, right: Regex) -> Regex:
        key = (cls, id(left), id(right))
        return _INTERNED.get(key) or _intern(
            cls,
            key,
            (cls._tag, left._key, right._key),
            cls._null(left._nullable, right._nullable),
            left,
            right,
        )


class Concat(_Binary):
    """Concatenation."""

    __slots__ = ()
    _tag = 4
    _null = staticmethod(lambda left, right: left and right)


class Intersect(_Binary):
    """Intersection, written ``&``."""

    __slots__ = ()
    _tag = 5
    _null = staticmethod(lambda left, right: left and right)


class Diff(_Binary):
    """Difference, written ``-``."""

    __slots__ = ()
    _tag = 6
    _null = staticmethod(lambda left, right: left and not right)


class Union(_Binary):
    """Union, written ``+``."""

    __slots__ = ()
    _tag = 7
    _null = staticmethod(lambda left, right: left or right)


EMPTY = Empty()
EPSILON = Epsilon()


def require_symbol(ch: str) -> None:
    """Reject anything that is not a single lowercase ASCII letter."""
    if len(ch) != 1 or ch not in LETTERS:
        raise AlphabetError(f"{ch!r} is not a single lowercase letter")


def _alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    # An alphabet: the symbols in first-seen order without repeats, each
    # checked to be a letter.
    alpha = tuple(dict.fromkeys(symbols))
    for ch in alpha:
        require_symbol(ch)
    return alpha


def letters(e: Regex) -> frozenset[str]:
    """The set of symbols occurring in a term."""
    found: set[str] = set()
    seen: set[Regex] = set()
    stack = [e]
    while stack:  # a stack, not recursion: parsed chains can be long
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        match node:
            case Sym(ch):
                found.add(ch)
            case Star(x):
                stack.append(x)
            case _Binary(l, r):
                stack += (l, r)
    return frozenset(found)


def word_regex(w: Word) -> Regex:
    """The literal term whose language is exactly {w}, in canonical form."""
    for ch in w:
        require_symbol(ch)
    if not w:
        return EPSILON
    node: Regex = Sym(w[-1])
    for ch in reversed(w[:-1]):
        node = Concat(Sym(ch), node)
    return node


# ---------------------------------------------------------------------------
# Parsing and printing
#
# The operator table: binding strength (higher binds tighter) and the infix
# texts.  The parser and the printer both read it.

_PREC = {Union: 0, Diff: 1, Intersect: 2, Concat: 3, Star: 4}
_INFIX = {"+": Union, "-": Diff, "&": Intersect}
_INFIX_TEXT = {cls: op for op, cls in _INFIX.items()}


def parse(text: str, alphabet: Iterable[str] | None = None) -> Regex:
    """Parse *text* into a term that mirrors its structure exactly.

    No canonicalization happens here.  When *alphabet* is given, letters
    outside it raise AlphabetError; otherwise any lowercase letter is
    accepted.
    """
    # Precedence climbing over explicit stacks, so nesting costs no frames.
    allowed = None if alphabet is None else frozenset(alphabet)
    operands: list[Regex] = []
    pending: list[type | None] = []  # operators not yet applied; None is a '('
    depth = 0  # the number of Nones in pending
    want_operand = True
    pos, end = 0, len(text)

    def fold(prec: int) -> None:
        # Apply the pending operators above the innermost '(' that bind at
        # least as tightly as prec, topmost first.
        while pending and pending[-1] is not None and _PREC[pending[-1]] >= prec:
            right = operands.pop()
            operands[-1] = pending.pop()(operands[-1], right)

    while True:
        while pos < end and text[pos].isspace():
            pos += 1
        ch = text[pos] if pos < end else ""
        if want_operand:
            if ch == "(":
                pending.append(None)
                depth += 1
            elif ch == "0":
                operands.append(EMPTY)
            elif ch == "1":
                operands.append(EPSILON)
            elif ch in LETTERS:
                if allowed is not None and ch not in allowed:
                    raise AlphabetError(
                        f"symbol {ch!r} at position {pos} is not in the alphabet"
                    )
                operands.append(Sym(ch))
            elif ch:
                raise ParseError(f"unexpected {ch!r}", pos)
            else:
                raise ParseError("unexpected end of input", pos)
            want_operand = ch == "("
        elif ch in _INFIX:  # left-associative: fold the equal ones too
            op = _INFIX[ch]
            fold(_PREC[op])
            pending.append(op)
            want_operand = True
        elif ch == "*":
            operands[-1] = Star(operands[-1])
        elif ch == ")" and depth:
            fold(0)
            pending.pop()
            depth -= 1
        elif ch and (ch in "01(" or ch in LETTERS):
            # Juxtaposition nests to the right: nothing is folded.
            pending.append(Concat)
            want_operand = True
            continue
        elif depth:
            raise ParseError("expected ')'", pos)
        elif ch:
            raise ParseError(f"unexpected {ch!r}", pos)
        else:
            fold(0)
            return operands[0]
        pos += 1


def render(e: Regex) -> str:
    """Concrete syntax for a term.  parse(render(e)) gives back e itself."""
    if not isinstance(e, Regex):
        raise TypeError(f"not a regex term: {e!r}")
    return _body(e)


def _body(e: Regex, context: int = 0) -> str:
    # The text of e, in parentheses when e binds more loosely than context.
    # The bare text is kept on the node.  One frame per level of nesting,
    # but none per operand of a +, - or & chain.
    text = e._text
    if text is None:
        match e:
            case Empty():
                text = "0"
            case Epsilon():
                text = "1"
            case Sym(ch):
                text = ch
            case Star(x):
                text = _body(x, _PREC[Star]) + "*"
            case Concat(l, r):
                text = _body(l, _PREC[Star]) + _body(r, _PREC[Concat])
            case _Binary():
                # A chain nests to the left and can be thousands long, so
                # walk down to the first prefix already printed (or the
                # first operand) and join the rest onto it.  Only the top
                # keeps the text: kept on every prefix, the texts would
                # take memory quadratic in the chain.
                cls, rights, node = type(e), [], e
                while type(node) is cls and node._text is None:
                    rights.append(node.right)
                    node = node.left
                prec = _PREC[cls]
                parts = [_body(node, prec)]
                parts += (_body(r, prec + 1) for r in reversed(rights))
                text = _INFIX_TEXT[cls].join(parts)
        _setslot(e, "_text", text)
    return f"({text})" if _PREC.get(type(e), context) < context else text


# ---------------------------------------------------------------------------
# Term ordering
#
# Every node carries its sort key, built at construction from the keys of
# its children: (rank,) for 0 and 1, (rank, letter) for a symbol, and
# (rank, child keys...) otherwise.  The order is structural, so it does not
# depend on the order in which terms were interned.


def term_order(a: Regex, b: Regex) -> int:
    """Three-way comparison defining a strict total order on terms.

    Constructors rank 0 < 1 < symbol < star < concatenation < intersection
    < difference < union; ties are broken by comparing fields left to right.
    """
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


_sort_key = attrgetter("_key")


def _chain(cls: type, args: set[Regex]) -> Regex:
    # Left-nested chain of the operands in term order, except that 1 goes
    # last so results read the way sums are conventionally written:
    # "(a+b)*a+1" rather than "1+(a+b)*a".  (0 never gets here.)
    ordered = sorted(args - {EPSILON}, key=_sort_key)
    if EPSILON in args:
        ordered.append(EPSILON)
    node = ordered[0]
    for arg in ordered[1:]:
        node = cls(node, arg)
    return node


def _operands(e: Regex, cls: type) -> list[Regex]:
    # The operands of a nest of cls nodes, left to right, without recursion.
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        while type(node) is cls:
            stack.append(node.right)
            node = node.left
        out.append(node)
    return out


def _flat(cls: type, terms: Iterable[Regex]) -> set[Regex]:
    # The operands of canonical terms joined by cls: a cls chain adds its
    # operands, anything else adds itself.
    args: set[Regex] = set()
    for t in terms:
        if type(t) is cls:
            args.update(_operands(t, cls))
        else:
            args.add(t)
    return args


# ---------------------------------------------------------------------------
# Canonical forms
#
# The builders below assume canonical arguments and produce canonical
# results; `canonicalize` applies them bottom-up to arbitrary terms.  Only
# unit laws, ACI laws, and star collapses are rewritten here.  Identities
# that need semantic reasoning, such as (1+a)* = a*, are deliberately left
# to the equivalence checker.


def union(*terms: Regex) -> Regex:
    """Canonical union: flatten, drop 0, sort, deduplicate.  union() is 0."""
    args = _flat(Union, terms)
    args.discard(EMPTY)
    return _chain(Union, args) if args else EMPTY


def concat(left: Regex, right: Regex) -> Regex:
    """Canonical concatenation: flatten right-nested, drop 1, absorb 0.

    Only the left operand's factors are taken apart; a canonical right
    operand is already nested to the right.
    """
    parts = _operands(left, Concat)
    if right is EMPTY or EMPTY in parts:
        return EMPTY
    node = right
    for part in reversed(parts):
        if part is not EPSILON:
            node = part if node is EPSILON else Concat(part, node)
    return node


def star(inner: Regex) -> Regex:
    """Canonical star: 0* = 1* = 1, and a star of a star collapses."""
    if inner is EMPTY or inner is EPSILON:
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return Star(inner)


def intersect(first: Regex, *rest: Regex) -> Regex:
    """Canonical intersection: flatten, sort, deduplicate, absorb 0."""
    args = _flat(Intersect, (first, *rest))
    return EMPTY if EMPTY in args else _chain(Intersect, args)


def diff(left: Regex, right: Regex) -> Regex:
    """Canonical difference: subtracting 0 or the term itself simplifies."""
    if right is EMPTY:
        return left
    if left is right:
        return EMPTY
    return Diff(left, right)


def canonicalize(e: Regex) -> Regex:
    """Rewrite a term to canonical form.

    The result denotes the same language, and canonicalizing it again
    returns the same object.  The result is kept on *e* (the slot holds
    True once the term is known to be canonical itself).
    """
    c = e._canon
    if c is True:
        return e
    if c is None:
        match e:
            case Union():  # the whole chain at once, not pairwise
                c = union(*map(canonicalize, _operands(e, Union)))
            case Concat(l, r):
                c = concat(canonicalize(l), canonicalize(r))
            case Star(x):
                c = star(canonicalize(x))
            case Intersect():
                c = intersect(*map(canonicalize, _operands(e, Intersect)))
            case Diff(l, r):
                c = diff(canonicalize(l), canonicalize(r))
            case _:
                c = e
        if c is not e:
            _setslot(e, "_canon", c)
        _setslot(c, "_canon", True)
    return c
