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

import weakref
from _weakref import _remove_dead_weakref
from operator import and_, attrgetter, gt, or_
from typing import Callable, Iterable

from .errors import AlphabetError, ParseError

# A word is a plain string of alphabet symbols; "" is the empty word.
Word = str

LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")


class Regex:
    """Base class for terms.

    Terms are hash-consed: building a term structurally equal to a live one
    returns that very object, so equality and hashing are by identity and
    cost O(1) whatever the size of the term.  Every node keeps its own memos
    (sort key, nullability, canonical form, derivatives, printed text),
    which are freed together with the last reference to the node.  A node
    is born with its derivative table, an empty dict that derivatives fill
    in; the table of a + or & chain also keeps the chains built with a term
    under it, keyed by that term.  Terms are immutable: setting an
    attribute raises AttributeError.
    """

    __slots__ = ("_key", "_nullable", "_canon", "_derivs", "_text", "__weakref__")
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

    def __deepcopy__(self, memo: dict) -> Regex:
        return self  # immutable and interned: a copy would be this very term


class Empty(Regex):
    """The empty language, written ``0``."""

    __slots__ = ()

    def __new__(cls) -> Regex:
        return EMPTY


class Epsilon(Regex):
    """The language containing only the empty word, written ``1``."""

    __slots__ = ()

    def __new__(cls) -> Regex:
        return EPSILON


class Sym(Regex):
    """A single symbol."""

    __slots__ = ("ch",)
    __match_args__ = ("ch",)

    def __new__(cls, ch: str) -> Regex:
        return _sym(ch)


class Star(Regex):
    """Kleene star."""

    __slots__ = ("inner",)
    __match_args__ = ("inner",)

    def __new__(cls, inner: Regex) -> Regex:
        return _star(inner)


class _Binary(Regex):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")
    _tag: int  # rank in the term order
    _null: Callable[[bool, bool], bool]  # nullability from the operands'

    def __new__(cls, left: Regex, right: Regex) -> Regex:
        return _node(cls, left, right)


class Concat(_Binary):
    """Concatenation."""

    __slots__ = ()
    _tag, _null = 4, and_


class Intersect(_Binary):
    """Intersection, written ``&``."""

    __slots__ = ()
    _tag, _null = 5, and_


class Diff(_Binary):
    """Difference, written ``-``."""

    __slots__ = ()
    _tag, _null = 6, gt  # left and not right


class Union(_Binary):
    """Union, written ``+``."""

    __slots__ = ()
    _tag, _null = 7, or_


# The intern table maps a class and the identities of its fields to a weak
# reference to the live term with that structure.  Keys hold ids rather than
# the children: a derivative of a star contains the star, so keys holding
# children would keep every term reachable from this module.  Ids are safe
# because a live term holds its children, so their ids cannot be reused
# while its entry exists.
#
# The table is a plain dict of keyed weak references, not a
# WeakValueDictionary, so neither a lookup nor an insertion runs a Python
# frame of the table.  A reference removes its own entry when its term
# dies, with the same atomic removal WeakValueDictionary uses: the entry
# goes only if it still holds a dead reference, so a late callback never
# removes a live term published since under the same key.
_INTERNED: dict[tuple, _Ref] = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _drop(ref: _Ref, table: dict = _INTERNED, remove=_remove_dead_weakref) -> None:
    # Bound as defaults, so the callback still works while the interpreter
    # tears this module down.
    remove(table, ref.key)


# Regex.__setattr__ refuses every assignment, so slots are filled through
# their descriptors' setters, bound once here.  The builders call the
# constructors below directly, and the classes only delegate to them.
_set_key, _set_nullable, _set_canon, _set_derivs, _set_text = (
    getattr(Regex, name).__set__
    for name in ("_key", "_nullable", "_canon", "_derivs", "_text")
)
_set_ch, _set_inner = Sym.ch.__set__, Star.inner.__set__
_set_left, _set_right = _Binary.left.__set__, _Binary.right.__set__
_new = object.__new__


def _publish(node: Regex, key: tuple, order: tuple, nullable: bool, text=None) -> Regex:
    # Completes a node whose fields are set and returns the live term under
    # key.  No lock: a key holds a class and ints or a letter, so setdefault
    # runs no Python code and is atomic; a node that loses a race dies.
    # 0, 1 and symbols come with their text, and are canonical.  Every node
    # gets its own derivative table here, and no code sets the slot again.
    _set_key(node, order)
    _set_nullable(node, nullable)
    _set_canon(node, None if text is None else True)
    _set_derivs(node, {})
    _set_text(node, text)
    ref = _Ref(node, _drop)
    ref.key = key
    while (held := _INTERNED.setdefault(key, ref)) is not ref:
        term = held()
        if term is not None:
            return term
        _remove_dead_weakref(_INTERNED, key)  # its callback has yet to run
    return node


def _sym(ch: str) -> Regex:
    key = (Sym, ch)
    ref = _INTERNED.get(key)
    node = ref and ref()
    if node is None:
        require_symbol(ch)  # to_json writes printed terms without escaping
        node = _new(Sym)
        _set_ch(node, ch)
        node = _publish(node, key, (2, ch), False, ch)
    return node


def _star(inner: Regex) -> Regex:
    key = (Star, id(inner))
    ref = _INTERNED.get(key)
    node = ref and ref()
    if node is None:
        node = _new(Star)
        _set_inner(node, inner)
        node = _publish(node, key, (3, inner._key), True)
    return node


def _node(cls: type, left: Regex, right: Regex) -> Regex:
    key = (cls, id(left), id(right))
    ref = _INTERNED.get(key)
    node = ref and ref()
    if node is None:
        node = _new(cls)
        _set_left(node, left)
        _set_right(node, right)
        order = (cls._tag, left._key, right._key)
        node = _publish(node, key, order, cls._null(left._nullable, right._nullable))
    return node


EMPTY: Regex = _publish(_new(Empty), (Empty,), (0,), False, "0")
EPSILON: Regex = _publish(_new(Epsilon), (Epsilon,), (1,), True, "1")


def require_symbol(ch: str) -> str:
    """Return *ch* if it is a single lowercase ASCII letter, else raise."""
    if ch not in LETTERS:
        raise AlphabetError(f"{ch!r} is not a single lowercase letter")
    return ch


def require_word(w: Word, alphabet: Iterable[str]) -> Word:
    """Return *w* if all its symbols are in *alphabet*, else raise
    AlphabetError naming the first symbol that is not, and its position."""
    allowed = frozenset(alphabet)
    if allowed.issuperset(w):
        return w
    i = next(i for i, ch in enumerate(w) if ch not in allowed)
    raise AlphabetError(f"word symbol {w[i]!r} at position {i} is not in the alphabet")


def _alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    # An alphabet: the symbols in first-seen order without repeats, each
    # checked to be a letter.
    return tuple(map(require_symbol, dict.fromkeys(symbols)))


def _bottom_up(e: Regex, step: Callable, arg: object = None):
    # Fills a per-node memo on e, children first, on an explicit stack, and
    # returns e's value.  step(node, arg) either fills node's slot from its
    # children's and returns the value, or returns the list of children
    # whose slots are still empty, and runs again once they are filled.
    value = step(e, arg)
    if type(value) is list:
        stack = [e, *value]
        while stack:
            value = step(stack[-1], arg)
            if type(value) is list:
                stack += value
            else:
                stack.pop()
    return value


# ---------------------------------------------------------------------------
# Parsing and printing
#
# The operator table: binding strength (higher binds tighter), the infix
# texts, and for each class the classes of the parts the printer puts in
# parentheses: those that bind more loosely, and its own on the tight side,
# which is the right of + - &, the left of a juxtaposition.

_PREC = {Union: 0, Diff: 1, Intersect: 2, Concat: 3, Star: 4}
_INFIX = {"+": Union, "-": Diff, "&": Intersect}
_LOOSER = {cls: {c for c, q in _PREC.items() if q < p} for cls, p in _PREC.items()}
_WRAP = {cls: (_LOOSER[cls], _LOOSER[cls] | {cls}, op) for op, cls in _INFIX.items()}
_WRAP[Concat] = (_LOOSER[Concat] | {Concat}, _LOOSER[Concat], "")  # left, right, infix


def parse(text: str, alphabet: Iterable[str] | None = None) -> Regex:
    """Parse *text* into a term that mirrors its structure exactly.

    No canonicalization happens here.  When *alphabet* is given, letters
    outside it raise AlphabetError; otherwise any lowercase letter is
    accepted.
    """
    # Precedence climbing over explicit stacks, so nesting costs no frames,
    # in one pass: each character is read once, and tested for whitespace
    # only where it matched no token.
    allowed = None if alphabet is None else frozenset(alphabet)
    operands: list[Regex] = []
    pending: list[type | None] = []  # operators not yet applied; None is a '('
    depth = 0  # the number of Nones in pending
    want_operand = True
    for pos, ch in enumerate(text):
        if not want_operand:
            if ch in _INFIX:  # left-associative: apply the equal ones too
                op = _INFIX[ch]
                prec = _PREC[op]
                while pending and pending[-1] is not None and _PREC[pending[-1]] >= prec:
                    right = operands.pop()
                    operands[-1] = _node(pending.pop(), operands[-1], right)
                pending.append(op)
                want_operand = True
                continue
            if ch == "*":
                operands[-1] = _star(operands[-1])
                continue
            if ch == ")" and depth:  # apply the operators above its '('
                while pending[-1] is not None:
                    right = operands.pop()
                    operands[-1] = _node(pending.pop(), operands[-1], right)
                pending.pop()
                depth -= 1
                continue
            if ch not in LETTERS and ch not in "01(":
                if ch.isspace():
                    continue
                raise ParseError("expected ')'" if depth else f"unexpected {ch!r}", pos)
            # Juxtaposition nests to the right: nothing is applied, and the
            # operand is read below.
            pending.append(Concat)
        if ch in LETTERS:
            if allowed is not None and ch not in allowed:
                raise AlphabetError(f"symbol {ch!r} at position {pos} is not in the alphabet")
            operands.append(_sym(ch))
        elif ch == "(":
            pending.append(None)
            depth += 1
        elif ch == "0" or ch == "1":
            operands.append(EMPTY if ch == "0" else EPSILON)
        elif ch.isspace():
            continue
        else:
            raise ParseError(f"unexpected {ch!r}", pos)
        want_operand = ch == "("
    if want_operand or depth:
        raise ParseError("unexpected end of input" if want_operand else "expected ')'", len(text))
    while pending:
        right = operands.pop()
        operands[-1] = _node(pending.pop(), operands[-1], right)
    return operands[0]


def render(e: Regex) -> str:
    """Concrete syntax for a term.  parse(render(e)) gives back e itself."""
    if not isinstance(e, Regex):
        raise TypeError(f"not a regex term: {e!r}")
    return e._text or _text_step(e, e)


def _text_step(e: Regex, root: Regex | None) -> str:
    # e's text, printed on an explicit stack where every node pushes its
    # parts, in parentheses where _WRAP says so.  Only root keeps its text,
    # and so do the parts of another class in its class region, which
    # automaton states share: each is printed where root meets it, by a call
    # one frame deep that prints all below it inline, so texts total twice
    # root's at most.
    cls = type(e)
    parts, stack = [], [e]
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
        elif (t := x._text) is not None:
            parts.append(t)
        elif type(x) is not cls and e is root:
            parts.append(_text_step(x, None))
        elif type(x) is Star:
            stack += ("*", ")", x.inner, "(") if type(x.inner) in _LOOSER[Star] else ("*", x.inner)
        else:
            left, right = x.left, x.right
            wrap_left, wrap_right, op = _WRAP[type(x)]
            stack += (")", right, "(", op) if type(right) in wrap_right else (right, op)
            if type(left) in wrap_left:
                stack += (")", left, "(")
            else:
                stack.append(left)
    text = "".join(parts)
    _set_text(e, text)
    return text


# ---------------------------------------------------------------------------
# Term ordering
#
# Every node carries its sort key, built at construction from the keys of
# its children: (rank,) for 0 and 1, (rank, letter) for a symbol, and
# (rank, child keys...) otherwise.  Constructors rank 0 < 1 < symbol < star
# < concatenation < intersection < difference < union, and ties are broken
# by the fields left to right.  The order is structural, so it does not
# depend on the order in which terms were interned.


_sort_key = attrgetter("_key")


class _TallKey:
    # A sort key compared in a loop, for keys too tall for C tuple comparison.
    # Equal subterms share one key tuple, so the loop enters the first pair that differ.
    __slots__ = ("key",)

    def __init__(self, x: Regex):
        self.key = x._key

    def __lt__(self, other: _TallKey) -> bool:
        p, q = self.key, other.key
        while p is not q and p[0] == q[0] != 2:  # one rank, and not two letters
            p, q = next((a, b) for a, b in zip(p[1:], q[1:]) if a is not b)
        return p[:2] < q[:2]


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


def _merge(cls: type, first: Regex, rest: tuple[Regex, ...], key=_sort_key) -> Regex | None:
    # The chain of first's operands and rest's, joined by cls in canonical
    # order: term order without repeats or 0, except that 1 goes last so
    # results read the way sums are conventionally written: "(a+b)*a+1"
    # rather than "1+(a+b)*a".  None if there is no operand.
    #
    # first is canonical, so its chain is in that order already.  Only its
    # operands from the smallest new one up are taken off and sorted with
    # the new ones, whose set drops repeats; the prefix below keeps its
    # nodes, and so the derivatives and texts kept on them.  Appending one
    # operand to a k-wide chain costs one comparison and one node, not a
    # sort and k lookups.
    try:
        one = first is EPSILON
        node = None if one or first is EMPTY else first
        if type(node) is cls and node.right is EPSILON:  # 1 stays last
            node, one = node.left, True
        if len(rest) == 1:
            # One operand that sorts after the top goes on top (under a 1) with
            # one comparison, no set and no sort.  A canonical top is not 0 or
            # 1, so neither is an operand that sorts after it.
            t = rest[0]
            top = node.right if type(node) is cls else node
            if top is not None and type(t) is not cls and key(top) < key(t):
                node = _node(cls, node, t)
                return _node(cls, node, EPSILON) if one else node
            # One operand or chain that sorts below the whole chain goes under
            # it with one comparison, at the bottom.  Each prefix passed keeps
            # its own chain with t under it in its derivative table, keyed by
            # t, so t goes under it, or under any chain that shares it, with
            # one lookup and one node per operand above it.
            low = t.right if type(t) is cls else t
            if type(node) is cls and low is not EMPTY and low is not EPSILON:
                passed, under = [], node
                while type(under) is cls:
                    if kept := under._derivs.get(t):
                        under = kept
                        break
                    passed.append(under)
                    under = under.left
                else:  # the bottom operand
                    under = _node(cls, t, under) if key(low) < key(under) else None
                if under is not None:
                    for prefix in reversed(passed):
                        under = _node(cls, under, prefix.right)
                        prefix._derivs[t] = under
                    return _node(cls, under, EPSILON) if one else under
        new: set[Regex] = set()
        for t in rest:
            if type(t) is cls:
                new.update(_operands(t, cls))
            else:
                new.add(t)
        one = one or EPSILON in new
        new.discard(EMPTY)
        new.discard(EPSILON)
        if new:
            low = min(map(key, new))
            while node is not None:
                top = node.right if type(node) is cls else node
                if key(top) < low:
                    break
                new.add(top)
                node = node.left if type(node) is cls else None
            for x in sorted(new, key=key):
                node = x if node is None else _node(cls, node, x)
        if one:
            node = EPSILON if node is None else _node(cls, node, EPSILON)
        return node
    except RecursionError:  # two tall keys overflow the C comparison of nested tuples
        if key is _TallKey:
            raise
        return _merge(cls, first, rest, _TallKey)


# ---------------------------------------------------------------------------
# Canonical forms
#
# The builders below assume canonical arguments and produce canonical
# results; `canonicalize` applies them bottom-up to arbitrary terms.  Only
# the unit and zero laws, ACI of + and &, and star collapses are rewritten
# here.  Other identities, such as (1+a)* = a* and (ab)c = a(bc), are
# deliberately left to the equivalence checker.


def union(*terms: Regex) -> Regex:
    """Canonical union: flatten, drop 0, sort, deduplicate.  union() is 0.

    The first operand's chain keeps its sorted prefix: the nodes below the
    smallest operand the others add are reused, and only those above are
    built, so adding one operand at the end of a chain builds one node.
    One operand or chain that sorts below the whole first chain is put
    under it once: the chain keeps the result.
    """
    if not terms:
        return EMPTY
    return _merge(Union, terms[0], terms[1:]) or EMPTY


def concat(left: Regex, right: Regex) -> Regex:
    """Canonical concatenation: absorb 0 and drop 1, keeping the grouping."""
    if left is EMPTY or right is EMPTY:
        return EMPTY
    if left is EPSILON:
        return right
    if right is EPSILON:
        return left
    return _node(Concat, left, right)


def star(inner: Regex) -> Regex:
    """Canonical star: 0* = 1* = 1, and a star of a star collapses."""
    if inner is EMPTY or inner is EPSILON:
        return EPSILON
    if isinstance(inner, Star):
        return inner
    return _star(inner)


def intersect(first: Regex, *rest: Regex) -> Regex:
    """Canonical intersection: flatten, sort, deduplicate, absorb 0.

    As in union, the first operand's chain keeps its sorted prefix, and
    only the nodes above the smallest new operand are built.
    """
    if first is EMPTY or EMPTY in rest:
        return EMPTY
    return _merge(Intersect, first, rest)


def diff(left: Regex, right: Regex) -> Regex:
    """Canonical difference: 0 - x, x - 0 and x - x simplify."""
    if right is EMPTY:
        return left
    if left is right or left is EMPTY:
        return EMPTY
    return _node(Diff, left, right)


def canonicalize(e: Regex) -> Regex:
    """Rewrite a term to canonical form.

    The result denotes the same language, and canonicalizing it again
    returns the same object.  The result is kept on *e* (the slot holds
    True once the term is known to be canonical itself).  Within one call,
    a + or & chain is built once per set of canonical operands, however
    many times and in whatever orders the term writes it.
    """
    c = e._canon
    if c is True:
        return e
    return c or _bottom_up(e, _canon_step, {})


_BUILD = {Union: union, Intersect: intersect, Concat: concat, Diff: diff, Star: star}


def _canon_step(e: Regex, chains: dict) -> Regex | list[Regex]:
    # The _bottom_up step of canonicalize: the builder of e's class over its
    # children's canonical forms.  A + or & chain goes in whole, not
    # pairwise, and its builder runs once per call for a set of operands:
    # + and & are ACI, so the result depends on that set alone, and chains
    # keeps it.
    cls = type(e)
    chain = cls is Union or cls is Intersect
    if chain:
        kids = _operands(e, cls)
    else:
        kids = [e.inner] if cls is Star else [e.left, e.right]
    todo = [x for x in kids if x._canon is None]
    if todo:
        return todo
    kids = [x if x._canon is True else x._canon for x in kids]
    if chain:
        key = (cls, frozenset(kids))
        c = chains.get(key)
        if c is None:
            c = chains[key] = _BUILD[cls](*kids)
    else:
        c = _BUILD[cls](*kids)
    if c is not e:
        _set_canon(e, c)
    _set_canon(c, True)
    return c
