"""Corpus and strategies shared by the test modules."""

import itertools
import json
import random
import string
from collections import deque
from operator import and_, gt, or_

from hypothesis import strategies as st

from derivrex import (
    EMPTY,
    EPSILON,
    AlphabetError,
    Concat,
    Dfa,
    Diff,
    Empty,
    Epsilon,
    EquivVerdict,
    Intersect,
    PairBudgetError,
    ParseError,
    Regex,
    StateBudgetError,
    Star,
    Sym,
    Union,
    canonicalize,
    concat,
    deriv_sym,
    deriv_word,
    enumerate_lang,
    nullable,
    parse,
    render,
    star,
    union,
)
from derivrex.syntax import LETTERS

# Expressions drawn from the identity suite, its non-identity counterparts,
# and the worked derivative examples.  Together with the random terms below
# they form the corpus the agreement tests sweep over.
SUITE_TEXTS = [
    "(1+a)*", "a*", "a*(1+a)", "(1+a)+a*", "b+a*b", "a*b", "b+ba*", "ba*",
    "1+aa*", "(a+b)*", "(a*b*)*", "0a", "a0", "0", "0+a", "a+0", "a",
    "1+a*", "a(b+c)", "ab+ac", "(a+b)c", "ac+bc", "(a*+b*)*", "1a", "a1",
    "1*", "1", "a*+b*", "(ab)*", "a*b*", "ab", "ba",
    "a(a+b)*", "ab(a+b)*", "(a+b)*a", "(a+b)ab",
]

RANDOM_SEED = 1105


def random_terms(count=20, depth=4, seed=RANDOM_SEED):
    """Deterministic sample of terms over {a, b} up to the given depth."""
    rng = random.Random(seed)
    leaves = [EMPTY, EPSILON, Sym("a"), Sym("b")]

    def gen(d):
        if d == 0 or rng.random() < 0.2:
            return rng.choice(leaves)
        kind = rng.randrange(6)
        if kind == 0:
            return Union(gen(d - 1), gen(d - 1))
        if kind == 1:
            return Concat(gen(d - 1), gen(d - 1))
        if kind == 2:
            return Star(gen(d - 1))
        if kind == 3:
            return Intersect(gen(d - 1), gen(d - 1))
        if kind == 4:
            return Diff(gen(d - 1), gen(d - 1))
        return rng.choice(leaves)

    return [gen(depth) for _ in range(count)]


def product_terms(count=200, depth=5, seed=17):
    """Deterministic sample of concatenation-heavy terms over {a, b, c}.

    Products are drawn about half the time and keep the grouping they are
    drawn with, so products nest on both sides and inside one another.
    """
    rng = random.Random(seed)
    leaves = [EPSILON, Sym("a"), Sym("b"), Sym("c")]

    def gen(d):
        if d == 0 or rng.random() < 0.15:
            return rng.choice(leaves)
        r = rng.random()
        if r < 0.55:
            return Concat(gen(d - 1), gen(d - 1))
        if r < 0.75:
            return Star(gen(d - 1))
        if r < 0.9:
            return Union(gen(d - 1), gen(d - 1))
        if r < 0.95:
            return Intersect(gen(d - 1), gen(d - 1))
        return Diff(gen(d - 1), gen(d - 1))

    return [gen(depth) for _ in range(count)]


def full_corpus():
    return [parse(t) for t in SUITE_TEXTS] + random_terms()


def words_upto(k, alphabet="ab"):
    """Every word over *alphabet* of length at most *k*, shortest first."""
    words = [""]
    for n in range(1, k + 1):
        words.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
    return words


def word_regex(w):
    """The literal term whose language is exactly {w}, in canonical form."""
    node = EPSILON
    for ch in reversed(w):  # Sym refuses non-letters
        node = Sym(ch) if node is EPSILON else Concat(Sym(ch), node)
    return node


def letters(e):
    """The set of symbols occurring in a term."""
    found, seen, stack = set(), set(), [e]
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
            case Concat(l, r) | Intersect(l, r) | Diff(l, r) | Union(l, r):
                stack += (l, r)
    return frozenset(found)


def word_union_text(count=3000):
    """A union of *count* distinct 3-letter words, abc among them and zzz not.

    Parsed, it is a chain far deeper than the interpreter's recursion limit.
    Every fifth word in alphabetical order, so each first letter leads only
    a few of them.
    """
    words = ["".join(p) for p in itertools.product(string.ascii_lowercase, repeat=3)]
    return "+".join(words[3::5][:count])


def regexes(alphabet="ab", max_leaves=8):
    """Hypothesis strategy producing arbitrary (uncanonical) terms."""
    leaves = st.sampled_from([EMPTY, EPSILON] + [Sym(c) for c in alphabet])

    def compound(children):
        return st.one_of(
            st.builds(Union, children, children),
            st.builds(Concat, children, children),
            st.builds(Star, children),
            st.builds(Intersect, children, children),
            st.builds(Diff, children, children),
        )

    return st.recursive(leaves, compound, max_leaves=max_leaves)


DEEP_KINDS = ("literal", "star", "starred-group", "and", "minus", "wrapped", "plus")


@st.composite
def deep_terms(draw, kinds=DEEP_KINDS, alphabet="ab", min_depth=500, max_depth=3000):
    """Hypothesis strategy for terms far deeper than the recursion limit.

    Each level puts a letter in front (a right-nested literal), a star
    around, a group starred and followed by a letter (a left-nested
    (...)*x chain), one more operand of a & or - chain on top, a letter on
    each side (a product nested alternately on its two sides, x(...)y), or
    a letter in front of a + (a right-nested union).  The levels are drawn
    from one or more of *kinds*, so the terms mix them.
    The term is built from a seeded generator, so a draw costs a few bytes
    whatever the depth.
    """
    kinds = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3, unique=True))
    depth = draw(st.integers(min_depth, max_depth))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    node = Sym(rng.choice(alphabet))
    for _ in range(depth):
        x = Sym(rng.choice(alphabet))
        kind = rng.choice(kinds)
        if kind == "literal":
            node = Concat(x, node)
        elif kind == "star":
            node = Star(node)
        elif kind == "starred-group":
            node = Concat(Star(node), x)
        elif kind == "and":
            node = Intersect(node, Star(Union(x, Sym(rng.choice(alphabet)))))
        elif kind == "minus":
            node = Diff(node, Concat(x, x))
        elif kind == "wrapped":
            node = Concat(x, Concat(node, Sym(rng.choice(alphabet))))
        else:
            node = Union(x, node)
    return node


def term_order(a, b):
    """Three-way comparison of two terms by the sort keys they carry."""
    ka, kb = a._key, b._key
    return (ka > kb) - (ka < kb)


def delta(e):
    """1 if e is nullable, 0 otherwise."""
    return EPSILON if nullable(e) else EMPTY


def lang_equal_upto(e, f, k):
    """Do e and f agree on every word of length at most k?"""
    return enumerate_lang(e, k).words == enumerate_lang(f, k).words


def term_key(e):
    """Structural sort key computed from scratch, as a reference for term_order.

    Constructors rank 0 < 1 < symbol < star < concatenation < intersection
    < difference < union; ties compare fields left to right.
    """
    match e:
        case Empty():
            return (0,)
        case Epsilon():
            return (1,)
        case Sym(ch):
            return (2, ch)
        case Star(x):
            return (3, term_key(x))
        case Concat(l, r):
            return (4, term_key(l), term_key(r))
        case Intersect(l, r):
            return (5, term_key(l), term_key(r))
        case Diff(l, r):
            return (6, term_key(l), term_key(r))
        case Union(l, r):
            return (7, term_key(l), term_key(r))
        case _:
            raise TypeError(f"not a regex term: {e!r}")


def reference_equivalent(e, f, alphabet, max_pairs):
    """The letter-by-letter pair search, as a reference for equivalent.

    Breadth-first over pairs of derivatives, one derivative of each side
    per letter, letters in the caller's order: the first pair with
    differing nullability gives a shortest counterexample, and more than
    *max_pairs* pairs raise PairBudgetError.
    """
    alpha = tuple(dict.fromkeys(alphabet))
    first = (canonicalize(e), canonicalize(f))
    seen = {first}
    queue = deque([(first, "")])
    while queue:
        (p, q), word = queue.popleft()
        if nullable(p) != nullable(q):
            return EquivVerdict(False, word)
        for a in alpha:
            pair = (deriv_sym(a, p), deriv_sym(a, q))
            if pair not in seen:
                if len(seen) >= max_pairs:
                    raise PairBudgetError(len(seen) + 1, max_pairs)
                seen.add(pair)
                queue.append((pair, word + a))
    return EquivVerdict(True, None)


def reference_build_dfa(e, alphabet, max_states):
    """The letter-by-letter derivative closure, as a reference for build_dfa.

    States are found breadth-first, one derivative per state and letter,
    letters in the caller's order; more than *max_states* states raise
    StateBudgetError.
    """
    alpha = tuple(dict.fromkeys(alphabet))
    start = canonicalize(e)
    index = {start: 0}
    states = [start]
    rows = []
    pos = 0
    while pos < len(states):
        row = []
        for a in alpha:
            target = deriv_sym(a, states[pos])
            where = index.get(target)
            if where is None:
                if len(states) >= max_states:
                    raise StateBudgetError(len(states) + 1, max_states)
                where = len(states)
                index[target] = where
                states.append(target)
            row.append(where)
        rows.append(tuple(row))
        pos += 1
    accepting = frozenset(i for i, t in enumerate(states) if nullable(t))
    return Dfa(tuple(states), alpha, 0, accepting, tuple(rows))


def oracle_dfa(e, alphabet):
    """A total DFA for the language of *e* over *alphabet*, built without
    derivatives, nullability or canonical forms.

    The automaton of each subterm is built once, children first, on an
    explicit stack: atoms directly, ``+ & -`` as products, concatenation
    and star by subset constructions.  States are numbers, found
    breadth-first from the start 0 in alphabet order, so only reachable
    ones are kept; the result is not minimized.  It comes as a Dfa whose
    states are its own numbers.
    """
    alpha = tuple(dict.fromkeys(alphabet))
    built = {}
    stack = [e]
    while stack:
        x = stack[-1]
        match x:
            case Star(inner):
                kids = (inner,)
            case Concat(l, r) | Intersect(l, r) | Diff(l, r) | Union(l, r):
                kids = (l, r)
            case _:
                kids = ()
        todo = [k for k in kids if k not in built]
        if todo:
            stack += todo
        else:
            stack.pop()
            built[x] = _oracle_step(x, [built[k] for k in kids], alpha)
    return built[e]


_PRODUCT = {Union: or_, Intersect: and_, Diff: gt}


def _oracle_step(x, kids, alpha):
    # x's automaton from its children's, as a breadth-first closure from a
    # start key under step(key, column), with accept(key) per key.
    match x:
        case Empty():
            return _closure(alpha, None, lambda k, j: None, lambda k: False)
        case Epsilon():
            return _closure(alpha, True, lambda k, j: False, lambda k: k)
        case Sym(ch):  # keys: 0 before the letter, 1 after it, 2 dead
            return _closure(
                alpha, 0, lambda k, j: 1 if k == 0 and alpha[j] == ch else 2, lambda k: k == 1
            )
        case Star():  # keys: None at the start, then the inner states of the open runs
            (d,) = kids
            rows, acc = d.transitions, d.accepting

            def step(k, j):
                runs = frozenset(rows[t][j] for t in ({0} if k is None else k))
                return runs | {0} if runs & acc else runs

            return _closure(alpha, None, step, lambda k: k is None or bool(k & acc))
        case Concat():  # keys: the left state and the right states of the runs begun
            left, right = kids

            def begin(p):  # a right run begins where the left accepts
                return frozenset({0} if p in left.accepting else ())

            def step(k, j):
                p = left.transitions[k[0]][j]
                return p, frozenset(right.transitions[s][j] for s in k[1]) | begin(p)

            return _closure(alpha, (0, begin(0)), step, lambda k: bool(k[1] & right.accepting))
    left, right = kids
    op = _PRODUCT[type(x)]
    return _closure(
        alpha,
        (0, 0),
        lambda k, j: (left.transitions[k[0]][j], right.transitions[k[1]][j]),
        lambda k: op(k[0] in left.accepting, k[1] in right.accepting),
    )


def _closure(alpha, start, step, accept):
    index, keys, rows = {start: 0}, [start], []
    for k in keys:  # grows as new keys turn up
        row = []
        for j in range(len(alpha)):
            t = step(k, j)
            if t not in index:
                index[t] = len(keys)
                keys.append(t)
            row.append(index[t])
        rows.append(tuple(row))
    accepting = frozenset(i for i, k in enumerate(keys) if accept(k))
    return Dfa(tuple(range(len(keys))), alpha, 0, accepting, tuple(rows))


def shortest_difference(d1, d2):
    """The first word, shortest and then in alphabet order, that one of two
    DFAs over the same alphabet accepts and the other does not; None if
    their languages are equal.  A product walk, breadth-first from the two
    starts."""
    assert d1.alphabet == d2.alphabet
    first = (d1.start, d2.start)
    words = {first: ""}
    queue = deque([first])
    while queue:
        p, q = pair = queue.popleft()
        if (p in d1.accepting) != (q in d2.accepting):
            return words[pair]
        for j, a in enumerate(d1.alphabet):
            nxt = (d1.transitions[p][j], d2.transitions[q][j])
            if nxt not in words:
                words[nxt] = words[pair] + a
                queue.append(nxt)
    return None


def reference_union(*terms):
    """Canonical union by set and sort, as a reference for union.

    Every operand chain is taken apart into one set, 0 is dropped, and the
    rest is sorted by term order with 1 last and built into a chain from
    the bottom up.
    """
    args = _flat(Union, terms)
    args.discard(EMPTY)
    return _chain(Union, args) if args else EMPTY


def reference_intersect(first, *rest):
    """Canonical intersection by set and sort, as a reference for intersect."""
    args = _flat(Intersect, (first, *rest))
    return EMPTY if EMPTY in args else _chain(Intersect, args)


def _flat(cls, terms):
    # The operands of terms joined by cls: a cls node adds the operands of
    # both its sides, anything else adds itself.
    args, stack = set(), list(terms)
    while stack:
        node = stack.pop()
        if type(node) is cls:
            stack += (node.left, node.right)
        else:
            args.add(node)
    return args


def _chain(cls, args):
    # Left-nested chain of the operands in term order, 1 last.
    ordered = sorted(args - {EPSILON}, key=term_key)
    if EPSILON in args:
        ordered.append(EPSILON)
    node = ordered[0]
    for arg in ordered[1:]:
        node = cls(node, arg)
    return node


def reference_to_json(d):
    """The JSON export built as a dict and written by json.dumps, as a
    reference for to_json."""
    doc = {
        "alphabet": list(d.alphabet),
        "states": [render(state) for state in d.states],
        "start": d.start,
        "accepting": sorted(d.accepting),
        "transitions": [
            {"from": i, "symbol": a, "to": j}
            for i, row in enumerate(d.transitions)
            for a, j in zip(d.alphabet, row)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def reference_to_dot(d):
    """The Graphviz export written line by line, as a reference for to_dot."""
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        '  __start [shape=none,label=""];',
        f"  __start -> s{d.start};",
    ]
    for i, state in enumerate(d.states):
        shape = "doublecircle" if i in d.accepting else "circle"
        lines.append(f'  s{i} [shape={shape},label="{render(state)}"];')
    for i, row in enumerate(d.transitions):
        for a, j in zip(d.alphabet, row):
            lines.append(f'  s{i} -> s{j} [label="{a}"];')
    lines.append("}")
    return "\n".join(lines)


def concat_expansion(w, e, f):
    """Closed form of the word derivative of a concatenation.

    D_w(ef) equals (D_w(e))f plus, for every split w = p.s with s nonempty,
    the term delta(D_p(e)) D_s(f).  Built directly from that sum rather than
    by folding single-symbol steps, it cross-checks deriv_word.
    """
    if not w:
        raise ValueError("concat expansion is defined for nonempty words")
    e, f = canonicalize(e), canonicalize(f)
    node = concat(deriv_word(w, e), f)
    for cut in range(len(w)):
        head, tail = w[:cut], w[cut:]
        node = union(node, concat(delta(deriv_word(head, e)), deriv_word(tail, f)))
    return node


def star_expansion(w, e):
    """Closed form of the word derivative of e*.

    D_w(e*) equals (D_w(e))e* plus, for every split w = p.s with both parts
    nonempty, the term delta(D_p(e)) D_s(e*), the tail expanded recursively.
    """
    if not w:
        raise ValueError("star expansion is defined for nonempty words")
    e = canonicalize(e)
    node = concat(deriv_word(w, e), star(e))
    for cut in range(1, len(w)):
        head, tail = w[:cut], w[cut:]
        node = union(node, concat(delta(deriv_word(head, e)), star_expansion(tail, e)))
    return node


_BINDING = {Union: 0, Diff: 1, Intersect: 2, Concat: 3, Star: 4, Sym: 5, Empty: 5, Epsilon: 5}
_INFIX = {Union: "+", Diff: "-", Intersect: "&", Concat: ""}


def reference_render(e):
    """The plain recursive printer, as a reference for render.

    0, 1 and letters print as themselves.  A part goes between parentheses
    when it binds more loosely than its parent, or when it has its
    parent's class and sits on the tight side: the right of + - &, the
    left of a juxtaposition.  One frame per level of the term.
    """
    match e:
        case Empty():
            return "0"
        case Epsilon():
            return "1"
        case Sym(ch):
            return ch

    def part(x, tight):
        text = reference_render(x)
        loose = _BINDING[type(x)] < _BINDING[type(e)] or (tight and type(x) is type(e))
        return f"({text})" if loose else text

    if type(e) is Star:
        return part(e.inner, False) + "*"
    product = type(e) is Concat
    return part(e.left, product) + _INFIX[type(e)] + part(e.right, not product)


def reference_parse(text, alphabet=None):
    """The recursive-descent parser, as a reference for parse.

    One method per precedence level; the same terms, and the same errors
    at the same positions, as parse, but one frame per level of the grammar
    for every level of nesting in the text.
    """
    allowed = None if alphabet is None else frozenset(alphabet)
    parser = _Parser(text, allowed)
    node = parser.union()
    if parser.peek():
        raise ParseError(f"unexpected {parser.peek()!r}", parser.pos)
    return node


class _Parser:
    def __init__(self, text: str, allowed: frozenset[str] | None):
        self.text = text
        self.allowed = allowed
        self.pos = 0

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def union(self) -> Regex:
        node = self.diff()
        while self.peek() == "+":
            self.pos += 1
            node = Union(node, self.diff())
        return node

    def diff(self) -> Regex:
        node = self.inter()
        while self.peek() == "-":
            self.pos += 1
            node = Diff(node, self.inter())
        return node

    def inter(self) -> Regex:
        node = self.concat()
        while self.peek() == "&":
            self.pos += 1
            node = Intersect(node, self.concat())
        return node

    def concat(self) -> Regex:
        parts = [self.starred()]
        while self._at_atom():
            parts.append(self.starred())
        node = parts[-1]
        for part in reversed(parts[:-1]):  # juxtaposition nests to the right
            node = Concat(part, node)
        return node

    def starred(self) -> Regex:
        node = self.atom()
        while self.peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def atom(self) -> Regex:
        ch = self.peek()
        if ch == "0":
            self.pos += 1
            return EMPTY
        if ch == "1":
            self.pos += 1
            return EPSILON
        if ch == "(":
            self.pos += 1
            node = self.union()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        if ch in LETTERS:
            if self.allowed is not None and ch not in self.allowed:
                raise AlphabetError(
                    f"symbol {ch!r} at position {self.pos} is not in the alphabet"
                )
            self.pos += 1
            return Sym(ch)
        if not ch:
            raise ParseError("unexpected end of input", self.pos)
        raise ParseError(f"unexpected {ch!r}", self.pos)

    def _at_atom(self) -> bool:
        ch = self.peek()
        return bool(ch) and (ch in "01(" or ch in LETTERS)
