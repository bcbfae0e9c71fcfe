"""Corpus and strategies shared by the test modules."""

import itertools
import random
import string
from collections import deque

from hypothesis import strategies as st

from derivrex import (
    EMPTY,
    EPSILON,
    Concat,
    Dfa,
    Diff,
    Empty,
    Epsilon,
    EmptyWordError,
    EquivVerdict,
    Intersect,
    PairBudgetError,
    StateBudgetError,
    Star,
    Sym,
    Union,
    canonicalize,
    concat,
    delta,
    deriv_sym,
    deriv_word,
    nullable,
    parse,
    star,
    union,
)

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


def full_corpus():
    return [parse(t) for t in SUITE_TEXTS] + random_terms()


def words_upto(k, alphabet="ab"):
    """Every word over *alphabet* of length at most *k*, shortest first."""
    words = [""]
    for n in range(1, k + 1):
        words.extend("".join(p) for p in itertools.product(alphabet, repeat=n))
    return words


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


def concat_expansion(w, e, f):
    """Closed form of the word derivative of a concatenation.

    D_w(ef) equals (D_w(e))f plus, for every split w = p.s with s nonempty,
    the term delta(D_p(e)) D_s(f).  Built directly from that sum rather than
    by folding single-symbol steps, it cross-checks deriv_word.
    """
    if not w:
        raise EmptyWordError("concat expansion is defined for nonempty words")
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
        raise EmptyWordError("star expansion is defined for nonempty words")
    e = canonicalize(e)
    node = concat(deriv_word(w, e), star(e))
    for cut in range(1, len(w)):
        head, tail = w[:cut], w[cut:]
        node = union(node, concat(delta(deriv_word(head, e)), star_expansion(tail, e)))
    return node
