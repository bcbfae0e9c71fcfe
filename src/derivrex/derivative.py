"""Nullability and word derivatives.

The derivative of a language L by a symbol a is {w : aw in L}.  Everything
else in the engine reduces to computing derivatives of terms and asking
whether the result accepts the empty word.
"""

from __future__ import annotations

from .syntax import (
    EMPTY,
    EPSILON,
    Concat,
    Diff,
    Intersect,
    Regex,
    Star,
    Sym,
    Union,
    Word,
    _BUILD,
    _bottom_up,
    canonicalize,
    concat,
    require_symbol,
    union,
)

# _deriv merges the operands' derivatives of a + or & chain in one call
# once it finds this many prefixes not yet derived, and only the top keeps
# the result; below that, each prefix keeps its own derivative, which a
# DFA's states share.  A - chain is not a set of operands, so it stays
# pairwise.
_BATCH = 16


def nullable(e: Regex) -> bool:
    """Does the language of *e* contain the empty word?"""
    return e._nullable  # worked out when the node was built


def deriv_sym(a: str, e: Regex) -> Regex:
    """The derivative of *e* by the symbol *a*, in canonical form."""
    return _deriv(a, canonicalize(e))


def _deriv(a: str, e: Regex) -> Regex:
    # e is canonical, so every subterm is canonical and the builders keep
    # the result canonical.  Results are kept on e, one per symbol.  a is
    # checked on a miss, before it becomes a key, so every string key is a
    # letter; the other keys are the terms _merge put under a + or & chain.
    return e._derivs.get(a) or _bottom_up(e, _deriv_step, require_symbol(a))


def _deriv_step(e: Regex, a: str) -> Regex | list[Regex]:
    # The _bottom_up step of _deriv: e's derivative by a from its
    # children's, or the children not yet derived by a.
    cls, kids, dr = type(e), (), None
    try:
        if cls is Union or cls is Intersect or cls is Diff:
            # Count the chain's prefixes not yet derived (see _BATCH); a -
            # chain is never batched, so it is not counted.  Merged pairwise,
            # each operand's derivative that sorts below those merged so far
            # rebuilds the chain above it.
            kids, node = [], None if cls is Diff else e.left
            while type(node) is cls and a not in node._derivs:
                kids.append(node.right)
                node = node.left
            if len(kids) >= _BATCH:
                kids = [node, *kids, e.right]
                d = _BUILD[cls](*[x._derivs[a] for x in kids])
            else:
                kids = (e.left, e.right)
                d, dr = e.left._derivs[a], e.right._derivs[a]
                if cls is not Union:
                    d, dr = _BUILD[cls](d, dr), None
        elif cls is Concat:  # delta(l) D_a(r) is 0 unless l is nullable
            kids = (e.left, e.right) if e.left._nullable else (e.left,)
            dr = e.right._derivs[a] if e.left._nullable else EMPTY
            d = concat(e.left._derivs[a], e.right)
        elif cls is Star:
            kids = (e.inner,)
            d = concat(e.inner._derivs[a], e)
        else:
            d = EPSILON if cls is Sym and e.ch == a else EMPTY
    except KeyError:  # a child not derived by a yet
        todo = [x for x in kids if a not in x._derivs]
        if todo:
            return todo
        raise
    if dr is not None:
        # A canonical term is its own union with 0, which union would take
        # apart and sort.
        d = dr if d is EMPTY else d if dr is EMPTY else union(d, dr)
    e._derivs[a] = d
    return d


def classes(e: Regex, memo: dict | None = None) -> dict[str, int]:
    """The derivative classes of a canonical term, as a map from letter to id.

    Letters with one id have the same derivative, the very same object.  A
    letter absent from the map has derivative 0: the syntax has no
    complement or wildcard, so a term is blind to letters it does not
    mention.  These are the classes of Owens, Reppy & Turon (JFP 2009,
    section 4.2), except that all symbol operands of a union form one block
    before the other operands refine it, so (a+b+...+z) has a single class
    rather than 26.  No node keeps a map: the maps of e and its parts go
    into *memo*, which the caller owns, or into a fresh dict if none is given.
    The meets that make them, and the symbol blocks of unions, go there too,
    so that within one memo two maps are met once, and terms whose parts
    share maps share the very same map.
    """
    memo = {} if memo is None else memo
    m = memo.get(e)  # the map of 1 is {}, so any map at all is a hit
    return m if m is not None else _bottom_up(e, _classes_step, memo)


def _classes_step(e: Regex, memo: dict) -> dict[str, int] | list[Regex]:
    # The _bottom_up step of classes: the meet of the children's maps, or
    # the children not yet in memo.  A union's symbol operands form one
    # block before the others refine it.
    cls = type(e)
    m = {e.ch: 0} if cls is Sym else {}
    if cls is Union:
        kids, rest = [], e
        while rest is not None:  # a canonical chain nests to the left
            x, rest = (rest.right, rest.left) if type(rest) is Union else (rest, None)
            if type(x) is Sym:
                m[x.ch] = 0
            else:
                kids.append(x)
    elif cls is Concat:
        kids = (e.left, e.right) if e.left._nullable else (e.left,)
    else:
        kids = (e.inner,) if cls is Star else (e.left, e.right) if cls in _BUILD else ()
    todo = [x for x in kids if x not in memo]
    if todo:
        return todo
    if cls is Union and m:
        # Unions with the same symbol operands share one block map, so that
        # their meets repeat: a canonical chain lists its letters in one order.
        m = memo.setdefault(tuple(m), m)
    # Operands often share one map object: ab, a* and a all have a's.
    for part in {id(p): p for p in map(memo.__getitem__, kids)}.values():
        m = _meet(m, part, memo)
    memo[e] = m
    return m


def _meet(m1: dict[str, int], m2: dict[str, int], memo: dict) -> dict[str, int]:
    # The coarsest partition refining both; absent letters count as a class.
    # Kept in the class memo under the maps' ids, with the maps, so that
    # neither id is reused while the memo lives: a repeat returns the same map.
    if not m2 or m2 is m1:
        return m1
    if not m1:
        return m2
    kept = memo.get(key := (id(m1), id(m2)))
    if kept is None:
        ids: dict[tuple, int] = {}
        m = {c: ids.setdefault((m1.get(c), m2.get(c)), len(ids)) for c in m1 | m2}
        kept = memo[key] = (m1, m2, m)
    return kept[2]


def deriv_word(w: Word, e: Regex) -> Regex:
    """Fold deriv_sym over *w*, first symbol first; D_"" is canonicalization.

    The derivative tables kept on the nodes are the transitions of a lazily
    built DFA whose states are canonical terms, so each symbol is first
    looked up in the current node's table, which every node has from
    birth: one dict lookup once warm.  A miss computes the derivative,
    which fills the table in.  _deriv checks each symbol before it becomes
    a key, so a hit proves the symbol valid and a bad symbol raises the
    same AlphabetError whether the table is warm or cold.  The table of a + or & chain also keeps, keyed by terms,
    the chains that union and intersect built with those terms under it;
    a string never equals a term, so a symbol never finds them.
    """
    node = canonicalize(e)
    for ch in w:
        try:
            node = node._derivs[ch]
        except KeyError:  # not computed yet
            node = _deriv(ch, node)
    return node


def matches(e: Regex, w: Word) -> bool:
    """Word membership: derive by the whole word, then test nullability.

    deriv_word walks the derivative tables as a lazy DFA, so a warm term
    costs one dict lookup per symbol.
    """
    return nullable(deriv_word(w, e))
