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
    _set_classes,
    _set_derivs,
    canonicalize,
    concat,
    diff,
    intersect,
    require_symbol,
    union,
)

# _deriv merges the operands' derivatives of a + or & chain in one call
# once it finds this many prefixes not yet derived; below that, each prefix
# keeps its own derivative, which a DFA's states share.
_BATCH = 16


def nullable(e: Regex) -> bool:
    """Does the language of *e* contain the empty word?"""
    return e._nullable  # worked out when the node was built


def deriv_sym(a: str, e: Regex) -> Regex:
    """The derivative of *e* by the symbol *a*, in canonical form."""
    require_symbol(a)
    return _deriv(a, canonicalize(e))


def _deriv(a: str, e: Regex) -> Regex:
    # e is canonical, so every subterm is canonical and the builders keep
    # the result canonical.  Results are kept on e, one per symbol.  Callers
    # check a first: deriv_word takes every key it finds as a valid symbol.
    memo = e._derivs
    if memo is None:
        memo = {}
        _set_derivs(e, memo)
    d = memo.get(a)
    if d is None:
        match e:
            case Union(l, r) | Intersect(l, r) | Diff(l, r):
                # A chain nests to the left and can be thousands long, so
                # derive its prefixes not yet derived by a deepest first:
                # each then finds the derivative of its left operand kept.
                cls, spine, node = type(e), [], l
                while type(node) is cls and a not in (node._derivs or ()):
                    spine.append(node)
                    node = node.left
                if len(spine) >= _BATCH and cls is not Diff:
                    # Merge all their operands' derivatives at once; only e
                    # keeps the result.  Pairwise, each one that sorts below
                    # those merged so far rebuilds the chain above it.
                    drs = [_deriv(a, x.right) for x in spine]
                    build = union if cls is Union else intersect
                    d = build(_deriv(a, node), *drs, _deriv(a, r))
                else:
                    for node in reversed(spine):
                        _deriv(a, node)
                    d, dr = _deriv(a, l), _deriv(a, r)
                    if cls is Intersect:
                        d = intersect(d, dr)
                    elif cls is Diff:
                        d = diff(d, dr)
                    # A canonical term is its own union with 0.  union would
                    # sort and look up again every operand of dr when d is 0.
                    elif d is EMPTY:
                        d = dr
                    elif dr is not EMPTY:
                        d = union(d, dr)
            case Concat(l, r):
                # The second summand, delta(l) D_a(r), is 0 unless l is nullable.
                d = concat(_deriv(a, l), r)
                if l._nullable:
                    d = union(d, _deriv(a, r))
            case Star(x):
                d = concat(_deriv(a, x), e)
            case Sym(ch):
                d = EPSILON if ch == a else EMPTY
            case _:  # 0 and 1
                d = EMPTY
        memo[a] = d
    return d


def classes(e: Regex) -> dict[str, int]:
    """The derivative classes of a canonical term, as a map from letter to id.

    Letters with one id have the same derivative, the very same object.  A
    letter absent from the map has derivative 0: the syntax has no
    complement or wildcard, so a term is blind to letters it does not
    mention.  These are the classes of Owens, Reppy & Turon (JFP 2009,
    section 4.2), except that all symbol operands of a union form one block
    before the other operands refine it, so (a+b+...+z) has a single class
    rather than 26.  The map is kept on the node.
    """
    m = e._classes
    if m is None:
        match e:
            case Sym(ch):
                m = {ch: 0}
            case Star(x):
                m = classes(x)
            case Concat(l, r):
                m = _meet(classes(l), classes(r)) if l._nullable else classes(l)
            case Intersect(l, r) | Diff(l, r):
                # A chain nests to the left and can be thousands long, so
                # take its prefixes' classes deepest first.
                cls, spine, node = type(e), [], l
                while type(node) is cls and node._classes is None:
                    spine.append(node)
                    node = node.left
                for node in reversed(spine):
                    classes(node)
                m = _meet(classes(l), classes(r))
            case Union():
                # One block for the symbol operands, refined by each distinct
                # map of the others (operands often share one map object:
                # ab, a* and a all keep a's).
                m, parts, rest = {}, {}, e
                while rest is not None:  # a canonical chain nests to the left
                    x, rest = (rest.right, rest.left) if type(rest) is Union else (rest, None)
                    if type(x) is Sym:
                        m[x.ch] = 0
                    else:
                        part = classes(x)
                        parts[id(part)] = part
                for part in parts.values():
                    m = _meet(m, part)
            case _:
                m = {}
        _set_classes(e, m)
    return m


def _meet(m1: dict[str, int], m2: dict[str, int]) -> dict[str, int]:
    # The coarsest partition refining both; absent letters count as a class.
    if not m2 or m2 is m1:
        return m1
    if not m1:
        return m2
    ids: dict[tuple, int] = {}
    return {c: ids.setdefault((m1.get(c), m2.get(c)), len(ids)) for c in m1 | m2}


def deriv_word(w: Word, e: Regex) -> Regex:
    """Fold deriv_sym over *w*, first symbol first; D_"" is canonicalization.

    The derivative tables kept on the nodes are the transitions of a lazily
    built DFA whose states are canonical terms, so each symbol is first
    looked up in the current node's table, one dict lookup once warm.  A
    miss checks the symbol and computes the derivative, which fills the
    table in.  Only checked symbols ever become keys (every caller of
    _deriv checks its symbols first), so a hit proves the symbol valid and
    a bad symbol raises the same AlphabetError whether the table is warm or
    cold.
    """
    node = canonicalize(e)
    for ch in w:
        try:
            node = node._derivs[ch]
        except (KeyError, TypeError):  # not computed yet, or no table yet
            require_symbol(ch)
            node = _deriv(ch, node)
    return node


def matches(e: Regex, w: Word) -> bool:
    """Word membership: derive by the whole word, then test nullability.

    deriv_word walks the derivative tables as a lazy DFA, so a warm term
    costs one dict lookup per symbol.
    """
    return nullable(deriv_word(w, e))
