"""DFA construction by derivative closure, equivalence, and exports.

States of the automaton are canonical terms; the transition on a symbol is
the derivative.  Equivalence of two terms is a breadth-first bisimulation
over pairs of derivatives, which also yields a shortest counterexample
when the languages differ.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .derivative import _deriv, classes, nullable
from .errors import AutomatonFormatError, PairBudgetError, StateBudgetError
from .syntax import LETTERS, Regex, Word, _alphabet, canonicalize, parse, render, require_word

DEFAULT_MAX_STATES = 10_000
DEFAULT_MAX_PAIRS = 100_000


class Dfa(NamedTuple):
    """A total deterministic automaton over an ordered alphabet.

    ``transitions[i][j]`` is the state reached from state ``i`` on the
    ``j``-th alphabet symbol.  build_dfa always starts at state 0;
    from_json keeps the start its document names.
    """

    states: tuple[Regex, ...]
    alphabet: tuple[str, ...]
    start: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, ...], ...]


class EquivVerdict(NamedTuple):
    """Outcome of an equivalence check.

    When *equal* is False, *counterexample* is a shortest word on which the
    two languages disagree.
    """

    equal: bool
    counterexample: str | None = None


def build_dfa(
    e: Regex,
    alphabet: Iterable[str],
    max_states: int = DEFAULT_MAX_STATES,
) -> Dfa:
    """Close the canonical form of *e* under derivatives.

    States are discovered breadth-first, symbols in alphabet order, so the
    construction is deterministic.  Raises StateBudgetError if more than
    *max_states* states turn up.

    Over three or more letters each state takes one derivative per
    derivative class, and the other letters of a class copy the column of
    its first letter: they reach a state already found, so the numbering
    and the point where the budget runs out stay those of the
    letter-by-letter loop.
    """
    if max_states < 1:
        raise ValueError("max_states must be positive")
    alpha = _alphabet(alphabet)
    start = canonicalize(e)
    index = {start: 0}
    states = [start]
    rows = []
    maps: dict = {}  # the class maps of this build, for _class_leaders
    for state in states:  # grows as new states turn up
        leaders = _class_leaders(alpha, maps, state, state)
        row = []
        for j, a in enumerate(alpha):
            if leaders[j] < j:
                row.append(row[leaders[j]])
                continue
            target = _deriv(a, state)
            where = index.get(target)
            if where is None:
                if len(states) >= max_states:
                    raise StateBudgetError(len(states) + 1, max_states)
                where = len(states)
                index[target] = where
                states.append(target)
            row.append(where)
        rows.append(tuple(row))
    accepting = frozenset(i for i, t in enumerate(states) if nullable(t))
    return Dfa(tuple(states), alpha, 0, accepting, tuple(rows))


def dfa_accepts(d: Dfa, w: Word) -> bool:
    """Run the automaton over *w* and report acceptance.

    Raises AlphabetError, with the position, at the first symbol of *w*
    that is not in the automaton's alphabet.
    """
    columns = {a: i for i, a in enumerate(d.alphabet)}
    state = d.start
    for ch in require_word(w, columns):
        state = d.transitions[state][columns[ch]]
    return state in d.accepting


def equivalent(
    e: Regex,
    f: Regex,
    alphabet: Iterable[str],
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> EquivVerdict:
    """Decide whether *e* and *f* denote the same language.

    Breadth-first search over pairs of derivatives: a pair with differing
    nullability refutes equality, and the word that reached it is as short
    as possible (ties broken in alphabet order).  Raises PairBudgetError if
    more than *max_pairs* pairs are explored.

    Over three or more letters each pair takes one derivative per pair of
    derivative classes, not one per letter: a later letter of the same
    classes leads to the pair an earlier one reached, which is already
    seen.  The search order, and so the counterexample and the pair count,
    stay those of the letter-by-letter search.  Over two letters the class
    maps cost more than the at most one derivative per pair they save.
    """
    if max_pairs < 1:
        raise ValueError("max_pairs must be positive")
    alpha = _alphabet(alphabet)
    first = (canonicalize(e), canonicalize(f))
    seen = {first}
    queue: deque[tuple[tuple[Regex, Regex], str]] = deque([(first, "")])
    maps: dict = {}  # the class maps of this search, for _class_leaders
    while queue:
        (p, q), word = queue.popleft()
        if nullable(p) != nullable(q):
            return EquivVerdict(False, word)
        leaders = _class_leaders(alpha, maps, p, q)
        for j, a in enumerate(alpha):
            if leaders[j] < j:
                continue
            pair = (_deriv(a, p), _deriv(a, q))
            if pair not in seen:
                if len(seen) >= max_pairs:
                    raise PairBudgetError(len(seen) + 1, max_pairs)
                seen.add(pair)
                queue.append((pair, word + a))
    return EquivVerdict(True, None)


def _class_leaders(alpha: tuple, maps: dict, p: Regex, q: Regex) -> Sequence[int]:
    # For each letter, the position in alpha of the first letter in the same
    # class of p and of q, whose maps go into maps: a letter leads its class
    # when that is itself.  A state alone is the pair of it with itself.  The
    # list is kept in maps under the two maps' ids and alpha, so pairs whose
    # maps are the same objects share it; maps holds both maps, so neither id
    # is reused while it lives.  Over two letters the maps cost more than the
    # at most one derivative they save, so there every letter leads.
    if len(alpha) < 3:
        return range(len(alpha))
    cp, cq = classes(p, maps), classes(q, maps)
    leaders = maps.get(key := (id(cp), id(cq), alpha))
    if leaders is None:
        first: dict[tuple, int] = {}
        leaders = [first.setdefault((cp.get(a), cq.get(a)), j) for j, a in enumerate(alpha)]
        maps[key] = leaders
    return leaders


def to_dot(d: Dfa) -> str:
    """Graphviz source: doubled borders mark accepting states, an unlabeled
    arrow marks the start, and nodes appear in state order."""
    nodes = "".join([
        f'\n  s{i} [shape={"doublecircle" if i in d.accepting else "circle"},'
        f'label="{render(state)}"];'
        for i, state in enumerate(d.states)
    ])
    # Each line is led by its newline: over an empty alphabet the rows are
    # empty, and no blank line is left.
    edges = "".join([f'\n  s%d -> s%d [label="{a}"];' for a in d.alphabet])
    return (
        f'digraph dfa {{\n  rankdir=LR;\n  __start [shape=none,label=""];\n'
        f"  __start -> s{d.start};{nodes}{edges * len(d.states) % _moves(d)}\n}}"
    )


def to_json(d: Dfa) -> str:
    """Compact JSON document; byte-identical output for equal automata.

    The document is written directly, all transitions with one format, so
    no dict or string is built per transition.  Nothing in it needs
    escaping: symbols are lowercase letters, and render writes only
    lowercase letters and ``0 1 ( ) + - & *``, so every string is its own
    JSON text between quotes.
    """
    symbols = ",".join([f'"{a}"' for a in d.alphabet])
    states = '","'.join(map(render, d.states))
    accepting = ",".join(map(str, sorted(d.accepting)))
    # Each move ends in a comma, and the last comma is cut: over an empty
    # alphabet the rows are empty, and so is the list.
    row = "".join([f'{{"from":%d,"symbol":"{a}","to":%d}},' for a in d.alphabet])
    moves = (row * len(d.states) % _moves(d))[:-1]
    return (
        f'{{"alphabet":[{symbols}],"states":["{states}"],'
        f'"start":{d.start},"accepting":[{accepting}],"transitions":[{moves}]}}'
    )


def _moves(d: Dfa) -> tuple[int, ...]:
    # The arguments of an export's row template repeated once per state:
    # (i, j0, i, j1, ...) for each state i, flat.
    flat: list[int] = []
    for i, row in enumerate(d.transitions):
        for j in row:
            flat += (i, j)
    return tuple(flat)


def from_json(text: str) -> Dfa:
    """Rebuild an automaton from its to_json document.

    Raises AutomatonFormatError unless *text* is a JSON object with the
    fields to_json writes, its lists are JSON arrays, every index names a
    state, every symbol is in the alphabet, and there is exactly one
    transition per state and symbol.
    State texts that do not parse raise ParseError.
    """
    import json  # here, so that importing the package does not load it

    try:
        doc = json.loads(text)
        arrays = [doc[name] for name in ("alphabet", "states", "accepting", "transitions")]
        start = doc["start"]
        if not all(type(x) is list for x in arrays):  # "ab" would list a and b
            raise AutomatonFormatError("alphabet, states, accepting and transitions must be lists")
        alphabet, texts, accepting, transitions = map(tuple, arrays)
        moves = [(t["from"], t["symbol"], t["to"]) for t in transitions]
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, long ints, deep nesting
        raise AutomatonFormatError(f"not a JSON document: {exc}") from None
    except KeyError as exc:
        raise AutomatonFormatError(f"missing field {exc}") from None
    except TypeError as exc:
        raise AutomatonFormatError(f"malformed document: {exc}") from None
    if not all(type(a) is str and a in LETTERS for a in alphabet):
        raise AutomatonFormatError("the alphabet must list lowercase letters")
    if not all(type(s) is str for s in texts):
        raise AutomatonFormatError("states must be expression texts")
    columns = {a: j for j, a in enumerate(alphabet)}
    if len(columns) != len(alphabet):
        raise AutomatonFormatError("the alphabet lists a letter twice")
    states = tuple(map(parse, texts))

    def state(value: object, what: str) -> int:
        if type(value) is not int or not 0 <= value < len(states):
            raise AutomatonFormatError(f"{what} {value!r} is not a state index")
        return value

    rows: list[list[int | None]] = [[None] * len(alphabet) for _ in states]
    for source, symbol, target in moves:
        row = rows[state(source, "from")]
        column = columns.get(symbol) if type(symbol) is str else None
        if column is None:
            raise AutomatonFormatError(f"transition symbol {symbol!r} is not in the alphabet")
        if row[column] is not None:
            raise AutomatonFormatError(f"two transitions from {source} on {symbol!r}")
        row[column] = state(target, "to")
    for i, row in enumerate(rows):
        for a, j in zip(alphabet, row):
            if j is None:
                raise AutomatonFormatError(f"no transition from {i} on {a!r}")
    return Dfa(
        states,
        alphabet,
        state(start, "start"),
        frozenset(state(i, "accepting state") for i in accepting),
        tuple(map(tuple, rows)),
    )
