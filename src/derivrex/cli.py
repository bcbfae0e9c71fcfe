"""Command-line interface.

    derivrex derive EXPR WORD        word derivative, plus its nullability
    derivrex match EXPR WORD         membership test (exit 0 yes, 1 no)
    derivrex dfa EXPR                DFA as Graphviz dot or JSON
    derivrex equiv EXPR EXPR         language equivalence (exit 0/1)
    derivrex enum EXPR               all words up to a length bound
    derivrex check-identities        run the built-in identity suite

Unless --alphabet is given, the alphabet is the set of letters occurring in
the expressions of the command.  Exit status 2 signals an error.
"""

from __future__ import annotations

import argparse
import sys

from .automaton import (
    DEFAULT_MAX_PAIRS, DEFAULT_MAX_STATES, build_dfa, equivalent, to_dot, to_json
)
from .derivative import deriv_word, nullable
from .errors import AlphabetError, DerivrexError
from .oracle import DEFAULT_CAP, dump_words, enumerate_lang
from .syntax import LETTERS, _alphabet, parse, render, require_word

# The identity suite: classic equational facts about regular expressions,
# each given as a chain of expressions expected to denote one language, and
# lookalikes that are *not* identities, kept here to make sure the checker
# refutes them.  The final note records a pair that commutes even though
# concatenation does not commute in general.

IDENTITIES: tuple[tuple[str, ...], ...] = (
    ("(1+a)*", "a*"),
    ("a*(1+a)", "a*"),
    ("(1+a)+a*", "a*"),
    ("b+a*b", "a*b"),
    ("b+ba*", "ba*"),
    ("1+aa*", "a*"),
    ("(a+b)*", "(a*b*)*"),
    ("0a", "a0", "0"),
    ("0+a", "a+0", "a"),
    ("1+a*", "a*"),
    ("a(b+c)", "ab+ac"),
    ("(a+b)c", "ac+bc"),
    ("(a+b)*", "(a*+b*)*", "(a*b*)*"),
    ("1a", "a1", "a"),
    ("1*", "1"),
)

NON_IDENTITIES: tuple[tuple[str, str], ...] = (
    ("(a+b)*", "a*+b*"),
    ("(ab)*", "a*b*"),
    ("ab", "ba"),
)

COMMUTING_PAIR = ("a(aa)", "(aa)a")


# Each handler takes the parsed arguments, the alphabet that main worked out
# and the terms of the command's expressions, and returns the exit status.
# main has checked the expressions and the word against the alphabet.


def cmd_derive(args: argparse.Namespace, alpha: tuple[str, ...], e) -> int:
    d = deriv_word(args.word, e)
    print(render(d))
    print(f"nullable={'true' if nullable(d) else 'false'}")
    return 0


def cmd_match(args: argparse.Namespace, alpha: tuple[str, ...], e) -> int:
    accepted = nullable(deriv_word(args.word, e))
    print("true" if accepted else "false")
    return 0 if accepted else 1


def cmd_dfa(args: argparse.Namespace, alpha: tuple[str, ...], e) -> int:
    d = build_dfa(e, _nonempty(alpha), args.max_states)
    print(to_json(d) if args.format == "json" else to_dot(d))
    return 0


def cmd_equiv(args: argparse.Namespace, alpha: tuple[str, ...], e, f) -> int:
    equal, word = equivalent(e, f, _nonempty(alpha), args.max_pairs)
    print("equal" if equal else f"unequal {word}" if word else "unequal")
    return 0 if equal else 1


def cmd_enum(args: argparse.Namespace, alpha: tuple[str, ...], e) -> int:
    sys.stdout.write(dump_words(enumerate_lang(e, args.bound, args.enum_cap)))
    return 0


def cmd_check_identities(args: argparse.Namespace, alpha: tuple[str, ...]) -> int:
    """Verify the built-in suite; exit 0 only if every line comes out as expected."""
    results: list[bool] = []

    def line(text: str, ok: bool) -> None:
        results.append(ok)
        print(text)

    def verdict(lhs: str, rhs: str):
        # Each suite line runs over its own letters unless an alphabet is declared.
        pair_alpha = alpha or _inferred_alphabet((lhs, rhs))
        e, f = parse(lhs, pair_alpha), parse(rhs, pair_alpha)
        return equivalent(e, f, pair_alpha, args.max_pairs)

    for n, chain in enumerate(IDENTITIES, start=1):
        label = f"identity {n:02d}: {' = '.join(chain)}"
        refuted = next((v for v in map(verdict, chain, chain[1:]) if not v.equal), None)
        if refuted is None:
            line(f"{label} ... pass", True)
        else:
            line(f"{label} ... FAIL (counterexample \"{refuted.counterexample}\")", False)

    for n, (lhs, rhs) in enumerate(NON_IDENTITIES, start=1):
        label = f"non-identity {n}: {lhs} vs {rhs}"
        v = verdict(lhs, rhs)
        if v.equal:
            line(f"{label} ... FAIL (reported equal)", False)
        else:
            line(f"{label} ... unequal as expected (counterexample \"{v.counterexample}\")", True)

    lhs, rhs = COMMUTING_PAIR
    if verdict(lhs, rhs).equal:
        line(f"note: {lhs} = {rhs} ... equal (distinct factors can still commute)", True)
    else:
        line(f"note: {lhs} vs {rhs} ... FAIL (expected these to be equal)", False)

    print(f"check-identities: {sum(results)}/{len(results)} checks passed")
    return 0 if all(results) else 1


def _inferred_alphabet(texts) -> tuple[str, ...]:
    # Exact for texts that parse: parse keeps every letter as a symbol.
    return tuple(sorted(LETTERS.intersection("".join(texts))))


def _nonempty(alpha: tuple[str, ...]) -> tuple[str, ...]:
    # dfa and equiv need letters; the others answer over an empty alphabet.
    if not alpha:
        raise AlphabetError("the alphabet is empty; declare one with --alphabet")
    return alpha


# ---------------------------------------------------------------------------
# argv plumbing


def _positive_int(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        message = "must be a positive integer" if least else "must be nonnegative"
        raise argparse.ArgumentTypeError(message)
    return value


def _bound_int(text: str) -> int:
    # Named, not a lambda: argparse names the type when the text is no number.
    return _positive_int(text, 0)


def _budget(default: int, text: str) -> dict:
    return dict(type=_positive_int, default=default, metavar="N", help=text)


# Each command's handler, help line and own arguments, which follow the
# --alphabet that every command takes; options are add_argument keywords by
# flag or name.  Each budget goes only to the commands that spend it.
MAX_PAIRS = _budget(DEFAULT_MAX_PAIRS, "pair budget for equivalence checking")

COMMANDS = {
    "derive": (cmd_derive, "word derivative of an expression", {"expr": {}, "word": {}}),
    "match": (cmd_match, "test whether a word matches", {"expr": {}, "word": {}}),
    "dfa": (cmd_dfa, "compile to a DFA and print it", {
        "expr": {},
        "--max-states": _budget(DEFAULT_MAX_STATES, "state budget for DFA construction"),
        "--format": dict(choices=("dot", "json"), default="dot"),
    }),
    "equiv": (cmd_equiv, "decide language equivalence",
              {"expr1": {}, "expr2": {}, "--max-pairs": MAX_PAIRS}),
    "enum": (cmd_enum, "list words up to a length bound", {
        "expr": {},
        "--enum-cap": _budget(DEFAULT_CAP, "word budget for enumeration"),
        "--bound": dict(type=_bound_int, default=6, metavar="K"),
    }),
    "check-identities": (cmd_check_identities, "run the identity suite",
                         {"--max-pairs": MAX_PAIRS}),
}


def _argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="derivrex",
        description="Derivative-based regular-expression engine.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, summary, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--alphabet", metavar="LETTERS",
                       help="symbols to work over (default: the letters of the expressions)")
        for flag, options in arguments.items():
            p.add_argument(flag, **options)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _argparser().parse_args(argv)
    texts = [getattr(args, name) for name in ("expr", "expr1", "expr2") if name in args]
    try:
        # The declared alphabet, or else the letters of the command's
        # expressions: none for check-identities, which infers per line.
        if args.alphabet is None:
            alpha = _inferred_alphabet(texts)
        elif not (alpha := _alphabet(args.alphabet)):
            raise AlphabetError("the declared alphabet is empty")
        terms = [parse(text, alpha) for text in texts]
        require_word(getattr(args, "word", ""), alpha)  # derive and match
        return COMMANDS[args.command][0](args, alpha, *terms)
    except DerivrexError as exc:
        print(f"derivrex: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, but still an error
        print(f"derivrex: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
