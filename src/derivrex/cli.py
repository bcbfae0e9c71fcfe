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
from typing import NamedTuple

from .automaton import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_STATES,
    build_dfa,
    equivalent,
    to_dot,
    to_json,
)
from .derivative import deriv_word, matches, nullable
from .errors import AlphabetError, DerivrexError
from .oracle import DEFAULT_CAP, dump_words, enumerate_lang
from .syntax import letters, parse, render, require_symbol


class SessionConfig(NamedTuple):
    """Settings shared by the subcommands."""

    alphabet: tuple[str, ...]
    max_states: int = DEFAULT_MAX_STATES
    max_pairs: int = DEFAULT_MAX_PAIRS
    enum_cap: int = DEFAULT_CAP
    output_format: str = "text"


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


def cmd_derive(expr: str, word: str, config: SessionConfig) -> int:
    e = parse(expr, config.alphabet)
    _check_word(word, config.alphabet)
    d = deriv_word(word, e)
    print(render(d))
    print(f"nullable={'true' if nullable(d) else 'false'}")
    return 0


def cmd_match(expr: str, word: str, config: SessionConfig) -> int:
    e = parse(expr, config.alphabet)
    _check_word(word, config.alphabet)
    accepted = matches(e, word)
    print("true" if accepted else "false")
    return 0 if accepted else 1


def cmd_dfa(expr: str, config: SessionConfig) -> int:
    _require_alphabet(config)
    e = parse(expr, config.alphabet)
    d = build_dfa(e, config.alphabet, config.max_states)
    print(to_json(d) if config.output_format == "json" else to_dot(d))
    return 0


def cmd_equiv(expr1: str, expr2: str, config: SessionConfig) -> int:
    _require_alphabet(config)
    e = parse(expr1, config.alphabet)
    f = parse(expr2, config.alphabet)
    verdict = equivalent(e, f, config.alphabet, config.max_pairs)
    if verdict.equal:
        print("equal")
        return 0
    word = verdict.counterexample
    print(f"unequal {word}" if word else "unequal")
    return 1


def cmd_enum(expr: str, k: int, config: SessionConfig) -> int:
    e = parse(expr, config.alphabet)
    sys.stdout.write(dump_words(enumerate_lang(e, k, config.enum_cap)))
    return 0


def cmd_check_identities(config: SessionConfig) -> int:
    """Verify the built-in suite; exit 0 only if every line comes out as expected."""
    failed = 0
    total = 0

    def line(text: str, ok: bool) -> None:
        nonlocal failed, total
        total += 1
        if not ok:
            failed += 1
        print(text)

    for n, chain in enumerate(IDENTITIES, start=1):
        ok, witness = _chain_equal(chain, config)
        label = f"identity {n:02d}: {' = '.join(chain)}"
        if ok:
            line(f"{label} ... pass", True)
        else:
            line(f"{label} ... FAIL (counterexample \"{witness}\")", False)

    for n, (lhs, rhs) in enumerate(NON_IDENTITIES, start=1):
        verdict = _equiv_line((lhs, rhs), config)
        label = f"non-identity {n}: {lhs} vs {rhs}"
        if verdict.equal:
            line(f"{label} ... FAIL (reported equal)", False)
        else:
            line(
                f"{label} ... unequal as expected "
                f"(counterexample \"{verdict.counterexample}\")",
                True,
            )

    lhs, rhs = COMMUTING_PAIR
    verdict = _equiv_line(COMMUTING_PAIR, config)
    if verdict.equal:
        line(f"note: {lhs} = {rhs} ... equal (distinct factors can still commute)", True)
    else:
        line(f"note: {lhs} vs {rhs} ... FAIL (expected these to be equal)", False)

    print(f"check-identities: {total - failed}/{total} checks passed")
    return 0 if failed == 0 else 1


def _chain_equal(chain: tuple[str, ...], config: SessionConfig):
    for lhs, rhs in zip(chain, chain[1:]):
        verdict = _equiv_line((lhs, rhs), config)
        if not verdict.equal:
            return False, verdict.counterexample
    return True, None


def _equiv_line(pair: tuple[str, str], config: SessionConfig):
    # Each suite line runs over its own letters unless an alphabet was
    # declared for the whole session.
    alpha = config.alphabet or _inferred_alphabet(pair)
    terms = [parse(t, alpha) for t in pair]
    return equivalent(terms[0], terms[1], alpha, config.max_pairs)


def _inferred_alphabet(texts) -> tuple[str, ...]:
    found: set[str] = set()
    for text in texts:
        found |= letters(parse(text))
    return tuple(sorted(found))


def _check_word(word: str, alphabet: tuple[str, ...]) -> None:
    for i, ch in enumerate(word):
        if ch not in alphabet:
            raise AlphabetError(
                f"word symbol {ch!r} at position {i} is not in the alphabet"
            )


def _require_alphabet(config: SessionConfig) -> None:
    if not config.alphabet:
        raise AlphabetError(
            "the alphabet is empty; declare one with --alphabet"
        )


# ---------------------------------------------------------------------------
# argv plumbing


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _bound_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _argparser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alphabet",
        metavar="LETTERS",
        help="symbols to work over (default: the letters of the expressions)",
    )
    common.add_argument(
        "--max-states",
        type=_positive_int,
        default=DEFAULT_MAX_STATES,
        metavar="N",
        help="state budget for DFA construction",
    )
    common.add_argument(
        "--max-pairs",
        type=_positive_int,
        default=DEFAULT_MAX_PAIRS,
        metavar="N",
        help="pair budget for equivalence checking",
    )
    common.add_argument(
        "--enum-cap",
        type=_positive_int,
        default=DEFAULT_CAP,
        metavar="N",
        help="word budget for enumeration",
    )

    ap = argparse.ArgumentParser(
        prog="derivrex",
        description="Derivative-based regular-expression engine.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("derive", parents=[common], help="word derivative of an expression")
    p.add_argument("expr")
    p.add_argument("word")
    p.set_defaults(handler=_run_derive)

    p = sub.add_parser("match", parents=[common], help="test whether a word matches")
    p.add_argument("expr")
    p.add_argument("word")
    p.set_defaults(handler=_run_match)

    p = sub.add_parser("dfa", parents=[common], help="compile to a DFA and print it")
    p.add_argument("expr")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(handler=_run_dfa)

    p = sub.add_parser("equiv", parents=[common], help="decide language equivalence")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(handler=_run_equiv)

    p = sub.add_parser("enum", parents=[common], help="list words up to a length bound")
    p.add_argument("expr")
    p.add_argument("--bound", type=_bound_int, default=6, metavar="K")
    p.set_defaults(handler=_run_enum)

    p = sub.add_parser("check-identities", parents=[common], help="run the identity suite")
    p.set_defaults(handler=_run_check_identities)

    return ap


def _make_config(args: argparse.Namespace, texts, output_format: str = "text") -> SessionConfig:
    if args.alphabet is not None:
        symbols = tuple(dict.fromkeys(args.alphabet))
        for ch in symbols:
            require_symbol(ch)
        if not symbols:
            raise AlphabetError("the declared alphabet is empty")
    else:
        symbols = _inferred_alphabet(texts)
    return SessionConfig(
        alphabet=symbols,
        max_states=args.max_states,
        max_pairs=args.max_pairs,
        enum_cap=args.enum_cap,
        output_format=output_format,
    )


def _run_derive(args):
    return cmd_derive(args.expr, args.word, _make_config(args, [args.expr]))


def _run_match(args):
    return cmd_match(args.expr, args.word, _make_config(args, [args.expr]))


def _run_dfa(args):
    return cmd_dfa(args.expr, _make_config(args, [args.expr], output_format=args.format))


def _run_equiv(args):
    return cmd_equiv(args.expr1, args.expr2, _make_config(args, [args.expr1, args.expr2]))


def _run_enum(args):
    return cmd_enum(args.expr, args.bound, _make_config(args, [args.expr]))


def _run_check_identities(args):
    # No expressions of its own: infer per suite line unless one is declared.
    if args.alphabet is not None:
        config = _make_config(args, [])
    else:
        config = SessionConfig(
            alphabet=(),
            max_states=args.max_states,
            max_pairs=args.max_pairs,
            enum_cap=args.enum_cap,
        )
    return cmd_check_identities(config)


def main(argv: list[str] | None = None) -> int:
    args = _argparser().parse_args(argv)
    try:
        return args.handler(args)
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
