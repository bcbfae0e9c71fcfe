"""Exit codes, output bytes, and error reporting of the command line."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import derivrex.cli
import helpers
from derivrex.automaton import DEFAULT_MAX_PAIRS, DEFAULT_MAX_STATES
from derivrex.cli import _argparser, _inferred_alphabet, main
from derivrex.oracle import DEFAULT_CAP
from derivrex.syntax import parse, render

SRC = Path(__file__).resolve().parent.parent / "src"

GOLDEN_EMPTY_JSON = (
    '{"alphabet":["a","b"],"states":["0"],"start":0,"accepting":[],'
    '"transitions":[{"from":0,"symbol":"a","to":0},{"from":0,"symbol":"b","to":0}]}'
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDerive:
    def test_prints_derivative_and_nullability(self, capsys):
        code, out, _ = run(capsys, "derive", "a(a+b)*", "a")
        assert code == 0
        assert out == "(a+b)*\nnullable=true\n"

    def test_dead_end(self, capsys):
        code, out, _ = run(capsys, "derive", "ab", "b")
        assert code == 0
        assert out == "0\nnullable=false\n"

    def test_empty_word_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "derive", "a+a+0", "")
        assert code == 0
        assert out.splitlines()[0] == "a"

    def test_word_symbol_outside_alphabet(self, capsys):
        code, out, err = run(capsys, "derive", "a*", "ax")
        assert code == 2
        assert "position 1" in err

    def test_parse_error_reports_position(self, capsys):
        code, _, err = run(capsys, "derive", "a+*", "a")
        assert code == 2
        assert "position 2" in err


class TestMatch:
    @pytest.mark.parametrize(
        "expr,word,code,text",
        [
            ("a(a+b)*", "abba", 0, "true"),
            ("a(a+b)*", "", 1, "false"),
            ("(a+b)*a", "ba", 0, "true"),
            ("ab", "ba", 1, "false"),
        ],
    )
    def test_verdicts(self, capsys, expr, word, code, text):
        got, out, _ = run(capsys, "match", expr, word)
        assert got == code
        assert out == text + "\n"


class TestDfa:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "dfa", "(a+b)*a")
        assert code == 0
        assert out.startswith("digraph")
        assert 'label="(a+b)*a+1"' in out

    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "dfa", "0", "--format", "json", "--alphabet", "ab")
        assert code == 0
        assert out == GOLDEN_EMPTY_JSON + "\n"

    def test_runs_are_byte_identical(self, capsys):
        first = run(capsys, "dfa", "a(a+b)*", "--format", "dot")
        second = run(capsys, "dfa", "a(a+b)*", "--format", "dot")
        assert first == second

    def test_empty_alphabet_is_an_error(self, capsys):
        code, _, err = run(capsys, "dfa", "0")
        assert code == 2
        assert "alphabet" in err

    def test_state_budget_exceeded(self, capsys):
        code, _, err = run(capsys, "dfa", "a(a+b)*", "--max-states", "2")
        assert code == 2
        assert "budget" in err


class TestEquiv:
    def test_equal(self, capsys):
        code, out, _ = run(capsys, "equiv", "a*", "1+aa*")
        assert (code, out) == (0, "equal\n")

    def test_unequal_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "equiv", "(a+b)*", "a*+b*")
        assert (code, out) == (1, "unequal ab\n")

    def test_alphabet_widening_changes_nothing_here(self, capsys):
        code, out, _ = run(capsys, "equiv", "(1+a)*", "a*", "--alphabet", "ab")
        assert (code, out) == (0, "equal\n")


class TestEnum:
    def test_words_one_per_line(self, capsys):
        code, out, _ = run(capsys, "enum", "(ab)*", "--bound", "4")
        assert code == 0
        assert out == "\nab\nabab\n"

    def test_empty_language_prints_nothing(self, capsys):
        code, out, _ = run(capsys, "enum", "0", "--bound", "3")
        assert (code, out) == (0, "")

    def test_budget(self, capsys):
        code, _, err = run(capsys, "enum", "(a+b)*", "--bound", "12", "--enum-cap", "50")
        assert code == 2
        assert "budget" in err


class TestCheckIdentities:
    def test_all_pass_and_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check-identities")
        assert code == 0
        lines = out.splitlines()
        assert "1+a* = a* ... pass" in out
        assert "(ab)* vs a*b* ... unequal as expected" in out
        assert 'counterexample "a"' in out
        assert any(line.startswith("note:") and "equal" in line for line in lines)
        assert lines[-1] == "check-identities: 19/19 checks passed"

    def test_a_wrong_row_fails_and_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(derivrex.cli, "IDENTITIES", (("a", "a+b"),))
        monkeypatch.setattr(derivrex.cli, "NON_IDENTITIES", (("a+b", "b+a"),))
        monkeypatch.setattr(derivrex.cli, "COMMUTING_PAIR", ("ab", "ba"))
        code, out, _ = run(capsys, "check-identities")
        assert code == 1
        assert out == (
            'identity 01: a = a+b ... FAIL (counterexample "b")\n'
            "non-identity 1: a+b vs b+a ... FAIL (reported equal)\n"
            "note: ab vs ba ... FAIL (expected these to be equal)\n"
            "check-identities: 0/3 checks passed\n"
        )

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "check-identities")
        second = run(capsys, "check-identities")
        assert first == second


class TestBackstop:
    def test_deep_nesting_is_an_error_not_a_traceback(self, capsys, monkeypatch):
        # A fault that is not a DerivrexError still ends as one error line.
        def broken(*args):
            raise RuntimeError("enumerator fault")

        monkeypatch.setattr(derivrex.cli, "enumerate_lang", broken)
        code, out, err = run(capsys, "enum", "a", "--bound", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("derivrex: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,out",
        [
            (["match", "(" * 170 + "a" + ")" * 170, "a"], "true\n"),
            (["match", "(" * 5000 + "a" + ")" * 5000, "a"], "true\n"),
            (["match", "(" * 300 + "a" + ")*" * 300, "aa"], "true\n"),
            (["match", "a" * 1200, "a" * 1200], "true\n"),
            (["enum", "a" * 1200, "--bound", "1"], ""),
        ],
        ids=["170-groups", "5000-groups", "300-starred-groups", "1200-letters", "1200-letters-enum"],
    )
    def test_deep_nesting_gets_an_answer(self, capsys, argv, out):
        assert run(capsys, *argv) == (0, out, "")

    def test_long_literal_matches_itself(self, capsys):
        word = "a" * 400
        assert run(capsys, "match", word, word) == (0, "true\n", "")

    def test_wide_union_matches_without_alphabet(self, capsys):
        expr = "+".join("ab"[i % 2] for i in range(3000))
        assert run(capsys, "match", expr, "a") == (0, "true\n", "")

    def test_wide_union_of_distinct_words_matches(self, capsys):
        assert run(capsys, "match", helpers.word_union_text(), "abc") == (0, "true\n", "")


def python(*args):
    """Run a fresh interpreter with the package from this checkout on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_import_leaves_dataclasses_out():
    done = python("-c", "import sys, derivrex.cli; print('dataclasses' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_import_leaves_json_and_string_out():
    # Together they took about 3 ms of every CLI process.
    done = python("-c", "import sys, derivrex.cli; print(sorted({'json', 'string'} & sys.modules.keys()))")
    assert (done.returncode, done.stdout) == (0, "[]\n")


@pytest.mark.parametrize(
    "argv,code,out",
    [(["match", "a", "a"], 0, "true\n"), (["match", "a", ""], 1, "false\n"), (["dfa", "0"], 2, "")],
)
def test_process_exit_status(argv, code, out):
    done = python("-m", "derivrex.cli", *argv)
    assert (done.returncode, done.stdout) == (code, out)
    if code == 2:
        assert done.stderr.startswith("derivrex: error: ")
        assert done.stderr.count("\n") == 1
    else:
        assert done.stderr == ""


# The budget each command spends, with its library default.
BUDGETS = {
    "derive": {},
    "match": {},
    "dfa": {"max_states": DEFAULT_MAX_STATES},
    "equiv": {"max_pairs": DEFAULT_MAX_PAIRS},
    "enum": {"enum_cap": DEFAULT_CAP},
    "check-identities": {"max_pairs": DEFAULT_MAX_PAIRS},
}


@pytest.mark.parametrize(
    "argv",
    [["derive", "a", "a"], ["match", "a", "a"], ["dfa", "a"], ["equiv", "a", "a"], ["enum", "a"],
     ["check-identities"]],
)
def test_budgets_default_to_the_library_defaults(argv):
    args = vars(_argparser().parse_args(argv))
    own = BUDGETS[argv[0]]
    assert {name: args[name] for name in own} == own
    assert not ({"max_states", "max_pairs", "enum_cap"} - own.keys()) & args.keys()


@pytest.mark.parametrize(
    "argv,parses",
    [(["derive", "a", "a"], 1), (["match", "a", "a"], 1), (["dfa", "a"], 1), (["enum", "a"], 1),
     (["equiv", "a", "a"], 2), (["check-identities"], 46),
     (["check-identities", "--alphabet", "abc"], 46)],
)
def test_each_expression_is_parsed_once(monkeypatch, capsys, argv, parses):
    calls = []

    def counted(*args):
        calls.append(args)
        return parse(*args)

    monkeypatch.setattr(derivrex.cli, "parse", counted)
    assert main(argv) == 0
    assert len(calls) == parses


# main infers the alphabet from the texts without parsing them: every letter
# of a text that parses is a symbol of its term.
@given(helpers.regexes("abcz"), st.lists(st.integers(min_value=0), max_size=8))
def test_inferred_alphabet_is_the_letters_of_the_term(e, spaces):
    text = render(e)
    for i in spaces:
        i %= len(text) + 1
        text = text[:i] + " " + text[i:]
    assert _inferred_alphabet([text]) == tuple(sorted(helpers.letters(parse(text))))


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# The contract of the command line: exit status, stdout and stderr of main
# for each argv, recorded byte for byte.  Usage and error lines that come
# from argparse itself are those of Python 3.11, with COLUMNS=80.
GOLDEN = [
    (["derive", "a(a+b)*", "a"], 0, "(a+b)*\nnullable=true\n", ""),
    (["derive", "ab", "b"], 0, "0\nnullable=false\n", ""),
    (["derive", "a+a+0", ""], 0, "a\nnullable=false\n", ""),
    (["derive", "(a+b)*a", "ba"], 0, "(a+b)*a+1\nnullable=true\n", ""),
    (["derive", "ab", "a", "--alphabet", "abc"], 0, "b\nnullable=false\n", ""),
    (["derive", "a-b", "b"], 0, "0\nnullable=false\n", ""),
    (["derive", "(ab)*c", "a"], 0, "(b(ab)*)c\nnullable=false\n", ""),
    (
        ["derive", "ab", "a", "--alphabet", "a"],
        2,
        "",
        "derivrex: error: symbol 'b' at position 1 is not in the alphabet\n",
    ),
    (
        ["derive", "a*", "ax"],
        2,
        "",
        "derivrex: error: word symbol 'x' at position 1 is not in the alphabet\n",
    ),
    (["derive", "a+*", "a"], 2, "", "derivrex: error: unexpected '*' at position 2\n"),
    (
        ["derive", "a", "a", "--enum-cap", "1"],
        2,
        "",
        "usage: derivrex [-h] COMMAND ...\nderivrex: error: unrecognized arguments: --enum-cap 1\n",
    ),
    (["match", "a", "a"], 0, "true\n", ""),
    (["match", "a", ""], 1, "false\n", ""),
    (["match", "a(a+b)*", "abba"], 0, "true\n", ""),
    (["match", "ab", "ba"], 1, "false\n", ""),
    (["match", "a&b", ""], 1, "false\n", ""),
    (["match", "a*", "aab", "--alphabet", "aab"], 1, "false\n", ""),
    (
        ["match", "a", "b"],
        2,
        "",
        "derivrex: error: word symbol 'b' at position 0 is not in the alphabet\n",
    ),
    (["match", "a", "b", "--alphabet", "ab"], 1, "false\n", ""),
    (
        ["match", "a", "a", "--alphabet", ""],
        2,
        "",
        "derivrex: error: the declared alphabet is empty\n",
    ),
    (
        ["match", "a", "a", "--alphabet", "aB"],
        2,
        "",
        "derivrex: error: 'B' is not a single lowercase letter\n",
    ),
    (["match", "(a", "a"], 2, "", "derivrex: error: expected ')' at position 2\n"),
    (
        ["match", "a", "a", "--max-pairs", "1"],
        2,
        "",
        "usage: derivrex [-h] COMMAND ...\nderivrex: error: unrecognized arguments: --max-pairs 1\n",
    ),
    (
        ["dfa", "a(a+b)*"],
        0,
        (
            "digraph dfa {\n"
            "  rankdir=LR;\n"
            "  __start [shape=none,label=\"\"];\n"
            "  __start -> s0;\n"
            "  s0 [shape=circle,label=\"a(a+b)*\"];\n"
            "  s1 [shape=doublecircle,label=\"(a+b)*\"];\n"
            "  s2 [shape=circle,label=\"0\"];\n"
            "  s0 -> s1 [label=\"a\"];\n"
            "  s0 -> s2 [label=\"b\"];\n"
            "  s1 -> s1 [label=\"a\"];\n"
            "  s1 -> s1 [label=\"b\"];\n"
            "  s2 -> s2 [label=\"a\"];\n"
            "  s2 -> s2 [label=\"b\"];\n"
            "}\n"
        ),
        "",
    ),
    (
        ["dfa", "a(a+b)*", "--format", "json"],
        0,
        "{\"alphabet\":[\"a\",\"b\"],\"states\":[\"a(a+b)*\",\"(a+b)*\",\"0\"],\"start\":0,\"accepting\":[1],\"transitions\":[{\"from\":0,\"symbol\":\"a\",\"to\":1},{\"from\":0,\"symbol\":\"b\",\"to\":2},{\"from\":1,\"symbol\":\"a\",\"to\":1},{\"from\":1,\"symbol\":\"b\",\"to\":1},{\"from\":2,\"symbol\":\"a\",\"to\":2},{\"from\":2,\"symbol\":\"b\",\"to\":2}]}\n",
        "",
    ),
    (
        ["dfa", "(a+b)*a", "--alphabet", "ba", "--format", "json"],
        0,
        "{\"alphabet\":[\"b\",\"a\"],\"states\":[\"(a+b)*a\",\"(a+b)*a+1\"],\"start\":0,\"accepting\":[1],\"transitions\":[{\"from\":0,\"symbol\":\"b\",\"to\":0},{\"from\":0,\"symbol\":\"a\",\"to\":1},{\"from\":1,\"symbol\":\"b\",\"to\":0},{\"from\":1,\"symbol\":\"a\",\"to\":1}]}\n",
        "",
    ),
    (
        ["dfa", "a-b", "--format", "json"],
        0,
        "{\"alphabet\":[\"a\",\"b\"],\"states\":[\"a-b\",\"1\",\"0\"],\"start\":0,\"accepting\":[1],\"transitions\":[{\"from\":0,\"symbol\":\"a\",\"to\":1},{\"from\":0,\"symbol\":\"b\",\"to\":2},{\"from\":1,\"symbol\":\"a\",\"to\":2},{\"from\":1,\"symbol\":\"b\",\"to\":2},{\"from\":2,\"symbol\":\"a\",\"to\":2},{\"from\":2,\"symbol\":\"b\",\"to\":2}]}\n",
        "",
    ),
    (["dfa", "0"], 2, "", "derivrex: error: the alphabet is empty; declare one with --alphabet\n"),
    (["dfa", "0+"], 2, "", "derivrex: error: unexpected end of input at position 2\n"),
    (
        ["dfa", "0", "--alphabet", "ab", "--format", "json"],
        0,
        "{\"alphabet\":[\"a\",\"b\"],\"states\":[\"0\"],\"start\":0,\"accepting\":[],\"transitions\":[{\"from\":0,\"symbol\":\"a\",\"to\":0},{\"from\":0,\"symbol\":\"b\",\"to\":0}]}\n",
        "",
    ),
    (
        ["dfa", "a", "--alphabet", "aab", "--format", "json"],
        0,
        "{\"alphabet\":[\"a\",\"b\"],\"states\":[\"a\",\"1\",\"0\"],\"start\":0,\"accepting\":[1],\"transitions\":[{\"from\":0,\"symbol\":\"a\",\"to\":1},{\"from\":0,\"symbol\":\"b\",\"to\":2},{\"from\":1,\"symbol\":\"a\",\"to\":2},{\"from\":1,\"symbol\":\"b\",\"to\":2},{\"from\":2,\"symbol\":\"a\",\"to\":2},{\"from\":2,\"symbol\":\"b\",\"to\":2}]}\n",
        "",
    ),
    (
        ["dfa", "a(a+b)*", "--max-states", "1"],
        2,
        "",
        "derivrex: error: derivative closure exceeded the 1-state budget (2 states discovered)\n",
    ),
    (
        ["dfa", "a(a+b)*", "--max-states", "2"],
        2,
        "",
        "derivrex: error: derivative closure exceeded the 2-state budget (3 states discovered)\n",
    ),
    (["dfa", "a", "--alphabet", ""], 2, "", "derivrex: error: the declared alphabet is empty\n"),
    (
        ["dfa", "a", "--alphabet", "aB"],
        2,
        "",
        "derivrex: error: 'B' is not a single lowercase letter\n",
    ),
    (
        ["dfa", "ab", "--alphabet", "a"],
        2,
        "",
        "derivrex: error: symbol 'b' at position 1 is not in the alphabet\n",
    ),
    (
        ["dfa", "a", "--format", "xml"],
        2,
        "",
        (
            "usage: derivrex dfa [-h] [--alphabet LETTERS] [--max-states N]\n"
            "                    [--format {dot,json}]\n"
            "                    expr\n"
            "derivrex dfa: error: argument --format: invalid choice: 'xml' (choose from 'dot', 'json')\n"
        ),
    ),
    (
        ["dfa", "a", "--max-states", "0"],
        2,
        "",
        (
            "usage: derivrex dfa [-h] [--alphabet LETTERS] [--max-states N]\n"
            "                    [--format {dot,json}]\n"
            "                    expr\n"
            "derivrex dfa: error: argument --max-states: must be a positive integer\n"
        ),
    ),
    (
        ["dfa", "a", "--max-states", "x"],
        2,
        "",
        (
            "usage: derivrex dfa [-h] [--alphabet LETTERS] [--max-states N]\n"
            "                    [--format {dot,json}]\n"
            "                    expr\n"
            "derivrex dfa: error: argument --max-states: invalid _positive_int value: 'x'\n"
        ),
    ),
    (["equiv", "a*", "1+aa*"], 0, "equal\n", ""),
    (["equiv", "(a+b)*", "a*+b*"], 1, "unequal ab\n", ""),
    (["equiv", "(1+a)*", "a*", "--alphabet", "ab"], 0, "equal\n", ""),
    (["equiv", "a-b", "a&b"], 1, "unequal a\n", ""),
    (
        ["equiv", "0", "1"],
        2,
        "",
        "derivrex: error: the alphabet is empty; declare one with --alphabet\n",
    ),
    (["equiv", "0", "1+"], 2, "", "derivrex: error: unexpected end of input at position 2\n"),
    (["equiv", "0", "1", "--alphabet", "a"], 1, "unequal\n", ""),
    (["equiv", "a", "b", "--alphabet", "aab"], 1, "unequal a\n", ""),
    (
        ["equiv", "(a+b)*", "(a*b*)*", "--max-pairs", "1"],
        2,
        "",
        "derivrex: error: equivalence check exceeded the 1-pair budget (2 pairs explored)\n",
    ),
    (
        ["equiv", "ab", "c", "--alphabet", "ab"],
        2,
        "",
        "derivrex: error: symbol 'c' at position 0 is not in the alphabet\n",
    ),
    (["equiv", "a+", "a"], 2, "", "derivrex: error: unexpected end of input at position 2\n"),
    (["enum", "(ab)*", "--bound", "4"], 0, "\nab\nabab\n", ""),
    (["enum", "0", "--bound", "3"], 0, "", ""),
    (["enum", "a+b"], 0, "a\nb\n", ""),
    (["enum", "a*", "--bound", "0"], 0, "\n", ""),
    (
        ["enum", "(a+b)*", "--bound", "12", "--enum-cap", "50"],
        2,
        "",
        "derivrex: error: language slice exceeded the 50-word budget\n",
    ),
    (
        ["enum", "a*", "--enum-cap", "1"],
        2,
        "",
        "derivrex: error: language slice exceeded the 1-word budget\n",
    ),
    (
        ["enum", "a*", "--max-states", "1"],
        2,
        "",
        "usage: derivrex [-h] COMMAND ...\nderivrex: error: unrecognized arguments: --max-states 1\n",
    ),
    (
        ["enum", "ab", "--alphabet", "a"],
        2,
        "",
        "derivrex: error: symbol 'b' at position 1 is not in the alphabet\n",
    ),
    (
        ["enum", "a*", "--bound", "-1"],
        2,
        "",
        (
            "usage: derivrex enum [-h] [--alphabet LETTERS] [--enum-cap N] [--bound K] expr\n"
            "derivrex enum: error: argument --bound: must be nonnegative\n"
        ),
    ),
    (
        ["enum", "a*", "--bound", "x"],
        2,
        "",
        (
            "usage: derivrex enum [-h] [--alphabet LETTERS] [--enum-cap N] [--bound K] expr\n"
            "derivrex enum: error: argument --bound: invalid _bound_int value: 'x'\n"
        ),
    ),
    (
        ["check-identities"],
        0,
        (
            "identity 01: (1+a)* = a* ... pass\n"
            "identity 02: a*(1+a) = a* ... pass\n"
            "identity 03: (1+a)+a* = a* ... pass\n"
            "identity 04: b+a*b = a*b ... pass\n"
            "identity 05: b+ba* = ba* ... pass\n"
            "identity 06: 1+aa* = a* ... pass\n"
            "identity 07: (a+b)* = (a*b*)* ... pass\n"
            "identity 08: 0a = a0 = 0 ... pass\n"
            "identity 09: 0+a = a+0 = a ... pass\n"
            "identity 10: 1+a* = a* ... pass\n"
            "identity 11: a(b+c) = ab+ac ... pass\n"
            "identity 12: (a+b)c = ac+bc ... pass\n"
            "identity 13: (a+b)* = (a*+b*)* = (a*b*)* ... pass\n"
            "identity 14: 1a = a1 = a ... pass\n"
            "identity 15: 1* = 1 ... pass\n"
            "non-identity 1: (a+b)* vs a*+b* ... unequal as expected (counterexample \"ab\")\n"
            "non-identity 2: (ab)* vs a*b* ... unequal as expected (counterexample \"a\")\n"
            "non-identity 3: ab vs ba ... unequal as expected (counterexample \"ab\")\n"
            "note: a(aa) = (aa)a ... equal (distinct factors can still commute)\n"
            "check-identities: 19/19 checks passed\n"
        ),
        "",
    ),
    (
        ["check-identities", "--alphabet", "a"],
        2,
        (
            "identity 01: (1+a)* = a* ... pass\n"
            "identity 02: a*(1+a) = a* ... pass\n"
            "identity 03: (1+a)+a* = a* ... pass\n"
        ),
        "derivrex: error: symbol 'b' at position 0 is not in the alphabet\n",
    ),
    (
        ["check-identities", "--alphabet", "abc"],
        0,
        (
            "identity 01: (1+a)* = a* ... pass\n"
            "identity 02: a*(1+a) = a* ... pass\n"
            "identity 03: (1+a)+a* = a* ... pass\n"
            "identity 04: b+a*b = a*b ... pass\n"
            "identity 05: b+ba* = ba* ... pass\n"
            "identity 06: 1+aa* = a* ... pass\n"
            "identity 07: (a+b)* = (a*b*)* ... pass\n"
            "identity 08: 0a = a0 = 0 ... pass\n"
            "identity 09: 0+a = a+0 = a ... pass\n"
            "identity 10: 1+a* = a* ... pass\n"
            "identity 11: a(b+c) = ab+ac ... pass\n"
            "identity 12: (a+b)c = ac+bc ... pass\n"
            "identity 13: (a+b)* = (a*+b*)* = (a*b*)* ... pass\n"
            "identity 14: 1a = a1 = a ... pass\n"
            "identity 15: 1* = 1 ... pass\n"
            "non-identity 1: (a+b)* vs a*+b* ... unequal as expected (counterexample \"ab\")\n"
            "non-identity 2: (ab)* vs a*b* ... unequal as expected (counterexample \"a\")\n"
            "non-identity 3: ab vs ba ... unequal as expected (counterexample \"ab\")\n"
            "note: a(aa) = (aa)a ... equal (distinct factors can still commute)\n"
            "check-identities: 19/19 checks passed\n"
        ),
        "",
    ),
    (
        ["check-identities", "--alphabet", ""],
        2,
        "",
        "derivrex: error: the declared alphabet is empty\n",
    ),
    (
        ["check-identities", "--max-pairs", "1"],
        2,
        "identity 01: (1+a)* = a* ... pass\n",
        "derivrex: error: equivalence check exceeded the 1-pair budget (2 pairs explored)\n",
    ),
    (
        [],
        2,
        "",
        (
            "usage: derivrex [-h] COMMAND ...\n"
            "derivrex: error: the following arguments are required: COMMAND\n"
        ),
    ),
    (
        ["frobnicate"],
        2,
        "",
        (
            "usage: derivrex [-h] COMMAND ...\n"
            "derivrex: error: argument COMMAND: invalid choice: 'frobnicate' (choose from 'derive', 'match', 'dfa', 'equiv', 'enum', 'check-identities')\n"
        ),
    ),
    (
        ["-h"],
        0,
        (
            "usage: derivrex [-h] COMMAND ...\n"
            "\n"
            "Derivative-based regular-expression engine.\n"
            "\n"
            "positional arguments:\n"
            "  COMMAND\n"
            "    derive          word derivative of an expression\n"
            "    match           test whether a word matches\n"
            "    dfa             compile to a DFA and print it\n"
            "    equiv           decide language equivalence\n"
            "    enum            list words up to a length bound\n"
            "    check-identities\n"
            "                    run the identity suite\n"
            "\n"
            "options:\n"
            "  -h, --help        show this help message and exit\n"
        ),
        "",
    ),
    (
        ["dfa", "-h"],
        0,
        (
            "usage: derivrex dfa [-h] [--alphabet LETTERS] [--max-states N]\n"
            "                    [--format {dot,json}]\n"
            "                    expr\n"
            "\n"
            "positional arguments:\n"
            "  expr\n"
            "\n"
            "options:\n"
            "  -h, --help           show this help message and exit\n"
            "  --alphabet LETTERS   symbols to work over (default: the letters of the\n"
            "                       expressions)\n"
            "  --max-states N       state budget for DFA construction\n"
            "  --format {dot,json}\n"
        ),
        "",
    ),
]



@pytest.mark.parametrize("argv,code,out,err", GOLDEN, ids=[shlex.join(g[0]) for g in GOLDEN])
def test_golden_output(monkeypatch, capsys, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(list(argv))
    except SystemExit as exc:  # argparse's own errors, and --help
        got = exc.code
    captured = capsys.readouterr()
    assert (got, captured.out, captured.err) == (code, out, err)
