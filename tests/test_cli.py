"""Exit codes, output bytes, and error reporting of the command line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from derivrex.cli import SessionConfig, main

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

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "check-identities")
        second = run(capsys, "check-identities")
        assert first == second


class TestBackstop:
    def test_deep_nesting_is_an_error_not_a_traceback(self, capsys):
        expr = "(" * 170 + "a" + ")" * 170
        code, out, err = run(capsys, "match", expr, "a")
        assert code == 2
        assert out == ""
        assert err.startswith("derivrex: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_long_literal_matches_itself(self, capsys):
        word = "a" * 400
        assert run(capsys, "match", word, word) == (0, "true\n", "")

    def test_wide_union_matches_without_alphabet(self, capsys):
        expr = "+".join("ab"[i % 2] for i in range(3000))
        assert run(capsys, "match", expr, "a") == (0, "true\n", "")

    def test_wide_union_of_distinct_words_matches(self, capsys):
        assert run(capsys, "match", helpers.word_union_text(), "abc") == (0, "true\n", "")


def test_import_leaves_dataclasses_out():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, derivrex.cli; print('dataclasses' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"


def test_session_config_is_an_immutable_record():
    config = SessionConfig(("a",))
    assert repr(config) == (
        "SessionConfig(alphabet=('a',), max_states=10000, max_pairs=100000, "
        "enum_cap=1000000, output_format='text')"
    )
    with pytest.raises(AttributeError):
        config.max_pairs = 1


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
