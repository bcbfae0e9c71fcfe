"""DFA construction, equivalence verdicts, and the two export formats."""

import json
import string

import pytest

import helpers
from derivrex import (
    AlphabetError,
    AutomatonFormatError,
    Dfa,
    EquivVerdict,
    ParseError,
    StateBudgetError,
    PairBudgetError,
    build_dfa,
    canonicalize,
    dfa_accepts,
    enumerate_lang,
    equivalent,
    from_json,
    parse,
    render,
    to_dot,
    to_json,
)

GOLDEN_EMPTY_JSON = (
    '{"alphabet":["a","b"],"states":["0"],"start":0,"accepting":[],'
    '"transitions":[{"from":0,"symbol":"a","to":0},{"from":0,"symbol":"b","to":0}]}'
)


class TestBuildDfa:
    def test_three_state_closure(self):
        d = build_dfa(parse("a(a+b)*"), "ab")
        assert [render(s) for s in d.states] == ["a(a+b)*", "(a+b)*", "0"]
        assert d.accepting == {1}
        # the 0 state is a sink
        assert d.transitions[2] == (2, 2)

    def test_empty_language_is_one_sink(self):
        d = build_dfa(parse("0"), "ab")
        assert len(d.states) == 1
        assert d.accepting == frozenset()

    def test_suffix_star_reaches_the_nullable_variant(self):
        d = build_dfa(parse("(a+b)*a"), "ab")
        assert {render(s) for s in d.states} == {"(a+b)*a", "(a+b)*a+1"}
        a_col = d.alphabet.index("a")
        assert render(d.states[d.transitions[0][a_col]]) == "(a+b)*a+1"

    def test_epsilon_over_two_letters(self):
        d = build_dfa(parse("1"), "ab")
        assert len(d.states) == 2
        assert d.accepting == {0}

    def test_state_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_states must be positive"):
            build_dfa(parse("a"), "ab", max_states=0)

    def test_state_budget(self):
        with pytest.raises(StateBudgetError) as err:
            build_dfa(parse("a(a+b)*"), "ab", max_states=2)
        assert err.value.discovered == 3

    def test_identity_corpus_closes_within_64_states(self):
        for text in helpers.SUITE_TEXTS:
            e = parse(text)
            alpha = sorted({"a", "b"} | set(helpers.letters(e)))
            d = build_dfa(e, alpha, max_states=64)
            assert len(d.states) <= 64


class TestDfaAccepts:
    def test_word_runs(self):
        d = build_dfa(parse("a(a+b)*"), "ab")
        assert dfa_accepts(d, "abb")
        assert not dfa_accepts(d, "")
        assert not dfa_accepts(d, "ba")

    def test_symbol_outside_alphabet(self):
        d = build_dfa(parse("a*"), "a")
        with pytest.raises(AlphabetError):
            dfa_accepts(d, "ab")

    def test_bad_symbol_reports_its_position(self):
        d = build_dfa(parse("(a+b)*"), "ab")
        message = "^word symbol 'c' at position 3 is not in the alphabet$"
        with pytest.raises(AlphabetError, match=message):
            dfa_accepts(d, "abacab")


class TestAlphabetCheck:
    # B is in z's class, since the term has neither letter, so it copies
    # z's column and is never derived: only the alphabet check sees it.
    def test_build_dfa_rejects_a_letter_that_is_never_derived(self):
        with pytest.raises(AlphabetError, match="'B' is not"):
            build_dfa(parse("(a+b)*"), "abzB")

    def test_equivalent_rejects_a_letter_that_is_never_derived(self):
        with pytest.raises(AlphabetError, match="'B' is not"):
            equivalent(parse("(a+b)*"), parse("(b+a)*"), "abzB")


class TestEquivalent:
    def test_pair_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pairs must be positive"):
            equivalent(parse("a"), parse("b"), "ab", max_pairs=0)

    def test_equal_pair(self):
        assert equivalent(parse("(a+b)*"), parse("(a*b*)*"), "ab").equal

    def test_unequal_pair_gets_shortest_counterexample(self):
        v = equivalent(parse("(a+b)*"), parse("a*+b*"), "ab")
        assert not v.equal
        assert v.counterexample == "ab"

    def test_nullability_mismatch_is_the_empty_word(self):
        v = equivalent(parse("1"), parse("a"), "a")
        assert not v.equal
        assert v.counterexample == ""

    def test_pair_budget(self):
        with pytest.raises(PairBudgetError):
            equivalent(parse("(a+b)*a(a+b)"), parse("(a+b)a(a+b)*"), "ab", max_pairs=2)

    def test_counterexample_length_is_minimal(self, corpus):
        # the verdict's word is never longer than the first disagreement
        # the enumerator can find
        pairs = list(zip(corpus, corpus[5:]))[:20]
        for e, f in pairs:
            alpha = sorted({"a", "b"} | set(helpers.letters(e)) | set(helpers.letters(f)))
            v = equivalent(e, f, alpha)
            if v.equal:
                assert enumerate_lang(e, 8).words == enumerate_lang(f, 8).words
            else:
                diff = enumerate_lang(e, 8).words ^ enumerate_lang(f, 8).words
                if diff:
                    assert len(v.counterexample) == min(len(w) for w in diff)

    def test_verdict_matches_enumeration_at_bound_eight(self, corpus):
        for e, f in list(zip(corpus, corpus[3:]))[:20]:
            alpha = sorted({"a", "b"} | set(helpers.letters(e)) | set(helpers.letters(f)))
            v = equivalent(e, f, alpha)
            same_slice = enumerate_lang(e, 8).words == enumerate_lang(f, 8).words
            if v.equal:
                assert same_slice
            elif len(v.counterexample) <= 8:
                assert not same_slice

    def test_agrees_with_the_state_product_bound(self):
        # Languages equal up to |states| x |states| letters are equal outright.
        pairs = [("a(a+b)*", "ab(a+b)*"), ("(ab)*", "1+a(ba)*b"), ("a*", "(aa)*+a(aa)*")]
        for lhs, rhs in pairs:
            e, f = parse(lhs), parse(rhs)
            k = len(build_dfa(e, "ab").states) * len(build_dfa(f, "ab").states)
            v = equivalent(e, f, "ab")
            assert v.equal == (enumerate_lang(e, k).words == enumerate_lang(f, k).words)


SIGMA = "+".join(string.ascii_lowercase)
SIGMA_NTH_4 = f"({SIGMA})*a" + f"({SIGMA})" * 4


class TestExports:
    def test_dot_shapes_and_labels(self):
        d = build_dfa(parse("0"), "ab")
        dot = to_dot(d)
        assert 'label="0"' in dot
        assert "doublecircle" not in dot
        assert dot.count("shape=circle") == 1

    def test_dot_counts_for_the_three_state_machine(self):
        dot = to_dot(build_dfa(parse("a(a+b)*"), "ab"))
        assert dot.count("shape=") == 4  # 3 states plus the entry point
        assert dot.count("[label=") == 6  # one edge per state and symbol

    def test_dot_epsilon_machine(self):
        dot = to_dot(build_dfa(parse("1"), "ab"))
        assert dot.count("doublecircle") == 1
        assert dot.count("shape=circle") == 1

    def test_json_golden_bytes(self):
        assert to_json(build_dfa(parse("0"), "ab")) == GOLDEN_EMPTY_JSON

    def test_json_fields(self):
        import json

        doc = json.loads(to_json(build_dfa(parse("(a+b)*a"), "ab")))
        assert doc["start"] == 0
        assert doc["accepting"] == sorted(doc["accepting"])
        assert {t["symbol"] for t in doc["transitions"]} == {"a", "b"}

    def test_json_round_trip(self, corpus):
        for e in corpus[:25]:
            alpha = sorted({"a", "b"} | set(helpers.letters(e)))
            d = build_dfa(e, alpha)
            assert from_json(to_json(d)) == d

    # The exports fill one row template per state; over no letters the rows
    # are empty, and no stray comma or blank line may be left.
    @pytest.mark.parametrize("alphabet", ["", "ab", "abcz", "zcba"])
    def test_json_is_the_dict_writers_bytes(self, corpus, alphabet):
        for e in corpus:
            d = build_dfa(e, alphabet)
            assert to_json(d) == helpers.reference_to_json(d)
            assert from_json(to_json(d)) == d

    @pytest.mark.parametrize("alphabet", ["", "ab", "abcz", "zcba"])
    def test_dot_is_the_line_writers_bytes(self, corpus, alphabet):
        for e in corpus:
            d = build_dfa(e, alphabet)
            assert to_dot(d) == helpers.reference_to_dot(d)

    def test_a_document_may_start_at_another_state(self):
        # build_dfa always starts at state 0; a document names its start.
        d = build_dfa(parse("(a+b)*a"), "ab")
        assert len(d.states) == 2 and d.start == 0
        swap = (1, 0)
        moved = Dfa(
            d.states[::-1],
            d.alphabet,
            1,
            frozenset(swap[i] for i in d.accepting),
            tuple(tuple(swap[j] for j in row) for row in d.transitions[::-1]),
        )
        text = helpers.reference_to_json(moved)
        loaded = from_json(text)
        assert loaded == moved
        assert to_json(loaded) == text
        for w in helpers.words_upto(4):
            assert dfa_accepts(loaded, w) is dfa_accepts(d, w) is w.endswith("a")

    def test_exports_of_two_states_over_no_letters(self):
        # A closure over no letters has one state, but from_json accepts
        # more: an empty row repeated must still give an empty list.
        d = from_json(helpers.reference_to_json(
            Dfa((parse("a"), parse("1")), (), 0, frozenset({1}), ((), ()))
        ))
        assert to_json(d) == helpers.reference_to_json(d)
        assert to_dot(d) == helpers.reference_to_dot(d)

    def test_json_over_26_letters_is_the_dict_writers_bytes(self):
        d = build_dfa(parse(SIGMA_NTH_4), string.ascii_lowercase)
        assert len(d.states) == 32
        assert to_json(d) == helpers.reference_to_json(d)
        assert from_json(to_json(d)) == d

    def test_dot_over_26_letters_is_the_line_writers_bytes(self):
        d = build_dfa(parse(SIGMA_NTH_4), string.ascii_lowercase)
        assert to_dot(d) == helpers.reference_to_dot(d)

    def test_exports_are_deterministic(self):
        one = build_dfa(parse("a(a+b)*"), "ab")
        two = build_dfa(parse("a(a+b)*"), "ab")
        assert to_dot(one) == to_dot(two)
        assert to_json(one) == to_json(two)


def _broken(change):
    doc = json.loads(to_json(build_dfa(parse("a(a+b)*"), "ab")))
    change(doc)
    return json.dumps(doc)


def _set(path, value):
    def change(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return change


class TestFromJsonErrors:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"alphabet": ["a"]', id="bad-json"),
            pytest.param("[1, 2]", id="not-an-object"),
            pytest.param(_broken(lambda doc: doc.pop("start")), id="missing-start"),
            pytest.param(_broken(lambda doc: doc["transitions"][0].pop("to")), id="missing-to"),
            pytest.param(_broken(_set(["start"], 3)), id="start-out-of-range"),
            pytest.param(_broken(_set(["transitions", 0, "from"], -1)), id="from-out-of-range"),
            pytest.param(_broken(_set(["transitions", 0, "to"], 3)), id="to-out-of-range"),
            pytest.param(_broken(_set(["accepting"], [1, 7])), id="accepting-out-of-range"),
            pytest.param(_broken(_set(["transitions", 0, "symbol"], "c")), id="symbol-outside-alphabet"),
            pytest.param(_broken(lambda doc: doc["transitions"].pop()), id="not-total"),
            pytest.param(_broken(_set(["transitions", 1, "symbol"], "a")), id="two-moves-one-symbol"),
            # Strings and objects where arrays belong: iterated, "ab" would
            # list the states a and b.
            pytest.param(_broken(_set(["alphabet"], "ab")), id="alphabet-a-string"),
            pytest.param(
                '{"alphabet":"a","states":"ab","start":0,"accepting":[],"transitions":'
                '[{"from":0,"symbol":"a","to":1},{"from":1,"symbol":"a","to":1}]}',
                id="states-a-string",
            ),
            pytest.param(_broken(_set(["accepting"], "1")), id="accepting-a-string"),
            pytest.param(_broken(_set(["accepting"], {"1": 1})), id="accepting-an-object"),
            pytest.param(_broken(_set(["transitions"], {})), id="transitions-an-object"),
            pytest.param(_broken(_set(["transitions"], "")), id="transitions-a-string"),
            # Errors of the JSON reader that are not JSONDecodeError.
            pytest.param("[" * 100_000, id="nested-too-deep"),
            pytest.param(b"\xff\xfe{", id="not-unicode"),
            pytest.param('{"start": ' + "9" * 5000 + "}", id="start-too-many-digits"),
            pytest.param(_broken(_set(["alphabet"], ["a", "b", "a"])), id="letter-listed-twice"),
            pytest.param(_broken(_set(["alphabet", 1], "A")), id="alphabet-uppercase"),
            pytest.param(_broken(_set(["alphabet", 1], "ab")), id="alphabet-two-letters"),
            pytest.param(_broken(_set(["alphabet", 1], 1)), id="alphabet-a-number"),
            pytest.param(_broken(_set(["states", 1], 1)), id="state-a-number"),
            pytest.param(_broken(_set(["start"], True)), id="start-true"),
            pytest.param(_broken(_set(["accepting"], [True])), id="accepting-true"),
            pytest.param(_broken(_set(["transitions", 0, "symbol"], 0)), id="symbol-a-number"),
            pytest.param(_broken(_set(["transitions", 0], [0, "a", 1])), id="transition-a-list"),
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(AutomatonFormatError):
            from_json(text)

    def test_unparsable_state_raises_parse_error(self):
        with pytest.raises(ParseError):
            from_json(_broken(_set(["states", 1], "a+")))


def test_records_keep_their_repr_and_are_immutable():
    v = EquivVerdict(True)
    assert repr(v) == "EquivVerdict(equal=True, counterexample=None)"
    d = build_dfa(parse("a"), "a")
    assert repr(d).startswith("Dfa(states=(<regex a>, <regex 1>, <regex 0>), alphabet=('a',)")
    with pytest.raises(AttributeError):
        v.equal = False
    with pytest.raises(AttributeError):
        d.start = 1
