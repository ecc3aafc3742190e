from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from commitdistill import baselines, retrieval
from commitdistill.retrieval import BoostTable, build_index, query, tokenize

from oracles import (
    bm25_query_oracle,
    build_bm25_index_oracle,
    build_index_oracle,
    joined_postings_oracle,
    query_oracle,
    tfidf_oracle,
    tokenize_oracle,
    tokenize_uncached_oracle,
)
from test_baselines import make_commit
from test_store import make_unit

NEUTRAL_BOOSTS = BoostTable(pattern=1.0, skill=1.0, fact=1.0)


class TestTokenize:
    def test_snake_case_keeps_original(self):
        assert tokenize("fix_redirect_loop") == {
            "fix_redirect_loop": 1,
            "fix": 1,
            "redirect": 1,
            "loop": 1,
        }

    def test_camel_case_keeps_original(self):
        assert tokenize("redirectLoopHandler") == {
            "redirectloophandler": 1,
            "redirect": 1,
            "loop": 1,
            "handler": 1,
        }

    def test_empty(self):
        assert tokenize("") == {}

    def test_letter_digit_split_drops_bare_digits(self):
        assert tokenize("http2Handler") == {"http2handler": 1, "http": 1, "handler": 1}

    def test_all_caps_identifier(self):
        assert tokenize("ALL_CAPS") == {"all_caps": 1, "all": 1, "caps": 1}

    def test_plain_words_not_doubled(self):
        assert tokenize("Redirect redirect") == {"redirect": 2}

    def test_punctuation_stripped(self):
        assert tokenize("loop, loop!") == {"loop": 2}


_identifier_text = st.text(alphabet="_aBzXYZ09 .-éÉßΩİǅ", max_size=60)


@settings(max_examples=1000)
@given(_identifier_text)
@example("HTTPServer_URLParser __init__ ABC_Def A_Bc x_1_y _Ab_ größe_Café")
def test_tokenize_matches_split_at_underscore(text: str):
    # equal items in the same order: query scores sum over the terms in order
    assert list(tokenize(text).items()) == list(tokenize_oracle(text).items())


@settings(max_examples=1000)
@given(st.lists(st.one_of(_identifier_text, st.text(max_size=12)), max_size=6).map(
    lambda parts: " ".join(parts + parts[:2])
))
@example("HTTPServer http2Handler HTTPServer ǅemal İstanbul ﬁle ﬁle x_1_y")
def test_tokenize_matches_the_uncached_split(text: str):
    # each word's tokens are kept after its first split; a second call reads them
    first = tokenize(text)
    assert list(first.items()) == list(tokenize_uncached_oracle(text).items())
    assert list(tokenize(text).items()) == list(first.items())


def test_word_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(retrieval, "_WORD_TOKENS", {})
    monkeypatch.setattr(retrieval, "_WORD_TOKENS_MAX", 8)
    text = " ".join(f"poolName{n} drainQueue w{n}" for n in range(50))
    for _ in range(2):
        assert list(tokenize(text).items()) == list(tokenize_uncached_oracle(text).items())
        assert 0 < len(retrieval._WORD_TOKENS) <= 8


@settings(max_examples=1000)
@given(st.text())
@example("AΣ'B")
@example("İstanbul")
@example("Straße")
@example("ﬁle")
def test_every_token_folds_into_its_text(text: str):
    """The postings scan never misses a holder: each token's fold is a
    substring of its text's fold."""
    folded = text.casefold()
    for term in tokenize(text):
        assert term.casefold() in folded


def test_lower_would_miss_a_final_sigma():
    # "AΣ" alone lowers to a final sigma; followed by "'B" it does not.
    assert "aς" in tokenize("AΣ'B")
    assert "aς" not in "AΣ'B".lower()
    assert "aς".casefold() in "AΣ'B".casefold()


# Characters whose lower and casefold differ (final sigma, dotted capital I,
# sharp s, the fi ligature), line breaks, and word separators.
_FOLD_TEXTS = st.lists(st.text(alphabet="aAsSσΣςiİßﬁf '_\n", max_size=12), max_size=6)


@settings(max_examples=200)
@given(_FOLD_TEXTS, st.lists(st.text(alphabet="aAsSσΣςiİßﬁf", min_size=1, max_size=4), max_size=3))
@example(["AΣ'B", "", "aς\nΣ"], ["aς"])
@example(["Straße\nﬁle", "STRASSE", "İstanbul", ""], ["ss", "fi"])
def test_postings_scan_matches_joined_text_search(texts, words):
    """Every term of the texts, and a few more, finds the same positions by
    the scan of each folded text as by the joined-text search."""
    index = retrieval.RetrievalIndex([retrieval.Document(i, text) for i, text in enumerate(texts)])
    terms = set().union(*map(tokenize, texts), *map(tokenize, words))
    for term in sorted(terms) + ["absent"]:
        assert index.postings(term) == joined_postings_oracle(texts, term)


class TestLazyIndex:
    def test_queries_tokenize_only_the_documents_they_touch(self, monkeypatch):
        units = [make_unit("Alpha beta"), make_unit("alphabet soup"), make_unit("gamma delta")]
        index = build_index(units)
        seen: list[str] = []
        real_tokenize = retrieval.tokenize

        def counting_tokenize(text: str):
            seen.append(text)
            return real_tokenize(text)

        monkeypatch.setattr(retrieval, "tokenize", counting_tokenize)

        def tokenized_and_hits(q: str) -> tuple[list[str], list[str]]:
            seen.clear()
            hits = query(index, q, k=5, theta=0.0)
            assert seen[0] == q  # the query's own terms come first
            return sorted(seen[1:]), sorted(hit.unit.content for hit in hits)

        assert tokenized_and_hits("zqxjw wzqjx") == ([], [])
        # "alphabet soup" holds "alpha" only as a substring: tokenized, not a hit
        assert tokenized_and_hits("alpha") == (["Alpha beta", "alphabet soup"], ["Alpha beta"])
        assert tokenized_and_hits("alpha") == ([], ["Alpha beta"])
        assert tokenized_and_hits("ALPHA gamma") == (["gamma delta"], ["Alpha beta", "gamma delta"])


class TestBuildIndex:
    def test_empty_corpus_always_silent(self):
        index = build_index([])
        assert query(index, "anything at all", k=5, theta=0.0) == []

    def test_single_unit_document_frequencies(self):
        index = build_index([make_unit("alpha beta alpha gamma", weight=1.0)])
        df, _ = retrieval.lookup(index, ["alpha", "beta", "gamma", "absent"])
        assert df == {"alpha": 1, "beta": 1, "gamma": 1}
        # degenerate one-document corpus gets add-one smoothed idf
        assert _one_term_idf(index, "alpha") == pytest.approx(math.log(2))

    def test_three_unit_idf_table(self):
        units = [
            make_unit("alpha beta", weight=1.0),
            make_unit("alpha gamma", weight=1.0),
            make_unit("delta delta", weight=1.0),
        ]
        index = build_index(units)
        df, candidates = retrieval.lookup(index, ["alpha", "beta", "gamma", "delta", "absent"])
        assert df == {"alpha": 2, "beta": 1, "gamma": 1, "delta": 1}
        assert candidates == {0, 1, 2}
        assert _one_term_idf(index, "alpha") == pytest.approx(math.log(3 / 2))
        assert _one_term_idf(index, "beta") == pytest.approx(math.log(3))
        assert _one_term_idf(index, "gamma") == pytest.approx(math.log(3))
        assert _one_term_idf(index, "delta") == pytest.approx(math.log(3))
        assert index.documents[2].length == 2


def _one_term_idf(index, term: str) -> float:
    """idf of ``term`` read back from a one-term query: with neutral boosts
    and weight 1 the best holder scores (1 + log tf) * idf / sqrt(|d|)."""
    hit = query(index, term, k=1, theta=0.0, boosts=NEUTRAL_BOOSTS)[0]
    doc = next(d for d in index.documents if d.item.id == hit.unit.id)
    return hit.score * math.sqrt(max(1, doc.length)) / (1.0 + math.log(doc.tf[term]))


class TestQuery:
    def test_out_of_distribution_silence_at_default_theta(self):
        index = build_index([make_unit("intersphinx label required")])
        assert query(index, "quantum entanglement decoherence", k=5, theta=2.5) == []

    def test_theta_zero_always_answers_on_overlap(self):
        index = build_index(
            [make_unit("intersphinx label required"), make_unit("session cookie signing")]
        )
        assert query(index, "label", k=5, theta=0.0)

    def test_two_document_fixture_scores(self):
        units = [
            make_unit("intersphinx label required", weight=1.0),
            make_unit("session cookie signing", weight=1.0),
        ]
        hits = query(build_index(units), "intersphinx label", k=5, theta=0.0)
        assert len(hits) == 1
        assert hits[0].unit.content == "intersphinx label required"
        assert hits[0].score == pytest.approx(2 * math.log(2) / math.sqrt(3), rel=1e-12)

    def test_ties_break_on_ascending_unit_id(self):
        units = [
            make_unit("alpha beta", weight=1.0),
            make_unit("beta alpha", weight=1.0),
        ]
        hits = query(build_index(units), "alpha", k=5, theta=0.0)
        assert len(hits) == 2
        assert hits[0].score == pytest.approx(hits[1].score)
        assert hits[0].unit.id < hits[1].unit.id

    def test_empty_query_silent_at_any_theta(self):
        index = build_index([make_unit("anything tokenizable here")])
        assert query(index, "!!! ...", k=5, theta=0.0) == []
        assert query(index, "", k=5, theta=2.5) == []

    def test_boosts_must_be_positive(self):
        with pytest.raises(ValueError):
            BoostTable(pattern=0.0)
        with pytest.raises(ValueError):
            BoostTable(fact=-1.0)

    def test_k_and_theta_validation(self):
        index = build_index([make_unit("alpha beta content")])
        with pytest.raises(ValueError):
            query(index, "alpha", k=0)
        with pytest.raises(ValueError):
            query(index, "alpha", theta=-0.1)
        with pytest.raises(ValueError):
            query(index, "alpha", theta=float("nan"))

    def test_neutral_parameters_reduce_to_plain_tfidf(self):
        units = [
            make_unit("redirect loop handler logic", unit_type="pattern", weight=1.0),
            make_unit("redirect policy for logins", unit_type="fact", weight=1.0),
            make_unit("cookie jar rotation", unit_type="skill", weight=1.0),
        ]
        neutral = NEUTRAL_BOOSTS
        hits = query(build_index(units), "redirect loop", k=5, theta=0.0, boosts=neutral)
        expected = tfidf_oracle(units, "redirect loop", k=5, theta=0.0, boosts=neutral)
        assert [h.unit.id for h in hits] == [uid for uid, _ in expected]
        for hit, (_, score) in zip(hits, expected):
            assert hit.score == pytest.approx(score, rel=1e-12)

    def test_boost_monotonicity_for_patterns(self):
        units = [
            make_unit("redirect loop handler", unit_type="pattern", weight=0.8),
            make_unit("redirect loop docs note", unit_type="fact", weight=0.8),
            make_unit("redirect loop guide fact", unit_type="fact", weight=0.8),
        ]
        index = build_index(units)
        base = {h.unit.id: h.score for h in query(index, "redirect loop", k=5, theta=0.0)}
        raised = {
            h.unit.id: h.score
            for h in query(
                index, "redirect loop", k=5, theta=0.0, boosts=BoostTable(pattern=2.0)
            )
        }
        for unit in units:
            if unit.unit_type == "pattern":
                assert raised[unit.id] >= base[unit.id]
            else:
                assert raised[unit.id] == pytest.approx(base[unit.id])

    def test_determinism(self):
        units = [make_unit(f"redirect item {chr(97 + i)} loop") for i in range(6)]
        index = build_index(units)
        first = query(index, "redirect loop", k=4, theta=0.0)
        second = query(index, "redirect loop", k=4, theta=0.0)
        assert [(h.unit.id, h.score) for h in first] == [(h.unit.id, h.score) for h in second]


_corpus = st.lists(
    st.builds(
        lambda content, unit_type, weight: make_unit(content, unit_type=unit_type, weight=weight),
        st.text(alphabet="abcde _", min_size=12, max_size=40).filter(lambda s: s.strip()),
        st.sampled_from(["fact", "skill", "pattern"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
    unique_by=lambda u: u.id,
)


@settings(max_examples=60)
@given(
    _corpus,
    st.text(alphabet="abcde _", min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_abstention_is_monotone_in_theta(units, query_text, theta_a, theta_b):
    low, high = sorted((theta_a, theta_b))
    index = build_index(units)
    low_ids = {h.unit.id for h in query(index, query_text, k=len(units), theta=low)}
    high_ids = {h.unit.id for h in query(index, query_text, k=len(units), theta=high)}
    assert high_ids <= low_ids


# Small vocabularies so that terms are shared; "common" sits in most
# documents (df > N/2 makes the BM25 idf negative), "absent" in none. The
# non-ASCII words fold differently under lower and casefold, and a capital
# sigma lowers to a final sigma only at a word's end ("AΣ" but not "AΣ'B").
_WORDS = ["alpha", "beta", "gamma", "redirectLoop", "snake_case", "http2",
          "AΣ", "AΣ'B", "ΣΑΣ", "aσ", "Straße", "STRASSE", "İstanbul", "ﬁle", "file", "größe", "данные"]
_document_words = st.lists(st.sampled_from(_WORDS + ["common"] * 3), max_size=7)
_query_words = st.lists(st.sampled_from(_WORDS + ["common", "absent", "missing_term"]), min_size=1, max_size=6)


def _ranking(hits):
    return [(hit.unit.id, hit.score) for hit in hits]


@settings(max_examples=300)
@given(st.lists(_document_words, max_size=6), _query_words)
@example([], ["alpha"])
@example([["alpha", "beta"]], ["alpha", "absent"])
@example([["alpha"], ["alpha", "beta"]], ["alpha", "alpha", "beta"])
@example([["common"], ["common", "alpha"], ["common"], ["beta"]], ["common", "alpha"])
@example([["AΣ'B"], ["AΣ", "aσ"]], ["AΣ"])
@example([["Straße"], ["STRASSE", "file"], ["ﬁle"]], ["STRASSE", "ﬁle"])
def test_postings_index_scores_equal_tabulated_idf(word_lists, query_words):
    """TF-IDF and BM25 over the lazy index give the same rankings and
    bit-identical scores as the eager indexes with whole-vocabulary idf
    tables; each index is asked more than once, so later queries read the
    postings that earlier ones kept."""
    units = [
        make_unit(f"{' '.join(words)} doc{i}", unit_type=("fact", "skill", "pattern")[i % 3], weight=(i % 4) / 4)
        for i, words in enumerate(word_lists)
    ]
    commits = [make_commit(i, " ".join(words), f"doc{i}") for i, words in enumerate(word_lists)]
    text = " ".join(query_words)
    index = build_index(units)
    for theta in (0.0, 0.5, 0.0):
        got = query(index, text, k=10, theta=theta)
        want = query_oracle(build_index_oracle(units), text, k=10, theta=theta)
        assert _ranking(got) == _ranking(want)
    bm25_index = baselines.build_bm25_index(commits)
    want_bm25 = bm25_query_oracle(build_bm25_index_oracle(commits), text, k=10)
    for _ in range(2):
        got_bm25 = baselines.bm25_query(bm25_index, text, k=10)
        assert [(c.sha, score) for c, score in got_bm25] == [(c.sha, score) for c, score in want_bm25]
