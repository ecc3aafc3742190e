from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from commitdistill import baselines
from commitdistill.gitio import Commit

from oracles import bm25_oracle


def make_commit(index: int, subject: str, body: str = "") -> Commit:
    return Commit(
        sha=f"{index:040x}",
        author="Dev One",
        author_date=f"2023-01-{index + 1:02d}T00:00:00+00:00",
        author_epoch=1672531200 + index * 86400,
        subject=subject,
        body=body,
    )


@pytest.fixture()
def window() -> list[Commit]:
    # newest-first, like list_commits output
    return [
        make_commit(5, "Improve cookie handling", "Jar rotation is now lazy."),
        make_commit(4, "fix redirect loop on 302 chains", "Stops the ladder early."),
        make_commit(3, "Add retry budget", "Budgets cap exponential backoff."),
        make_commit(2, "Document intersphinx usage", "A label must be used for linking."),
        make_commit(1, "Initial import", ""),
    ]


class TestGrep:
    def test_verbatim_match_at_rank_one(self, window):
        results = baselines.grep_search(window, "redirect loop", k=10)
        assert [(c.subject, rank) for c, rank in results] == [
            ("fix redirect loop on 302 chains", 1)
        ]

    def test_no_literal_occurrence(self, window):
        assert baselines.grep_search(window, "blueprint ordering", k=10) == []

    def test_multiword_query_fails_where_bm25_succeeds(self, window):
        # fact-style phrasing whose words never co-occur literally
        query = "intersphinx label linking"
        assert baselines.grep_search(window, query, k=10) == []
        index = baselines.build_bm25_index(window)
        assert baselines.bm25_query(index, query, k=10)

    def test_filter_preserves_recency_order(self, window):
        results = baselines.grep_search(window, "o", k=10)
        positions = [window.index(c) for c, _ in results]
        assert positions == sorted(positions)
        assert [rank for _, rank in results] == list(range(1, len(results) + 1))

    def test_case_insensitive_and_k_truncation(self, window):
        assert baselines.grep_search(window, "IMPROVE COOKIE", k=10)
        assert len(baselines.grep_search(window, "o", k=2)) == 2


class TestBm25:
    def test_single_document_corpus(self):
        window = [make_commit(1, "lonely subject", "with a unique zanzibar token")]
        index = baselines.build_bm25_index(window)
        results = baselines.bm25_query(index, "zanzibar", k=5)
        assert [c.subject for c, _ in results] == ["lonely subject"]

    def test_zero_overlap_returns_nothing(self, window):
        index = baselines.build_bm25_index(window)
        assert baselines.bm25_query(index, "quantum decoherence", k=5) == []
        assert baselines.bm25_query(index, "cookie", k=5)

    def test_search_over_held_commits_ranks_them_as_their_own_index(self, window):
        index = baselines.build_bm25_index(window)
        index.add(window[:2])  # already held: nothing changes
        for subset in (window[1:4], window[::2], window[4:], []):
            shas = [commit.sha for commit in subset]
            for query in ("redirect loop", "retry budget backoff", "cookie jar", "initial"):
                want = baselines.bm25_query(baselines.build_bm25_index(subset), query, k=5)
                assert index.search(shas, query, 5) == want

    def test_five_document_fixture_matches_okapi_oracle(self, window):
        index = baselines.build_bm25_index(window)
        for query in ("redirect loop", "retry budget backoff", "label linking", "cookie jar"):
            actual = baselines.bm25_query(index, query, k=5)
            expected = bm25_oracle(window, query, k=5)
            assert [c.sha for c, _ in actual] == [sha for sha, _ in expected]
            for (_, score), (_, oracle_score) in zip(actual, expected):
                assert score == pytest.approx(oracle_score, rel=1e-9)

    def test_ties_break_on_ascending_sha(self):
        window = [
            make_commit(9, "mirror alpha", ""),
            make_commit(1, "mirror alpha", ""),
        ]
        index = baselines.build_bm25_index(window)
        results = baselines.bm25_query(index, "mirror", k=5)
        assert [c.sha for c, _ in results] == sorted(c.sha for c in window)


_words = st.lists(
    st.sampled_from("alpha beta gamma delta epsilon zeta redirect loop cookie".split()),
    min_size=1,
    max_size=8,
)


@settings(max_examples=50)
@given(st.lists(_words, min_size=1, max_size=6), st.data())
def test_baselines_never_abstain_on_matching_queries(word_lists, data):
    window = [make_commit(i, " ".join(words)) for i, words in enumerate(word_lists)]
    target = data.draw(st.sampled_from(window))
    token = data.draw(st.sampled_from(target.subject.split()))
    index = baselines.build_bm25_index(window)
    assert baselines.bm25_query(index, token, k=10)
    assert baselines.grep_search(window, token, k=10)
