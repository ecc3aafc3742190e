"""Lexical comparison retrievers over raw commits: grep-style and Okapi BM25.

Neither baseline abstains: any query with a literal or token match in the
window produces at least one result.
"""
from __future__ import annotations

import heapq
import math

from .gitio import Commit
from .retrieval import Document, Postings, tokenize

BM25_K1 = 1.5
BM25_B = 0.75


def grep_search(commits, query: str, k: int = 10) -> list[tuple[Commit, int]]:
    """Emulates ``git log -i --grep``: a filter, never a ranker.

    Commits whose full message contains the literal query (case-insensitive)
    come back in recency order with 1-based ranks, truncated to k.
    """
    needle = query.lower()
    results: list[tuple[Commit, int]] = []
    for commit in commits:
        if needle in commit.message.lower():
            results.append((commit, len(results) + 1))
            if len(results) == k:
                break
    return results


class Bm25Index:
    """Okapi BM25 over raw subjects+bodies, tokenized with the
    identifier-aware tokenizer: run-wide postings keyed by sha, and each
    commit's length. A commit is tokenized once, when it is added; any
    subset of the held commits is searched as a corpus of its own."""

    __slots__ = ("_postings", "_lengths")

    def __init__(self) -> None:
        self._postings = Postings()
        self._lengths: dict[str, int] = {}

    def add(self, commits) -> None:
        """Post the commits not yet held."""
        lengths = self._lengths
        for commit in commits:
            if commit.sha not in lengths:
                doc = Document(commit, commit.message)
                self._postings.add(commit.sha, doc)
                lengths[commit.sha] = doc.length

    def search(self, shas, query: str, k: int) -> list[tuple[Commit, float]]:
        """BM25 top-k over the held commits named by ``shas``, ties on
        ascending sha. N is the number of shas, df is counted within them,
        and avgdl is their summed length over N; the idf is +0.5-smoothed.
        Every commit sharing a term is a candidate, and only those are
        scored; a commit's shared terms are summed in the query's order."""
        query_terms = tokenize(query)
        if not query_terms:
            return []
        members = set(shas)
        idf: dict[str, float] = {}
        candidates: dict[str, Document] = {}
        n = len(shas)
        for term in query_terms:
            held = self._postings.within(term, members)
            if held:
                idf[term] = math.log((n - len(held) + 0.5) / (len(held) + 0.5))
                candidates.update(held)
        if not candidates:
            return []
        avgdl = sum(map(self._lengths.__getitem__, shas)) / n
        scored: list[tuple[float, str, Commit]] = []
        for sha, doc in candidates.items():
            norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc.length / avgdl)
            tf = doc.tf
            score = 0.0
            for term, term_idf in idf.items():
                freq = tf.get(term)
                if freq:
                    score += term_idf * freq * (BM25_K1 + 1.0) / (freq + norm)
            scored.append((-score, sha, doc.item))
        return [(commit, -negated) for negated, _, commit in heapq.nsmallest(k, scored)]


def build_bm25_index(commits) -> Bm25Index:
    """A BM25 index holding ``commits``."""
    index = Bm25Index()
    index.add(commits)
    return index


def bm25_query(index: Bm25Index, query: str, k: int = 10) -> list[tuple[Commit, float]]:
    """BM25 top-k over every commit the index holds."""
    return index.search(index._lengths, query, k)
