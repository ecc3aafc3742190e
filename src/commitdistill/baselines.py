"""Lexical comparison retrievers over raw commits: grep-style and Okapi BM25.

Neither baseline abstains: any query with a literal or token match in the
window produces at least one result.
"""
from __future__ import annotations

import math

from .gitio import Commit
from .retrieval import Document, RetrievalIndex, lookup, tokenize

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


def build_bm25_index(commits) -> RetrievalIndex:
    """Index raw subjects+bodies with the identifier-aware tokenizer."""
    return RetrievalIndex([Document(commit, commit.message) for commit in commits])


def bm25_query(index: RetrievalIndex, query: str, k: int = 10) -> list[tuple[Commit, float]]:
    """Okapi BM25 top-k with the +0.5-smoothed idf; every document sharing a
    term is a candidate, and only those are scored."""
    query_terms = tokenize(query)
    if not query_terms:
        return []
    df, candidates = lookup(index, query_terms)
    if not candidates:
        return []
    n = len(index.documents)
    idf = {term: math.log((n - count + 0.5) / (count + 0.5)) for term, count in df.items()}
    for doc in index.documents:
        doc.terms()  # avgdl needs every length: the first query tokenizes them all
    avgdl = sum(doc.length for doc in index.documents) / n
    scored: list[tuple[Commit, float]] = []
    for doc_index in candidates:
        doc = index.documents[doc_index]
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc.length / avgdl)
        score = 0.0
        for term in query_terms:
            freq = doc.tf.get(term)
            if freq:
                score += idf[term] * freq * (BM25_K1 + 1.0) / (freq + norm)
        scored.append((doc.item, score))
    scored.sort(key=lambda item: (-item[1], item[0].sha))
    return scored[:k]
