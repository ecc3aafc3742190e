"""Lexical comparison retrievers over raw commits: grep-style and Okapi BM25.

Neither baseline abstains: any query with a literal or token match in the
window produces at least one result.
"""
from __future__ import annotations

import heapq
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


def bm25_idf(n: int, df: dict[str, int]) -> dict[str, float]:
    """The +0.5-smoothed idf of each term of ``df`` in ``n`` documents."""
    return {term: math.log((n - count + 0.5) / (count + 0.5)) for term, count in df.items()}


def bm25_rank(documents, query_terms, idf: dict[str, float], avgdl: float, k: int):
    """Okapi BM25 top-k of ``documents``, ties on ascending sha. Each
    document's ``tf`` must be filled, and ``idf`` must hold every query term
    that a document holds. A document's shared terms are summed in
    ``query_terms``' order."""
    weights = [(term, idf[term]) for term in query_terms if term in idf]
    scored: list[tuple[float, str, int, Commit]] = []
    for position, doc in enumerate(documents):
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc.length / avgdl)
        tf = doc.tf
        score = 0.0
        for term, term_idf in weights:
            freq = tf.get(term)
            if freq:
                score += term_idf * freq * (BM25_K1 + 1.0) / (freq + norm)
        scored.append((-score, doc.item.sha, position, doc.item))
    return [(commit, -negated) for negated, _, _, commit in heapq.nsmallest(k, scored)]


def bm25_query(index: RetrievalIndex, query: str, k: int = 10) -> list[tuple[Commit, float]]:
    """Okapi BM25 top-k with the +0.5-smoothed idf; every document sharing a
    term is a candidate, and only those are scored."""
    query_terms = tokenize(query)
    if not query_terms:
        return []
    df, candidates = lookup(index, query_terms)
    if not candidates:
        return []
    documents = index.documents
    for doc in documents:
        doc.terms()  # avgdl needs every length: the first query tokenizes them all
    avgdl = sum(doc.length for doc in documents) / len(documents)
    idf = bm25_idf(len(documents), df)
    return bm25_rank([documents[i] for i in candidates], query_terms, idf, avgdl, k)
