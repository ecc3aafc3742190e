"""Lexical comparison retrievers over raw commits: grep-style and Okapi BM25.

Neither baseline abstains: any query with a literal or token match in the
window produces at least one result.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .gitio import Commit
from .retrieval import tokenize

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


@dataclass
class Bm25Document:
    commit: Commit
    tf: Counter
    length: int


@dataclass
class Bm25Index:
    documents: list[Bm25Document]
    idf: dict[str, float]
    avgdl: float
    k1: float
    b: float


def tokenize_commit(commit: Commit) -> Bm25Document:
    """The per-commit half of a BM25 build: subject+body term counts and length."""
    tf = tokenize(commit.message)
    return Bm25Document(commit, tf, sum(tf.values()))


def index_bm25_documents(
    documents: list[Bm25Document], k1: float = BM25_K1, b: float = BM25_B
) -> Bm25Index:
    """The corpus half of a BM25 build: idf with the +0.5 smoothing and avgdl."""
    if k1 <= 0:
        raise ValueError("k1 must be positive")
    if not 0.0 <= b <= 1.0:
        raise ValueError("b must lie in [0, 1]")
    n = len(documents)
    df: Counter = Counter()
    for doc in documents:
        for term in doc.tf:
            df[term] += 1
    idf = {term: math.log((n - count + 0.5) / (count + 0.5)) for term, count in df.items()}
    avgdl = (sum(doc.length for doc in documents) / n) if n else 0.0
    return Bm25Index(documents, idf, avgdl, k1, b)


def build_bm25_index(commits, k1: float = BM25_K1, b: float = BM25_B) -> Bm25Index:
    """Index raw subjects+bodies with the identifier-aware tokenizer."""
    return index_bm25_documents([tokenize_commit(commit) for commit in commits], k1, b)


def bm25_query(index: Bm25Index, query: str, k: int = 10) -> list[tuple[Commit, float]]:
    """Okapi BM25 top-k; every document sharing a term is a candidate."""
    query_terms = tokenize(query)
    if not query_terms:
        return []
    scored: list[tuple[Commit, float]] = []
    for doc in index.documents:
        shared = [term for term in query_terms if term in doc.tf]
        if not shared:
            continue
        norm = index.k1 * (1.0 - index.b + index.b * doc.length / index.avgdl)
        score = 0.0
        for term in shared:
            freq = doc.tf[term]
            score += index.idf[term] * freq * (index.k1 + 1.0) / (freq + norm)
        scored.append((doc.commit, score))
    scored.sort(key=lambda item: (-item[1], item[0].sha))
    return scored[:k]
