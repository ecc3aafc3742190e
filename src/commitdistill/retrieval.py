"""Length-normalized TF-IDF retrieval with type boosts and a silence threshold.

Scoring: for each document sharing at least one term with the query,

    s = sum over shared terms of (1 + log tf_d) * (1 + log tf_q) * idf
    idf = log(N / df), computed per query for the query's terms only
    s = s / sqrt(max(1, |d|))
    s = s * boost[type] * (0.5 + 0.5 * weight)

and only documents with s >= theta are returned. An empty result is the
abstention contract, not an error.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any

from .extraction import KnowledgeUnit

_WORD_RE = re.compile(r"\w+")
# camelCase, ALL_CAPS and digit pieces; no piece holds "_", so snake_case
# splits at it too.
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")


@dataclass(frozen=True)
class BoostTable:
    """Per-type score multipliers; failure-mode knowledge ranks highest."""

    pattern: float = 1.2
    skill: float = 1.1
    fact: float = 1.0

    def __post_init__(self) -> None:
        if min(self.pattern, self.skill, self.fact) <= 0:
            raise ValueError("boost multipliers must be positive")

    def for_type(self, unit_type: str) -> float:
        return getattr(self, unit_type)


DEFAULT_BOOSTS = BoostTable()
NEUTRAL_BOOSTS = BoostTable(pattern=1.0, skill=1.0, fact=1.0)

DEFAULT_K = 3
EVAL_K = 10
DEFAULT_THETA = 2.5


@dataclass
class RankedHit:
    unit: KnowledgeUnit
    score: float


@dataclass
class Document:
    """What a ranker scores: the item it returns (a unit for TF-IDF, a commit
    for BM25), with the term counts and length of the item's text."""

    item: Any
    tf: Counter
    length: int

    @classmethod
    def of(cls, item, text: str) -> "Document":
        tf = tokenize(text)
        return cls(item, tf, sum(tf.values()))


@dataclass
class RetrievalIndex:
    """Documents and, per term, the positions of the documents holding it.

    Immutable after build; safe to share across read-only queries.
    """

    documents: list[Document]
    postings: dict[str, list[int]]


def tokenize(text: str) -> Counter:
    """Lower-cased word tokens; identifiers also contribute their pieces.

    A decomposable identifier keeps its original (lower-cased) form alongside
    the constituent words; purely numeric pieces are dropped.
    """
    counts: Counter = Counter()
    for raw in _WORD_RE.findall(text):
        lowered = raw.lower()
        parts = _CAMEL_RE.findall(raw)
        decomposed = len(parts) > 1 or (parts and parts[0].lower() != lowered)
        counts[lowered] += 1
        if decomposed:
            for part in parts:
                if not part.isdigit():
                    counts[part.lower()] += 1
    return counts


def index_documents(documents: list[Document]) -> RetrievalIndex:
    """The corpus half of an index build: postings; df is a postings length."""
    postings: dict[str, list[int]] = defaultdict(list)
    for idx, doc in enumerate(documents):
        for term in doc.tf:
            postings[term].append(idx)
    return RetrievalIndex(documents, dict(postings))


def build_index(units) -> RetrievalIndex:
    """Term counts, doc lengths and postings over unit contents."""
    return index_documents([Document.of(unit, unit.content) for unit in units])


def lookup(index: RetrievalIndex, terms) -> tuple[dict[str, int], set[int]]:
    """df of each of ``terms`` the corpus holds, and the positions of the
    documents holding at least one of them."""
    df: dict[str, int] = {}
    candidates: set[int] = set()
    for term in terms:
        positions = index.postings.get(term)
        if positions:
            df[term] = len(positions)
            candidates.update(positions)
    return df, candidates


def query(
    index: RetrievalIndex,
    q: str,
    k: int = DEFAULT_K,
    theta: float = DEFAULT_THETA,
    boosts: BoostTable = DEFAULT_BOOSTS,
) -> list[RankedHit]:
    """Top-k hits scoring at least theta; ties break on ascending unit id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if theta < 0:
        raise ValueError("theta must be >= 0")
    query_tf = tokenize(q)
    if not query_tf:
        return []
    df, candidates = lookup(index, query_tf)
    # A single-document corpus gets add-one smoothing (log((N+1)/df)) so the
    # degenerate corpus stays retrievable.
    n = len(index.documents)
    numerator = n + 1 if n == 1 else n
    idf = {term: math.log(numerator / count) for term, count in df.items()}
    hits: list[RankedHit] = []
    for doc_index in candidates:
        doc = index.documents[doc_index]
        score = 0.0
        for term, query_freq in query_tf.items():
            doc_freq = doc.tf.get(term)
            if doc_freq:
                score += (
                    (1.0 + math.log(doc_freq))
                    * (1.0 + math.log(query_freq))
                    * idf[term]
                )
        score /= math.sqrt(max(1, doc.length))
        score *= boosts.for_type(doc.item.unit_type) * (0.5 + 0.5 * doc.item.weight)
        if score >= theta:
            hits.append(RankedHit(doc.item, score))
    hits.sort(key=lambda hit: (-hit.score, hit.unit.id))
    return hits[:k]

