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
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
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


class Document:
    """What a ranker scores: the item it returns (a unit for TF-IDF, a commit
    for BM25) and the item's text. The text's term counts ``tf`` and its
    ``length`` are plain attributes, filled by ``terms()`` when a query first
    needs them; until then ``tf`` is None."""

    __slots__ = ("item", "text", "tf", "length")

    def __init__(self, item: Any, text: str) -> None:
        self.item = item
        self.text = text
        self.tf: Counter | None = None
        self.length = 0

    def terms(self) -> Counter:
        """``tf``, tokenizing the text on first call. ``tf`` marks the
        document filled, so ``length`` is stored first: whoever sees ``tf``
        also sees its length."""
        tf = self.tf
        if tf is None:
            tf = tokenize(self.text)
            self.length = sum(tf.values())
            self.tf = tf
        return tf


class RetrievalIndex:
    """Documents and, per term, the positions of the documents holding it.

    A term's postings are found when a query first asks for the term, then
    kept. Queries fill these caches, and an index stays safe to share across
    concurrent queries: each entry is computed whole before it is stored in
    one assignment, and two queries that race compute the same value.
    """

    __slots__ = ("documents", "_postings", "_folded")

    def __init__(self, documents: list[Document]) -> None:
        self.documents = documents
        self._postings: dict[str, list[int]] = {}
        self._folded: tuple[str, list[int]] | None = None

    def postings(self, term: str) -> list[int]:
        """Positions of the documents holding ``term``. Only documents whose
        folded text contains the folded term are tokenized, so every document
        listed has its ``tf`` and ``length`` filled."""
        positions = self._postings.get(term)
        if positions is None:
            documents = self.documents
            positions = [idx for idx in self._containing(term.casefold()) if term in documents[idx].terms()]
            self._postings[term] = positions
        return positions

    def _containing(self, needle: str) -> list[int]:
        """Positions of the documents whose casefolded text contains
        ``needle``, found by searching all of them joined into one string.

        The search never misses a holder: ``casefold`` maps each character
        on its own, so a token's fold is a substring of its text's fold.
        ``lower`` is not enough: ``tokenize("AΣ")`` gives ``aς``, but
        ``"AΣ'B".lower()`` holds ``aσ``. A match across the joint of two
        texts only adds a candidate, which the caller's ``tf`` test drops.
        """
        if self._folded is None:
            texts = [doc.text.casefold() for doc in self.documents]
            starts = list(accumulate((len(text) + 1 for text in texts), initial=0))
            self._folded = ("\n".join(texts), starts)
        joined, starts = self._folded
        found: list[int] = []
        at = joined.find(needle)
        while at >= 0:
            idx = bisect_right(starts, at) - 1
            found.append(idx)
            at = joined.find(needle, starts[idx + 1])
        return found


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


def build_index(units) -> RetrievalIndex:
    """An index over unit contents; postings are found per query term."""
    return RetrievalIndex([Document(unit, unit.content) for unit in units])


def lookup(index: RetrievalIndex, terms) -> tuple[dict[str, int], set[int]]:
    """df of each of ``terms`` the corpus holds, and the positions of the
    documents holding at least one of them."""
    df: dict[str, int] = {}
    candidates: set[int] = set()
    for term in terms:
        positions = index.postings(term)
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

