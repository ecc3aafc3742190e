"""Length-normalized TF-IDF retrieval with type boosts and a silence threshold.

Scoring: for each document sharing at least one term with the query,

    s = sum over shared terms of (1 + log tf_d) * (1 + log tf_q) * idf
    idf = log(N / df), computed per query for the query's terms only
    s = s / sqrt(max(1, |d|))
    s = s * boost[type] * (0.5 + 0.5 * weight)

and only documents with s >= theta are returned. An empty result is the
abstention contract, not an error.

``score_documents`` is that scoring, shared by ``query`` over a
``RetrievalIndex`` and by the time-travel CD retrievers, which search each
window through run-wide ``Postings`` instead of an index of its own.
``tokenize`` splits each distinct word once per process and keeps its tokens.
"""
from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any

from .store import KnowledgeUnit

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
    ``length`` are plain attributes, filled by ``terms()`` when first needed
    (for TF-IDF by a query, for BM25 when the commit is added); until then
    ``tf`` is None."""

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
        self._folded: list[str] | None = None

    def postings(self, term: str) -> list[int]:
        """Positions of the documents holding ``term``. Only documents whose
        casefolded text contains the folded term are tokenized, so every
        document listed has its ``tf`` and ``length`` filled.

        The text test never misses a holder: ``casefold`` maps each character
        on its own, so a token's fold is a substring of its text's fold.
        ``lower`` is not enough: ``tokenize("AΣ")`` gives ``aς``, but
        ``"AΣ'B".lower()`` holds ``aσ``.
        """
        positions = self._postings.get(term)
        if positions is None:
            folded = self._folded
            if folded is None:
                folded = self._folded = [doc.text.casefold() for doc in self.documents]
            needle = term.casefold()
            documents = self.documents
            positions = [
                idx for idx, text in enumerate(folded) if needle in text and term in documents[idx].terms()
            ]
            self._postings[term] = positions
        return positions


class Postings:
    """Postings that grow as documents are added: per term, the (key,
    document) pairs holding it, in the order they were added. A subset of
    the documents is searched through a membership test on their keys, with
    no index of its own."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: defaultdict[str, list[tuple[Any, Document]]] = defaultdict(list)

    def add(self, key: Any, doc: Document) -> None:
        """Post ``doc`` under ``key``, tokenizing it if it is not yet."""
        entries = self._entries
        pair = (key, doc)
        for term in doc.terms():
            entries[term].append(pair)

    def within(self, term: str, members) -> list[tuple[Any, Document]]:
        """The pairs holding ``term`` whose key is in ``members``."""
        return [entry for entry in self._entries.get(term, ()) if entry[0] in members]


# Per distinct raw word, its tokens; see ``tokenize``. Entries are computed
# whole and stored in one assignment, so concurrent callers stay safe. The
# table is emptied when it would pass _WORD_TOKENS_MAX words (a 10k-commit
# history holds about 18k), so a long-lived caller's memory stays bounded.
_WORD_TOKENS: dict[str, list[str]] = {}
_WORD_TOKENS_MAX = 1 << 16


def _word_tokens(raw: str) -> list[str]:
    lowered = raw.lower()
    parts = _CAMEL_RE.findall(raw)
    if len(parts) > 1 or (parts and parts[0].lower() != lowered):
        return [lowered, *[part.lower() for part in parts if not part.isdigit()]]
    return [lowered]


def tokenize(text: str) -> Counter:
    """Lower-cased word tokens; identifiers also contribute their pieces.

    A decomposable identifier keeps its original (lower-cased) form alongside
    the constituent words; purely numeric pieces are dropped. Each distinct
    word is split once and its tokens kept, up to _WORD_TOKENS_MAX words.
    """
    known = _WORD_TOKENS
    tokens: list[str] = []
    for raw in _WORD_RE.findall(text):
        pieces = known.get(raw)
        if pieces is None:
            if len(known) >= _WORD_TOKENS_MAX:
                known.clear()
            pieces = known[raw] = _word_tokens(raw)
        tokens += pieces
    return Counter(tokens)


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


def tfidf_idf(n: int, df: dict[str, int]) -> dict[str, float]:
    """idf = log(N / df) for each term of ``df`` in a corpus of ``n``
    documents. A single-document corpus gets add-one smoothing
    (log((N+1)/df)) so the degenerate corpus stays retrievable."""
    numerator = n + 1 if n == 1 else n
    return {term: math.log(numerator / count) for term, count in df.items()}


def score_documents(
    documents, query_tf: Counter, idf: dict[str, float], theta: float, boosts: BoostTable
) -> list[RankedHit]:
    """The hits among ``documents`` scoring at least theta, best first, ties
    on ascending unit id. Each document's ``tf`` must be filled, and ``idf``
    must hold every query term that a document holds. A document's shared
    terms are summed in ``query_tf``'s order."""
    weights = [
        (term, 1.0 + math.log(query_freq), idf[term])
        for term, query_freq in query_tf.items()
        if term in idf
    ]
    hits: list[RankedHit] = []
    for doc in documents:
        tf = doc.tf
        score = 0.0
        for term, query_weight, term_idf in weights:
            doc_freq = tf.get(term)
            if doc_freq:
                score += (1.0 + math.log(doc_freq)) * query_weight * term_idf
        score /= math.sqrt(max(1, doc.length))
        score *= boosts.for_type(doc.item.unit_type) * (0.5 + 0.5 * doc.item.weight)
        if score >= theta:
            hits.append(RankedHit(doc.item, score))
    hits.sort(key=lambda hit: (-hit.score, hit.unit.id))
    return hits


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
    if not theta >= 0:
        raise ValueError("theta must be >= 0")
    query_tf = tokenize(q)
    if not query_tf:
        return []
    df, candidates = lookup(index, query_tf)
    documents = index.documents
    idf = tfidf_idf(len(documents), df)
    return score_documents([documents[i] for i in candidates], query_tf, idf, theta, boosts)[:k]
