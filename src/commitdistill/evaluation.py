"""Measurement machinery: budget-constrained hit rates, threshold sweeps,
time-travel regression finding, Cohen's kappa, and bootstrap intervals.

Retrievers are plugged in as callables so every experiment runs identically
over the distilled store and over the lexical baselines.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

from . import gitio
from .baselines import Bm25Index, grep_search
from .extraction import commit_units
from .gitio import Commit
from .retrieval import (
    DEFAULT_BOOSTS,
    DEFAULT_THETA,
    EVAL_K,
    Document,
    Postings,
    RetrievalIndex,
    query,
    score_documents,
    tfidf_idf,
    tokenize,
)

QUERY_CLASSES = ("ANSWERABLE", "NOT_IN_CORPUS", "OOD", "FACT_STYLE")
LABEL_CLASSES = ("useful", "trivially-true", "fragment", "noise")
LABEL_FIELDS = ("unit_id", "annotator_a", "annotator_b", "adjudicated")

_PIN_RE = re.compile(r"[0-9a-fA-F]{7,40}")
BUG_FIX_RE = re.compile(r"\b(?:fix(?:es|ed)?|bug|regression|crash|fault)\b", re.IGNORECASE)

DEFAULT_BUDGETS = (64, 128, 256, 512, 1024, 2048)
DEFAULT_THETA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_WINDOW = 5000

# A retriever maps a query to a ranked list of candidate texts (budget
# experiments) or, for time travel, (window, query) to ranked commit shas.
TextRetriever = Callable[[str], list[str]]
CommitRetriever = Callable[[list[Commit], str], list[str]]


class InsufficientFixes(ValueError):
    """The repository has fewer qualifying bug-fix commits than requested."""


@dataclass
class BenchQuery:
    query: str
    answer_span: str
    query_class: str
    subject_repo: str = ""

    def __post_init__(self) -> None:
        if self.query_class not in QUERY_CLASSES:
            raise ValueError(f"unknown query class: {self.query_class!r}")
        needs_span = self.query_class in ("ANSWERABLE", "FACT_STYLE")
        if needs_span and not self.answer_span:
            raise ValueError(f"{self.query_class} query {self.query!r} needs an answer span")
        if not needs_span and self.answer_span:
            raise ValueError(f"{self.query_class} query {self.query!r} must not carry a span")


@dataclass
class LabelRecord:
    unit_id: str
    annotator_a: str
    annotator_b: str
    adjudicated: str

    def __post_init__(self) -> None:
        for label in (self.annotator_a, self.annotator_b, self.adjudicated):
            if label not in LABEL_CLASSES:
                raise ValueError(f"label {label!r} outside the four-class rubric")


@dataclass
class TimeTravelCase:
    fix: Commit
    window: list[Commit]
    ground_truth: set[str] = field(default_factory=set)


def budget_pack(candidates: Sequence[str], budget: float) -> list[str]:
    """Greedy skip-and-continue packing of ranked candidates into a budget."""
    if not budget > 0:
        raise ValueError("budget must be positive")
    packed: list[str] = []
    remaining = budget
    for text in candidates:
        if len(text) <= remaining:
            packed.append(text)
            remaining -= len(text)
    return packed


def budget_hit(packed: Sequence[str], answer_span: str) -> bool:
    """Case-insensitive substring containment over the packed candidates."""
    if not answer_span:
        raise ValueError("answer_span must be nonempty")
    needle = answer_span.lower()
    return any(needle in text.lower() for text in packed)


def jackknife_min(per_query_hits: Sequence[bool]) -> float:
    """Smallest hit-rate over the leave-one-out subsets."""
    n = len(per_query_hits)
    if n < 2:
        raise ValueError("jackknife needs at least two queries")
    total = sum(bool(hit) for hit in per_query_hits)
    return min((total - int(bool(hit))) / (n - 1) for hit in per_query_hits)


def budget_sweep(
    queries: Sequence[BenchQuery],
    retrievers: dict[str, TextRetriever],
    budgets: Sequence[float] = DEFAULT_BUDGETS,
) -> dict[str, dict]:
    """Hit-rate per (retriever, budget) over top-10 rankings, plus the
    unconstrained Hit@10 and median top-1 length rows."""
    results: dict[str, dict] = {}
    for name, retrieve in retrievers.items():
        rankings = [retrieve(bench.query)[:EVAL_K] for bench in queries]
        per_query_hits: dict[float, list[bool]] = {}
        for budget in budgets:
            per_query_hits[budget] = [
                budget_hit(budget_pack(ranked, budget), bench.answer_span)
                for ranked, bench in zip(rankings, queries)
            ]
        unconstrained = [
            budget_hit(ranked, bench.answer_span) if ranked else False
            for ranked, bench in zip(rankings, queries)
        ]
        top1_lengths = [len(ranked[0]) for ranked in rankings if ranked]
        results[name] = {
            "per_query_hits": per_query_hits,
            "hit_rate_by_budget": {
                budget: sum(hits) / len(hits) for budget, hits in per_query_hits.items()
            },
            "unconstrained_hit_at_10": sum(unconstrained) / len(unconstrained),
            "median_top1_length": float(statistics.median(top1_lengths)) if top1_lengths else 0.0,
        }
    return results


def threshold_sweep(
    index: RetrievalIndex,
    queries: Sequence[BenchQuery],
    theta_grid: Sequence[float] = DEFAULT_THETA_GRID,
) -> list[dict]:
    """Per-class fraction of queries returning at least one hit, per theta.

    Each query is scored once, on the caller's CD-v1 or CD-v2 index: it
    answers at theta exactly when its best score is at least theta.
    """
    if any(not theta >= 0 for theta in theta_grid):  # NaN fails this too
        raise ValueError("theta must be >= 0")
    best_by_class: dict[str, list[float]] = {}
    for bench in queries:
        hits = query(index, bench.query, k=1, theta=0.0)
        best_by_class.setdefault(bench.query_class, []).append(hits[0].score if hits else -math.inf)
    rows: list[dict] = []
    for theta in theta_grid:
        row: dict = {"theta": theta}
        for cls, bests in sorted(best_by_class.items()):
            row[cls] = sum(1 for best in bests if best >= theta) / len(bests)
        rows.append(row)
    return rows


def rank_metrics(rankings: Sequence[Sequence[str]], truths: Sequence[set[str]]) -> dict[str, float]:
    """Hit@1/3/10 and MRR over ranked sha lists; ranks beyond 10 score 0."""
    if len(rankings) != len(truths):
        raise ValueError("rankings and truths must align")
    n = len(rankings)
    if n == 0:
        raise ValueError("no cases to evaluate")
    hits = {1: 0, 3: 0, 10: 0}
    reciprocal = 0.0
    for ranked, truth in zip(rankings, truths):
        best = None
        for position, sha in enumerate(ranked[:10], start=1):
            if sha in truth:
                best = position
                break
        if best is not None:
            reciprocal += 1.0 / best
            for cutoff in hits:
                if best <= cutoff:
                    hits[cutoff] += 1
    return {
        "hit_at_1": hits[1] / n,
        "hit_at_3": hits[3] / n,
        "hit_at_10": hits[10] / n,
        "mrr": reciprocal / n,
    }


def time_travel_cases(
    repo_path,
    n_fixes: int,
    window_size: int = DEFAULT_WINDOW,
) -> list[TimeTravelCase]:
    """Most recent bug-fix commits with at least one prior co-changing fix.

    For each selected fix the window holds the first ``window_size`` commits,
    in ``git log`` order, whose author dates are strictly earlier; ground
    truth is the window subset that both matches the bug-fix selector and
    shares a changed file with the fix. The whole history is listed in one
    git call; the file sets come from a second, which runs alongside it and
    is read only as far as the fixes and their windows reach, so only those
    commits get ``changed_files``.
    """
    cases: list[TimeTravelCase] = []
    with gitio.ChangedFiles(repo_path) as files:
        commits = files.commits
        epochs = [commit.author_epoch for commit in commits]
        is_fix = [bool(BUG_FIX_RE.search(commit.subject)) for commit in commits]
        for position, fix in enumerate(commits):
            if len(cases) == n_fixes:
                break
            if not is_fix[position]:
                continue
            cutoff = fix.author_epoch
            reach = list(islice(compress(count(), map(cutoff.__gt__, epochs)), window_size))
            if not reach:
                continue
            files.through(max(position, reach[-1]))
            truth = {
                commits[at].sha
                for at in reach
                if is_fix[at] and commits[at].changed_files & fix.changed_files
            }
            if truth:
                cases.append(TimeTravelCase(fix, [commits[at] for at in reach], truth))
    if len(cases) < n_fixes:
        raise InsufficientFixes(
            f"found {len(cases)} qualifying bug-fix commits, needed {n_fixes}"
        )
    return cases


def score_cases(cases: Sequence[TimeTravelCase], retriever: CommitRetriever) -> dict[str, float]:
    """Run a retriever over every case; all state derives from pre-fix commits."""
    rankings = [
        retriever(case.window, gitio.clean_subject(case.fix.subject))[:10] for case in cases
    ]
    metrics = rank_metrics(rankings, [case.ground_truth for case in cases])
    metrics["n_fixes"] = float(len(cases))
    return metrics


class CommitDocuments:
    """The CD-v1/CD-v2 documents, each commit's units extracted once, and
    tokenized at most once.

    A corpus's or window's new commits are extracted in one ``commit_units``
    batch, fallback enabled, which serves both modes: CD-v1 reads a commit's
    rule units, CD-v2 the same documents or, on a rule-silent commit, its
    subject fallback. ``index`` builds one index over a list of commits, for
    ``eval sweep``, and tokenizes a unit only when a query needs it.
    ``rank`` serves the time-travel windows from run-wide postings, to
    which a commit's documents are added, under its sha, when a window first
    holds it, for both modes at once: the rule units in one postings, and
    the fallback units, which only CD-v2 reads, in another.
    """

    def __init__(self) -> None:
        # Per extracted commit, its documents as CD-v1 and as CD-v2 see them:
        # one list twice, or, on a rule-silent commit, [] and its fallback's.
        self._docs: dict[str, tuple[list[Document], list[Document]]] = {}
        self._postings = {False: Postings(), True: Postings()}  # by "is a fallback unit"
        # Per posted commit, the (unit id, sha) pairs of its units as CD-v1
        # and as CD-v2 see them.
        self._ids: dict[bool, dict[str, tuple[tuple[str, str], ...]]] = {False: {}, True: {}}

    def _extract(self, commits: Iterable[Commit]) -> None:
        """Extract, in one batch, those of ``commits`` not yet extracted."""
        new = {commit.sha: commit for commit in commits if commit.sha not in self._docs}
        for sha, (units, fallback) in zip(new, commit_units(list(new.values()), fallback_enabled=True)):
            docs = [Document(unit, unit.content) for unit in units]
            self._docs[sha] = ([] if fallback else docs, docs)

    def index(self, commits: Sequence[Commit], fallback_enabled: bool) -> RetrievalIndex:
        """The same index as ``build_index(extract_commits(commits, fallback_enabled))``:
        per unit id, the document of the first of ``commits`` that yields it."""
        self._extract(commits)
        owned: dict[str, Document] = {}
        for commit in commits:
            for doc in self._docs[commit.sha][fallback_enabled]:
                owned.setdefault(doc.item.id, doc)
        return RetrievalIndex([owned[uid] for uid in sorted(owned)])

    def _post(self, sha: str) -> None:
        """Post an extracted commit's documents for both modes: its rule
        documents, or, on a rule-silent commit, its fallback documents."""
        rule_docs, docs = self._docs[sha]
        postings = self._postings[not rule_docs]
        for doc in docs:
            postings.add(sha, doc)
        pairs = tuple((doc.item.id, sha) for doc in docs)
        self._ids[False][sha] = pairs if rule_docs else ()
        self._ids[True][sha] = pairs

    def rank(
        self, window: Sequence[Commit], query_text: str, fallback_enabled: bool, theta: float
    ) -> list[str]:
        """The shas of the commits owning the best units for ``query_text``
        among those ``window`` yields, as ``query`` ranks them over
        ``index(window, fallback_enabled)``; each sha once, at most EVAL_K.

        A unit belongs to the first commit of the window that yields it,
        which gives it that commit's document, weight and sha. The owner map
        is read from the window's (unit id, sha) pairs, last commit first, so
        that the first commit to yield an id is written last; N is its size.
        A candidate is a posted document that the query's postings reach
        under the sha owning its unit.
        """
        ids = self._ids[fallback_enabled]
        unposted = {commit.sha: commit for commit in window if commit.sha not in ids}
        self._extract(unposted.values())
        for sha in unposted:
            self._post(sha)
        query_tf = tokenize(query_text)
        if not query_tf:
            return []
        shas = [commit.sha for commit in window]
        owner = dict(chain.from_iterable(map(ids.__getitem__, reversed(shas))))
        members = set(shas)
        rules, fallbacks = self._postings[False], self._postings[True]
        sources = (rules, fallbacks) if fallback_enabled else (rules,)
        candidates = {
            doc.item.id: doc
            for postings in sources
            for term in query_tf
            for sha, doc in postings.within(term, members)
            if owner[doc.item.id] == sha
        }
        terms = query_tf.keys()
        df = Counter(chain.from_iterable(terms & doc.tf.keys() for doc in candidates.values()))
        hits = score_documents(candidates.values(), query_tf, tfidf_idf(len(owner), df), theta, DEFAULT_BOOSTS)
        # A hit resolves through the commit owning its unit, not through the
        # unit's 8-digit short sha, which two window commits may share.
        ranked: list[str] = []
        for hit in hits[: max(50, EVAL_K)]:
            sha = owner[hit.unit.id]
            if sha not in ranked:
                ranked.append(sha)
                if len(ranked) == EVAL_K:
                    break
        return ranked


def cd_retriever(fallback_enabled: bool = True, theta: float = DEFAULT_THETA) -> CommitRetriever:
    """Distilled-store retriever; candidates resolve to their source commits."""
    return cd_retrievers(theta)["cd_v2" if fallback_enabled else "cd_v1"]


def cd_retrievers(theta: float = DEFAULT_THETA) -> dict[str, CommitRetriever]:
    """CD-v1 (rules only) and CD-v2 (with the subject fallback), extracting
    and tokenizing each window commit once for both."""
    if not theta >= 0:
        raise ValueError("theta must be >= 0")
    documents = CommitDocuments()
    return {
        "cd_v1": lambda window, query_text: documents.rank(window, query_text, False, theta),
        "cd_v2": lambda window, query_text: documents.rank(window, query_text, True, theta),
    }


def bm25_retriever() -> CommitRetriever:
    """BM25 over each window, from one run-wide index to which a commit is
    added, tokenized, when a window first holds it."""
    index = Bm25Index()

    def run(window: list[Commit], query_text: str) -> list[str]:
        index.add(window)
        shas = [commit.sha for commit in window]
        return [commit.sha for commit, _ in index.search(shas, query_text, EVAL_K)]

    return run


def grep_retriever() -> CommitRetriever:
    def run(window: list[Commit], query_text: str) -> list[str]:
        return [commit.sha for commit, _ in grep_search(window, query_text, k=EVAL_K)]

    return run


def cohen_kappa(labels_a: Sequence[str], labels_b: Sequence[str]) -> float:
    """Chance-corrected agreement; expected agreement from marginal products."""
    if len(labels_a) != len(labels_b):
        raise ValueError("label sequences must have equal length")
    n = len(labels_a)
    if n == 0:
        raise ValueError("label sequences must be nonempty")
    observed = sum(1 for a, b in zip(labels_a, labels_b) if a == b) / n
    counts_a = Counter(labels_a)
    counts_b = Counter(labels_b)
    expected = sum(
        counts_a[category] * counts_b[category] for category in set(counts_a) | set(counts_b)
    ) / (n * n)
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[Sequence[float]], float],
    resamples: int = 10000,
    seed: int = 42,
) -> tuple[float, float]:
    """95 % percentile bootstrap interval over with-replacement resamples."""
    if not samples:
        raise ValueError("samples must be nonempty")
    rng = random.Random(seed)
    n = len(samples)
    values = sorted(
        statistic([samples[rng.randrange(n)] for _ in range(n)]) for _ in range(resamples)
    )
    alpha = (1.0 - 0.95) / 2.0
    lo_index = int(math.floor(alpha * resamples))
    hi_index = min(resamples - 1, int(math.ceil((1.0 - alpha) * resamples)) - 1)
    return values[lo_index], values[hi_index]


def _json_entries(
    path: Path | str, kind: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> list[dict]:
    """The objects of a JSON array file, each with string ``required`` fields
    and, where present, string ``optional`` ones; anything else raises a
    ValueError naming the file and the entry's position."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    # JSONDecodeError, UnicodeDecodeError, an over-long int; nesting deeper
    # than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{kind} file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(payload, list):
        raise ValueError(f"{kind} file {path} must hold a JSON array")
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValueError(f"{kind} file {path} entry {position} is not a JSON object")
        missing = [name for name in required if name not in entry]
        if missing:
            raise ValueError(f"{kind} file {path} entry {position} lacks {', '.join(missing)}")
        for name in (*required, *optional):
            if name in entry and not isinstance(entry[name], str):
                raise ValueError(f"{kind} file {path} entry {position} has a non-string {name}")
    return payload


def load_benchmark(path: Path | str) -> list[BenchQuery]:
    """JSON array of {query, answer_span, query_class, subject_repo} objects."""
    payload = _json_entries(path, "benchmark", ("query", "query_class"), ("answer_span", "subject_repo"))
    queries: list[BenchQuery] = []
    for position, entry in enumerate(payload):
        try:
            queries.append(
                BenchQuery(
                    query=entry["query"],
                    answer_span=entry.get("answer_span", ""),
                    query_class=entry["query_class"],
                    subject_repo=entry.get("subject_repo", ""),
                )
            )
        except ValueError as exc:
            raise ValueError(f"benchmark file {path} entry {position}: {exc}") from None
    return queries


def load_labels(path: Path | str) -> list[LabelRecord]:
    """CSV with header unit_id,annotator_a,annotator_b,adjudicated and one row
    per unit; a bad file raises a ValueError naming the file and the line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8-sig")  # spreadsheet exports lead with a byte-order mark
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"labels file {path} line {line} is not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or tuple(header) != LABEL_FIELDS:
        raise ValueError(f"labels file {path} must carry the header {','.join(LABEL_FIELDS)}")
    records: list[LabelRecord] = []
    line_of: dict[str, int] = {}
    for row in reader:
        if not row:
            continue
        if len(row) != len(LABEL_FIELDS):
            raise ValueError(
                f"labels file {path} line {reader.line_num} has {len(row)} fields, not {len(LABEL_FIELDS)}"
            )
        if row[0] in line_of:
            raise ValueError(
                f"labels file {path} line {reader.line_num} repeats unit_id {row[0]!r} of line {line_of[row[0]]}"
            )
        line_of[row[0]] = reader.line_num
        try:
            records.append(LabelRecord(*row))
        except ValueError as exc:
            raise ValueError(f"labels file {path} line {reader.line_num}: {exc}") from None
    return records


def load_manifest(path: Path | str) -> list[dict]:
    """JSON array of {name, path, sha} pinned-snapshot objects; a sha is 7 to
    40 hex digits, a prefix of the pinned commit's."""
    payload = _json_entries(path, "manifest", ("path", "sha"))
    for position, entry in enumerate(payload):
        if not _PIN_RE.fullmatch(entry["sha"]):
            raise ValueError(
                f"manifest file {path} entry {position} pins sha {entry['sha']!r}, not 7 to 40 hex digits"
            )
    return payload


def verify_manifest(manifest: Sequence[dict]) -> list[dict]:
    """Check that every pinned repository sits at its pinned sha.

    Entries are {name, path, sha}; a mismatch raises ValueError so stale
    snapshots never masquerade as reference reproductions.
    """
    verified: list[dict] = []
    for entry in manifest:
        path = entry["path"]
        pinned = entry["sha"].lower()
        head = gitio.head_sha(path).lower()
        if not head.startswith(pinned):
            raise ValueError(
                f"snapshot {entry.get('name', path)} is at {head[:12]}, manifest pins {pinned[:12]}"
            )
        verified.append({**entry, "head": head})
    return verified
