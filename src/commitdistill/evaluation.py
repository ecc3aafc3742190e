"""Measurement machinery: budget-constrained hit rates, threshold sweeps,
time-travel regression finding, Cohen's kappa, and bootstrap intervals.

Retrievers are plugged in as callables so every experiment runs identically
over the distilled store and over the lexical baselines.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
import statistics
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

from . import gitio
from .baselines import (
    Bm25Document,
    bm25_query,
    grep_search,
    index_bm25_documents,
    tokenize_commit,
)
from .extraction import extract_commit_units, subject_fallback_unit
from .gitio import Commit
from .retrieval import (
    DEFAULT_THETA,
    EVAL_K,
    IndexedDocument,
    RetrievalIndex,
    index_documents,
    query,
    tokenize_unit,
)

QUERY_CLASSES = ("ANSWERABLE", "NOT_IN_CORPUS", "OOD", "FACT_STYLE")
LABEL_CLASSES = ("useful", "trivially-true", "fragment", "noise")
LABEL_FIELDS = ("unit_id", "annotator_a", "annotator_b", "adjudicated")

BUG_FIX_RE = re.compile(r"\b(?:fix(?:es|ed)?|bug|regression|crash|fault)\b", re.IGNORECASE)

DEFAULT_BUDGETS = (64, 128, 256, 512, 1024, 2048)
DEFAULT_THETA_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_WINDOW = 5000

# A retriever maps a query to a ranked list of candidate texts (budget
# experiments) or, for time travel, (window, query) to ranked commit shas.
TextRetriever = Callable[[str], list[str]]
CommitRetriever = Callable[[list[Commit], str], list[str]]


class InsufficientFixes(RuntimeError):
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
    if budget <= 0:
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
    shares a changed file with the fix. The history is read in one git call.
    """
    commits = gitio.list_commits_with_files(repo_path)
    cases: list[TimeTravelCase] = []
    for fix in commits:
        if len(cases) == n_fixes:
            break
        if not BUG_FIX_RE.search(fix.subject):
            continue
        cutoff = fix.author_epoch
        window = list(islice((c for c in commits if c.author_epoch < cutoff), window_size))
        truth = {
            c.sha
            for c in window
            if BUG_FIX_RE.search(c.subject) and c.changed_files & fix.changed_files
        }
        if not truth:
            continue
        cases.append(TimeTravelCase(fix, window, truth))
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
    """The CD-v1/CD-v2 indexes, each commit's units extracted and tokenized once.

    The rule units are shared by CD-v1 and CD-v2; CD-v2 adds the subject
    fallback on rule-silent commits, as extract_commit_units does.
    """

    def __init__(self) -> None:
        self._rule_docs: dict[str, list[IndexedDocument]] = {}
        self._fallback_docs: dict[str, list[IndexedDocument]] = {}

    def _of(self, commit: Commit, fallback_enabled: bool) -> list[IndexedDocument]:
        if commit.sha not in self._rule_docs:
            units = extract_commit_units(commit, fallback_enabled=False)
            self._rule_docs[commit.sha] = [tokenize_unit(unit) for unit in units]
        docs = self._rule_docs[commit.sha]
        if docs or not fallback_enabled:
            return docs
        if commit.sha not in self._fallback_docs:
            unit = subject_fallback_unit(commit)
            self._fallback_docs[commit.sha] = [] if unit is None else [tokenize_unit(unit)]
        return self._fallback_docs[commit.sha]

    def index(self, commits: Sequence[Commit], fallback_enabled: bool) -> RetrievalIndex:
        """The same index as ``build_index(extract_commits(commits, fallback_enabled))``."""
        by_id: dict[str, IndexedDocument] = {}
        for commit in commits:
            for doc in self._of(commit, fallback_enabled):
                by_id.setdefault(doc.unit.id, doc)
        return index_documents([by_id[uid] for uid in sorted(by_id)])


def _cd_run(documents: CommitDocuments, fallback_enabled: bool, theta: float) -> CommitRetriever:
    def run(window: list[Commit], query_text: str) -> list[str]:
        short_to_full = {commit.short_sha: commit.sha for commit in window}
        index = documents.index(window, fallback_enabled)
        hits = query(index, query_text, k=max(50, EVAL_K), theta=theta)
        shas: list[str] = []
        for hit in hits:
            full = short_to_full.get(hit.unit.meta.get("commit", ""))
            if full and full not in shas:
                shas.append(full)
            if len(shas) == EVAL_K:
                break
        return shas

    return run


def cd_retriever(fallback_enabled: bool = True, theta: float = DEFAULT_THETA) -> CommitRetriever:
    """Distilled-store retriever; candidates resolve to their source commits."""
    return cd_retrievers(theta)["cd_v2" if fallback_enabled else "cd_v1"]


def cd_retrievers(theta: float = DEFAULT_THETA) -> dict[str, CommitRetriever]:
    """CD-v1 (rules only) and CD-v2 (with the subject fallback), extracting
    and tokenizing each window commit once for both."""
    documents = CommitDocuments()
    return {
        "cd_v1": _cd_run(documents, False, theta),
        "cd_v2": _cd_run(documents, True, theta),
    }


def bm25_retriever() -> CommitRetriever:
    """BM25 over each window, tokenizing each commit once per retriever."""
    documents: dict[str, Bm25Document] = {}

    def run(window: list[Commit], query_text: str) -> list[str]:
        for commit in window:
            if commit.sha not in documents:
                documents[commit.sha] = tokenize_commit(commit)
        index = index_bm25_documents([documents[commit.sha] for commit in window])
        return [commit.sha for commit, _ in bm25_query(index, query_text, k=EVAL_K)]

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
    level: float = 0.95,
    seed: int = 42,
) -> tuple[float, float]:
    """Percentile bootstrap interval over with-replacement resamples."""
    if not samples:
        raise ValueError("samples must be nonempty")
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    rng = random.Random(seed)
    n = len(samples)
    values = sorted(
        statistic([samples[rng.randrange(n)] for _ in range(n)]) for _ in range(resamples)
    )
    alpha = (1.0 - level) / 2.0
    lo_index = int(math.floor(alpha * resamples))
    hi_index = min(resamples - 1, int(math.ceil((1.0 - alpha) * resamples)) - 1)
    return values[lo_index], values[hi_index]


def _json_entries(
    path: Path | str, kind: str, required: tuple[str, ...], optional: tuple[str, ...] = ()
) -> list[dict]:
    """The objects of a JSON array file, each with string ``required`` fields
    and, where present, string ``optional`` ones; anything else raises a
    ValueError naming the file and the entry's position."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
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
    return [
        BenchQuery(
            query=entry["query"],
            answer_span=entry.get("answer_span", ""),
            query_class=entry["query_class"],
            subject_repo=entry.get("subject_repo", ""),
        )
        for entry in payload
    ]


def load_labels(path: Path | str) -> list[LabelRecord]:
    """CSV with header unit_id,annotator_a,annotator_b,adjudicated."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != LABEL_FIELDS:
            raise ValueError(
                f"labels file {path} must carry the header {','.join(LABEL_FIELDS)}"
            )
        return [
            LabelRecord(
                unit_id=row["unit_id"],
                annotator_a=row["annotator_a"],
                annotator_b=row["annotator_b"],
                adjudicated=row["adjudicated"],
            )
            for row in reader
        ]


def load_manifest(path: Path | str) -> list[dict]:
    """JSON array of {name, path, sha} pinned-snapshot objects."""
    return _json_entries(path, "manifest", ("path", "sha"))


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
