"""Independent brute-force scorers used to cross-check the rankers.

These deliberately re-derive every quantity from scratch (document stats,
idf, normalization) instead of touching the production index structures.
``build_index_oracle``/``query_oracle`` and ``build_bm25_index_oracle``/
``bm25_query_oracle`` are the earlier indexes, which tokenize every document
up front (the eager ``Document`` and ``index_documents``) and tabulate df and
idf over the whole vocabulary at build time (BM25 then scans every document);
the lazy index, which finds postings per query term, must reproduce their
scores bit for bit.
The time-travel oracles are the straightforward versions of the case
builder and the distilled-store retriever that the shared, cached ones in
``commitdistill.evaluation`` must reproduce exactly; ``threshold_sweep_oracle``
scores every query once per theta. The ``eval`` payload
oracles compose the library calls one command at a time, each building its
own commits, units and indexes, so that the files the CLI writes can be
compared byte for byte. ``CommitDocumentsOracle`` with
``cd_retrievers_per_window_oracle``, and ``bm25_retriever_per_window_oracle``,
are the per-window indexes that the run-wide postings of
``CommitDocuments.rank`` and ``bm25_retriever`` replaced; the latter searches
with ``bm25_query_lazy_oracle``, BM25 on the lazy ``RetrievalIndex`` before
every BM25 search moved to ``baselines.Bm25Index``. ``joined_postings_oracle``
is the joined-text search that ``RetrievalIndex.postings`` replaced with a
scan of each casefolded text. ``tokenize_oracle``
(which splits identifiers at ``_`` before the camel-case split),
``tokenize_uncached_oracle`` (every word split anew) and ``normalize_oracle``
(a closed-fence pass, then an open-fence pass) are the earlier text passes
that ``retrieval.tokenize`` and ``extraction.normalize`` must reproduce exactly,
and ``extract_units_oracle``, the nine written-out ``RULES_ORACLE`` regexes each
scanned over the whole message, is the rule engine that the sentence-first
``extraction.extract_units`` must reproduce unit for unit. ``store_bytes_oracle``
is the store file that ``store.save`` must write byte for byte, and
``load_oracle`` the earlier ``store.load``, whose units the one-pass load
must give in the same order, or whose error line it must raise.
``list_commits_oracle`` is the reader that read all of ``git log`` before
parsing it, which the streaming ``gitio.CommitLog`` must reproduce commit for
commit, or whose error it must raise; ``extract_commits_oracle`` the
per-commit extraction loop that the batched ``extraction.extract_commits``
must reproduce unit for unit; and ``clean_subject_oracle`` the
``clean_subject`` that ran every pass on every subject.
"""
from __future__ import annotations

import heapq
import json
import math
import re
import subprocess
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import datetime
from itertools import accumulate
from typing import Any

from commitdistill import evaluation as ev
from commitdistill import extraction as ex
from commitdistill import gitio, retrieval, store
from commitdistill.baselines import grep_search
from commitdistill.extraction import KnowledgeUnit, extract_commit_units, extract_commits
from commitdistill.retrieval import (
    DEFAULT_BOOSTS,
    DEFAULT_K,
    DEFAULT_THETA,
    EVAL_K,
    BoostTable,
    RankedHit,
    tokenize,
)


def as_datetime(value: str) -> datetime:
    """An ISO-8601 author date as git prints it, with offset."""
    # git 2.45+ prints UTC as "Z", which fromisoformat accepts only from 3.11
    if value.endswith("Z"):
        value = value[:-1] + "+00:00"
    return datetime.fromisoformat(value)


def author_datetime(commit) -> datetime:
    return as_datetime(commit.author_date)


_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")
_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_OPEN_FENCE_RE = re.compile(r"```.*\Z", re.DOTALL)


def split_identifier(token: str) -> list[str]:
    parts: list[str] = []
    for piece in token.split("_"):
        parts.extend(_CAMEL_RE.findall(piece))
    return parts


def tokenize_oracle(text: str) -> Counter:
    counts: Counter = Counter()
    for raw in re.findall(r"\w+", text):
        lowered = raw.lower()
        parts = split_identifier(raw)
        decomposed = len(parts) > 1 or (parts and parts[0].lower() != lowered)
        counts[lowered] += 1
        if decomposed:
            for part in parts:
                if not part.isdigit():
                    counts[part.lower()] += 1
    return counts


def tokenize_uncached_oracle(text: str) -> Counter:
    """``retrieval.tokenize`` before it kept each word's tokens: every word
    split anew, counted straight into the Counter."""
    counts: Counter = Counter()
    for raw in re.findall(r"\w+", text):
        lowered = raw.lower()
        parts = _CAMEL_RE.findall(raw)
        decomposed = len(parts) > 1 or (parts and parts[0].lower() != lowered)
        counts[lowered] += 1
        if decomposed:
            for part in parts:
                if not part.isdigit():
                    counts[part.lower()] += 1
    return counts


def normalize_oracle(text: str) -> str:
    text = _FENCE_RE.sub(" ", text)
    text = _OPEN_FENCE_RE.sub(" ", text)
    text = re.sub(r"`[^`\n]*`", " ", text)
    text = text.replace("`", " ")
    text = re.sub(r"</?[A-Za-z][^<>\n]*>", " ", text)
    text = re.sub(r"[ \t\r\f\v]+", " ", text)
    text = re.sub(r" ?\n\s*", "\n", text)
    return text.strip()


# The nine rules with each regex written out in full, keyword and span in one
# regex: (name, type, prior, triggers, regex), every regex compiled
# IGNORECASE | MULTILINE.
RULES_ORACLE = (
    ("fact-constraint", "fact", 0.75, ("must", "require", "should", "cannot", "always", "never"),
     r"((?:^|(?<=[.!?:]))\s*[^\n.!?:]*\b(?:must|requires?|should|cannot|always|never)\b[^\n.!?:]*[.!?]?)"),
    ("fact-annotation", "fact", 0.85, ("note", "important", "warning"),
     r"\b(?:note|important|warning)\s*:\s*([^\n.!?:]+[.!?]?)"),
    ("fact-equivalence", "fact", 0.65, ("equivalent", "same", "alias"),
     r"((?:^|(?<=[.!?:]))\s*[^\n.!?:]*\b(?:is|are)\s+(?:equivalent\s+to|the\s+same\s+as|an\s+alias\s+for)\b"
     r"[^\n.!?:]*[.!?]?)"),
    ("skill-resolution", "skill", 0.95, ("fix", "solution", "workaround"),
     r"\b(?:fix(?:ed)?\s+by|solution|workaround)\s*:\s*([^\n.!?:]+[.!?]?)"),
    ("skill-recommendation", "skill", 0.85, ("recommend", "best"),
     r"\b(?:recommend(?:ed)?|best\s+practice)\s*:\s*([^\n.!?:]+[.!?]?)"),
    ("skill-instructional", "skill", 0.7, ("avoid", "prevent", "enable", "disable"),
     r"(\bto\s+(?:avoid|prevent|enable|disable)\b[^\n.!?:]*[.!?]?)"),
    ("pattern-causal", "pattern", 0.8, ("occurs", "happens"),
     r"((?:^|(?<=[.!?:]))\s*[^\n.!?:]*\b(?:occurs|happens)\s+when\b[^\n.!?:]*[.!?]?)"),
    ("pattern-exception", "pattern", 0.9, ("error", "exception", "failure", "deadlock", "race", "infinite"),
     r"((?:^|(?<=[.!?:]))\s*[^\n.!?:]*(?:(?-i:\b[A-Z]\w+(?:Error|Exception|Failure)\b)"
     r"|\b(?:deadlock|race\s+condition|infinite\s+loop)\b)[^\n.!?:]*[.!?]?)"),
    ("pattern-regression", "pattern", 0.75, ("fix", "bug", "regression", "broke", "break"),
     r"((?:^[ \t]*(?:fix(?:es|ed)?(?![ \t]+by\b)|bug)\b[^\n.!?]*|(?:^|(?<=[.!?:]))\s*[^\n.!?:]*"
     r"\b(?:regression|broke|breaks|broken)\s+(?:in|since|after|when)\b[^\n.!?:]*)[.!?]?)"),
)


RULES_ORACLE_COMPILED = tuple(
    (name, unit_type, prior, triggers, re.compile(regex, re.IGNORECASE | re.MULTILINE))
    for name, unit_type, prior, triggers, regex in RULES_ORACLE
)


def extract_units_oracle(text: str, meta: dict[str, str]) -> list[KnowledgeUnit]:
    """The rule engine before sentence-first spans: each rule's written-out
    regex scanned over the whole normalized message with ``finditer``. No
    trigger shortcut: every rule scans every message."""
    normalized = normalize_oracle(text)
    if not normalized:
        return []
    units: list[KnowledgeUnit] = []
    seen: set[str] = set()
    for _name, unit_type, prior, _triggers, pattern in RULES_ORACLE_COMPILED:
        for match in pattern.finditer(normalized):
            content = match.group(1).strip()
            if unit_type == "pattern":
                content = ex.capture_resolution_tail(
                    content, ex.first_sentence(normalized[match.end():])
                )
            if not ex.MIN_CONTENT_LEN <= len(content) <= ex.MAX_CONTENT_LEN:
                continue
            if ex.is_stop(content):
                continue
            if unit_type == "pattern" and not ex.is_substantive_pattern(content):
                continue
            uid = ex.unit_id(unit_type, content)
            if uid in seen:
                continue
            seen.add(uid)
            units.append(
                KnowledgeUnit(
                    id=uid,
                    unit_type=unit_type,
                    title=ex.truncate_at_word(content, ex.TITLE_CAP),
                    content=content,
                    weight=prior,
                    context=match.group(0).strip(),
                    meta=dict(meta),
                )
            )
    return units


def store_bytes_oracle(knowledge_store) -> bytes:
    """The store file as ``store.save`` wrote it before it rendered the units
    itself: every unit's ``to_dict`` through ``canonical_json``."""
    payload = {
        "schema_version": store.SCHEMA_VERSION,
        "units": [unit.to_dict() for unit in knowledge_store.sorted_units()],
    }
    return store.canonical_json(payload).encode("utf-8")


def load_oracle(root) -> store.KnowledgeStore:
    """``store.load`` as it was before it built the units in one pass with
    the collector paused: a shape pass over the parsed entries, then each
    unit built by keyword with a copy of its meta (the deleted
    ``KnowledgeUnit.from_dict``), then the repeated-id check."""
    path = store.store_path(root)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no knowledge store at {path}; run the extract command first"
        ) from None
    except ValueError as exc:
        raise ValueError(f"knowledge store {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"knowledge store {path} must hold a JSON object")
    version = payload.get("schema_version")
    if version != store.SCHEMA_VERSION:
        raise ValueError(
            f"knowledge store {path} has schema_version {version!r}; "
            f"this version reads {store.SCHEMA_VERSION}"
        )
    entries = payload.get("units")
    if not isinstance(entries, list):
        raise ValueError(f"knowledge store {path} has no units list")
    for position, entry in enumerate(entries):
        problem = store._unit_problem(entry)
        if problem:
            raise ValueError(f"knowledge store {path}: unit {position} {problem}")
    knowledge_store = store.KnowledgeStore()
    for entry in entries:
        unit = KnowledgeUnit(
            id=entry["id"],
            unit_type=entry["type"],
            title=entry["title"],
            content=entry["content"],
            weight=entry["weight"],
            context=entry["context"],
            meta=dict(entry["meta"]),
        )
        knowledge_store.units[unit.id] = unit
    if len(knowledge_store.units) < len(entries):
        first: dict[str, int] = {}
        for position, entry in enumerate(entries):
            earlier = first.setdefault(entry["id"], position)
            if earlier != position:
                raise ValueError(
                    f"knowledge store {path}: unit {position} repeats the id {entry['id']!r} of unit {earlier}"
                )
    return knowledge_store

@dataclass
class Document:
    """The eager document that ``retrieval.Document`` replaced: term counts
    and length are computed when it is made."""

    item: Any
    tf: Counter
    length: int

    @classmethod
    def of(cls, item, text: str) -> "Document":
        tf = tokenize(text)
        return cls(item, tf, sum(tf.values()))


def index_documents(documents: list[Document]) -> dict[str, list[int]]:
    """The eager postings build: every term of every document, up front."""
    postings: dict[str, list[int]] = defaultdict(list)
    for idx, doc in enumerate(documents):
        for term in doc.tf:
            postings[term].append(idx)
    return dict(postings)


@dataclass
class IdfIndexOracle:
    documents: list[Document]
    idf: dict[str, float]
    postings: dict[str, list[int]]


def build_index_oracle(units) -> IdfIndexOracle:
    """The TF-IDF index with df, postings and idf = log(N / df) tabulated
    for the whole vocabulary (add-one smoothed for a single document)."""
    documents = [Document.of(unit, unit.content) for unit in units]
    postings = index_documents(documents)
    n = len(documents)
    numerator = n + 1 if n == 1 else n
    idf = {term: math.log(numerator / len(positions)) for term, positions in postings.items()}
    return IdfIndexOracle(documents, idf, postings)


def query_oracle(
    index: IdfIndexOracle,
    q: str,
    k: int = DEFAULT_K,
    theta: float = DEFAULT_THETA,
    boosts: BoostTable = DEFAULT_BOOSTS,
) -> list[RankedHit]:
    """``retrieval.query`` over the tabulated idf."""
    query_tf = tokenize(q)
    if not query_tf:
        return []
    candidates: set[int] = set()
    for term in query_tf:
        candidates.update(index.postings.get(term, ()))
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
                    * index.idf[term]
                )
        score /= math.sqrt(max(1, doc.length))
        score *= boosts.for_type(doc.item.unit_type) * (0.5 + 0.5 * doc.item.weight)
        if score >= theta:
            hits.append(RankedHit(doc.item, score))
    hits.sort(key=lambda hit: (-hit.score, hit.unit.id))
    return hits[:k]


@dataclass
class Bm25IndexOracle:
    documents: list[Document]
    idf: dict[str, float]
    avgdl: float


def build_bm25_index_oracle(commits) -> Bm25IndexOracle:
    """The BM25 index with df and the +0.5-smoothed idf tabulated for the
    whole vocabulary, and avgdl."""
    documents = [Document.of(commit, commit.message) for commit in commits]
    n = len(documents)
    df: Counter = Counter()
    for doc in documents:
        for term in doc.tf:
            df[term] += 1
    idf = {term: math.log((n - count + 0.5) / (count + 0.5)) for term, count in df.items()}
    avgdl = (sum(doc.length for doc in documents) / n) if n else 0.0
    return Bm25IndexOracle(documents, idf, avgdl)


def bm25_query_oracle(
    index: Bm25IndexOracle, query_text: str, k: int = 10, k1: float = 1.5, b: float = 0.75
):
    """``baselines.bm25_query`` as a scan of every document."""
    query_terms = tokenize(query_text)
    if not query_terms:
        return []
    scored = []
    for doc in index.documents:
        shared = [term for term in query_terms if term in doc.tf]
        if not shared:
            continue
        norm = k1 * (1.0 - b + b * doc.length / index.avgdl)
        score = 0.0
        for term in shared:
            freq = doc.tf[term]
            score += index.idf[term] * freq * (k1 + 1.0) / (freq + norm)
        scored.append((doc.item, score))
    scored.sort(key=lambda item: (-item[1], item[0].sha))
    return scored[:k]


def tfidf_oracle(units, query_text: str, k: int, theta: float, boosts: BoostTable):
    """Expected (unit_id, score) ranking per the published scoring recipe."""
    doc_stats = []
    doc_freq: dict[str, int] = {}
    for unit in units:
        tf = tokenize(unit.content)
        doc_stats.append((unit, tf, sum(tf.values())))
        for term in tf:
            doc_freq[term] = doc_freq.get(term, 0) + 1
    n = len(doc_stats)
    numerator = n + 1 if n == 1 else n

    query_tf = tokenize(query_text)
    if not query_tf:
        return []
    rows = []
    for unit, tf, length in doc_stats:
        shared = [t for t in query_tf if t in tf]
        if not shared:
            continue
        score = 0.0
        for term in shared:
            idf = math.log(numerator / doc_freq[term])
            score += (1.0 + math.log(tf[term])) * (1.0 + math.log(query_tf[term])) * idf
        score /= math.sqrt(max(1, length))
        type_boost = {"pattern": boosts.pattern, "skill": boosts.skill, "fact": boosts.fact}
        score *= type_boost[unit.unit_type] * (0.5 + 0.5 * unit.weight)
        if score >= theta:
            rows.append((unit.id, score))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:k]


def bm25_oracle(commits, query_text: str, k: int, k1: float = 1.5, b: float = 0.75):
    """Expected (sha, score) ranking per the Okapi formula with +0.5 idf."""
    doc_stats = []
    doc_freq: dict[str, int] = {}
    for commit in commits:
        tf = tokenize(commit.message)
        doc_stats.append((commit, tf, sum(tf.values())))
        for term in tf:
            doc_freq[term] = doc_freq.get(term, 0) + 1
    n = len(doc_stats)
    if n == 0:
        return []
    avgdl = sum(length for _, _, length in doc_stats) / n

    query_tf = tokenize(query_text)
    if not query_tf:
        return []
    rows = []
    for commit, tf, length in doc_stats:
        shared = [t for t in query_tf if t in tf]
        if not shared:
            continue
        score = 0.0
        for term in shared:
            idf = math.log((n - doc_freq[term] + 0.5) / (doc_freq[term] + 0.5))
            freq = tf[term]
            score += idf * freq * (k1 + 1.0) / (freq + k1 * (1.0 - b + b * length / avgdl))
        rows.append((commit.sha, score))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:k]


def metrics_oracle(rankings, truths):
    """Hit@k and MRR recomputed with plain loops."""
    n = len(rankings)
    hit1 = hit3 = hit10 = 0
    total_rr = 0.0
    for ranked, truth in zip(rankings, truths):
        best_rank = 0
        for position, sha in enumerate(ranked, start=1):
            if position > 10:
                break
            if sha in truth:
                best_rank = position
                break
        if best_rank:
            total_rr += 1.0 / best_rank
            hit1 += 1 if best_rank <= 1 else 0
            hit3 += 1 if best_rank <= 3 else 0
            hit10 += 1 if best_rank <= 10 else 0
    return {
        "hit_at_1": hit1 / n,
        "hit_at_3": hit3 / n,
        "hit_at_10": hit10 / n,
        "mrr": total_rr / n,
    }


def list_commits_oracle(repo_path, max_count: int = 5000) -> list[gitio.Commit]:
    """The whole-string reader: all of ``git log`` read through a text-mode
    pipe (so CR and CRLF read as LF), then split into records and fields."""
    if max_count < 1:
        raise ValueError("max_count must be >= 1")
    path = gitio._ensure_repo(repo_path)
    if not gitio._has_commits(path):
        return []
    output = gitio._run_git([*gitio._LOG_ARGS, "-n", str(max_count)], path)
    commits: list[gitio.Commit] = []
    last_sha = "<none>"
    for record in output.split(gitio.RECORD_SEP):
        if not record:
            continue
        fields = record.split(gitio.FIELD_SEP)
        if len(fields) != 7 or not re.fullmatch(r"[0-9a-f]{40}", fields[0]):
            offender = fields[0] if re.fullmatch(r"[0-9a-f]{40}", fields[0]) else last_sha
            raise gitio.CommitParseError(
                f"commit {offender}: message contains wire-format separator bytes "
                "(0x1f/0x1e); refusing to parse"
            )
        sha, author, epoch, date, subject, body, _ = fields
        last_sha = sha
        commits.append(gitio.Commit(sha, author, date, int(epoch), subject, body.rstrip("\n")))
    return commits


def clean_subject_oracle(subject: str) -> str:
    """``gitio.clean_subject`` with every pass run on every subject."""
    if re.match(r"^\s*merge\s+(?:pull\s+request|(?:remote-tracking\s+)?branch)\b", subject, re.IGNORECASE):
        return ""
    text = subject
    while True:
        stripped = re.sub(r"^\s*\[[^\]]*\]\s*", "", text, count=1)
        stripped = re.sub(r"^\s*(?:fix|bug|feat|chore)\s*:\s*", "", stripped, count=1, flags=re.IGNORECASE)
        if stripped == text:
            break
        text = stripped
    text = re.sub(r"\(?#\d+\)?", " ", text)
    return re.sub(r"\s+", " ", text).strip()


def subject_fallback_unit_oracle(commit) -> KnowledgeUnit | None:
    """The subject fallback with the body normalized on its own and the
    subject cleaned by ``clean_subject_oracle``."""
    if gitio.is_bot_release_or_merge_subject(commit.subject):
        return None
    content = cleaned = clean_subject_oracle(commit.subject)
    if not cleaned:
        return None
    body = ex.normalize(commit.body)
    lead = ex.first_sentence(body) if body else ""
    if lead:
        content = f"{cleaned.rstrip('.')}. {lead}"
    content = ex.truncate_at_word(content, ex.FALLBACK_CONTENT_CAP)
    if len(content) < ex.MIN_CONTENT_LEN:
        return None
    return KnowledgeUnit(
        id=ex.unit_id("pattern", content),
        unit_type="pattern",
        title=ex.truncate_at_word(content, ex.TITLE_CAP),
        content=content,
        weight=ex.FALLBACK_PRIOR,
        context=commit.subject,
        meta=ex.commit_meta(commit),
    )


def extract_commits_oracle(commits, fallback_enabled: bool = True) -> list[KnowledgeUnit]:
    """The per-commit loop: each message normalized and swept for triggers
    on its own by ``extract_units``, the fallback from
    ``subject_fallback_unit_oracle``; units deduplicated by id, sorted by id."""
    by_id: dict[str, KnowledgeUnit] = {}
    for commit in commits:
        units = ex.extract_units(commit.message, ex.commit_meta(commit))
        if not units and fallback_enabled:
            fallback = subject_fallback_unit_oracle(commit)
            units = [] if fallback is None else [fallback]
        for unit in units:
            by_id.setdefault(unit.id, unit)
    return sorted(by_id.values(), key=lambda unit: unit.id)


def changed_files_oracle(repo_path, sha: str) -> set[str]:
    """Name-only diff of one commit against its first parent, from git calls
    for that commit alone; a root commit diffs against the empty tree."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=repo_path, check=True, encoding="utf-8",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ).stdout

    try:
        git("rev-parse", "--verify", "--quiet", f"{sha}^1")
    except subprocess.CalledProcessError:
        output = git("diff-tree", "--root", "-r", "--name-only", "--no-commit-id", sha)
    else:
        output = git("diff", "--name-only", f"{sha}^1", sha)
    return {line for line in output.split("\n") if line}


def commits_with_files_oracle(repo_path) -> list[gitio.Commit]:
    """Every commit, newest first, its file set from ``changed_files_oracle``."""
    commits = gitio.list_commits(repo_path, max_count=10**9)
    for commit in commits:
        commit.changed_files = changed_files_oracle(repo_path, commit.sha)
    return commits


def time_travel_cases_oracle(repo_path, n_fixes: int, window_size: int):
    """Cases rebuilt per call: author dates parsed with ``datetime`` for every
    commit in every fix's scan, file sets from one ``git diff`` per commit."""
    commits = commits_with_files_oracle(repo_path)
    cases = []
    for fix in commits:
        if len(cases) == n_fixes:
            break
        if not ev.BUG_FIX_RE.search(fix.subject):
            continue
        cutoff = author_datetime(fix)
        window = [
            c for c in commits if c.sha != fix.sha and author_datetime(c) < cutoff
        ][:window_size]
        truth = {
            c.sha
            for c in window
            if ev.BUG_FIX_RE.search(c.subject) and c.changed_files & fix.changed_files
        }
        if truth:
            cases.append(ev.TimeTravelCase(fix, window, truth))
    if len(cases) < n_fixes:
        raise ev.InsufficientFixes(
            f"found {len(cases)} qualifying bug-fix commits, needed {n_fixes}"
        )
    return cases


def cd_retriever_oracle(fallback_enabled: bool = True, theta: float = DEFAULT_THETA):
    """Distilled-store retriever that re-indexes every window from its units."""
    unit_cache = {}

    def run(window, query_text: str) -> list[str]:
        short_to_full = {commit.short_sha: commit.sha for commit in window}
        by_id = {}
        for commit in window:
            if commit.sha not in unit_cache:
                unit_cache[commit.sha] = extract_commit_units(commit, fallback_enabled)
            for unit in unit_cache[commit.sha]:
                by_id.setdefault(unit.id, unit)
        index = build_index_oracle([by_id[uid] for uid in sorted(by_id)])
        hits = query_oracle(index, query_text, k=max(50, EVAL_K), theta=theta, boosts=DEFAULT_BOOSTS)
        shas: list[str] = []
        for hit in hits:
            full = short_to_full.get(hit.unit.meta.get("commit", ""))
            if full and full not in shas:
                shas.append(full)
            if len(shas) == EVAL_K:
                break
        return shas

    return run


class CommitDocumentsOracle:
    """The per-window path that the run-wide postings replaced: per case, a
    walk over the whole window for the owner of each unit id, and a fresh
    ``RetrievalIndex`` over the owners' documents."""

    def __init__(self) -> None:
        self._rule_docs: dict = {}
        self._fallback_docs: dict = {}

    def _of(self, commit, fallback_enabled: bool):
        if commit.sha not in self._rule_docs:
            units = extract_commit_units(commit, fallback_enabled=False)
            self._rule_docs[commit.sha] = [retrieval.Document(unit, unit.content) for unit in units]
        docs = self._rule_docs[commit.sha]
        if docs or not fallback_enabled:
            return docs
        if commit.sha not in self._fallback_docs:
            unit = ex.subject_fallback_unit(commit)
            self._fallback_docs[commit.sha] = [] if unit is None else [retrieval.Document(unit, unit.content)]
        return self._fallback_docs[commit.sha]

    def owners(self, commits, fallback_enabled: bool) -> dict:
        owned: dict = {}
        for commit in commits:
            for doc in self._of(commit, fallback_enabled):
                owned.setdefault(doc.item.id, (doc, commit.sha))
        return owned


def cd_retrievers_per_window_oracle(theta: float = DEFAULT_THETA) -> dict:
    """CD-v1 and CD-v2 sharing one ``CommitDocumentsOracle``, each window
    indexed on its own and searched with ``retrieval.query``."""
    documents = CommitDocumentsOracle()

    def run_for(fallback_enabled: bool):
        def run(window, query_text: str) -> list[str]:
            owned = documents.owners(window, fallback_enabled)
            index = retrieval.RetrievalIndex([owned[uid][0] for uid in sorted(owned)])
            hits = retrieval.query(index, query_text, k=max(50, EVAL_K), theta=theta)
            shas: list[str] = []
            for hit in hits:
                full = owned[hit.unit.id][1]
                if full not in shas:
                    shas.append(full)
                if len(shas) == EVAL_K:
                    break
            return shas

        return run

    return {"cd_v1": run_for(False), "cd_v2": run_for(True)}


def joined_postings_oracle(texts, term: str) -> list[int]:
    """``RetrievalIndex.postings`` as a search of all casefolded texts joined
    into one string: each ``str.find`` hit is mapped to its text by bisecting
    the texts' start offsets, and a text is kept if its tokens hold ``term``.
    A hit across the joint of two texts only adds a candidate."""
    folded = [text.casefold() for text in texts]
    starts = list(accumulate((len(text) + 1 for text in folded), initial=0))
    joined = "\n".join(folded)
    found: list[int] = []
    at = joined.find(term.casefold())
    while at >= 0:
        idx = bisect_right(starts, at) - 1
        found.append(idx)
        at = joined.find(term.casefold(), starts[idx + 1])
    return [idx for idx in found if term in tokenize(texts[idx])]


def bm25_query_lazy_oracle(
    index: retrieval.RetrievalIndex, query_text: str, k: int = 10, k1: float = 1.5, b: float = 0.75
):
    """``baselines.bm25_query`` over the lazy ``RetrievalIndex``: postings
    found per query term, then every document tokenized for avgdl, and the
    candidates ranked with ties on ascending sha."""
    query_terms = tokenize(query_text)
    if not query_terms:
        return []
    df, candidates = retrieval.lookup(index, query_terms)
    if not candidates:
        return []
    documents = index.documents
    for doc in documents:
        doc.terms()
    n = len(documents)
    avgdl = sum(doc.length for doc in documents) / n
    idf = {term: math.log((n - count + 0.5) / (count + 0.5)) for term, count in df.items()}
    weights = [(term, idf[term]) for term in query_terms if term in idf]
    scored = []
    for position in candidates:
        doc = documents[position]
        norm = k1 * (1.0 - b + b * doc.length / avgdl)
        score = 0.0
        for term, term_idf in weights:
            freq = doc.tf.get(term)
            if freq:
                score += term_idf * freq * (k1 + 1.0) / (freq + norm)
        scored.append((-score, doc.item.sha, position, doc.item))
    return [(commit, -negated) for negated, _, _, commit in heapq.nsmallest(k, scored)]


def bm25_retriever_per_window_oracle():
    """BM25 with a fresh ``RetrievalIndex`` per window, searched with
    ``bm25_query_lazy_oracle``; each commit's document is kept across windows."""
    documents: dict = {}

    def run(window, query_text: str) -> list[str]:
        for commit in window:
            if commit.sha not in documents:
                documents[commit.sha] = retrieval.Document(commit, commit.message)
        index = retrieval.RetrievalIndex([documents[commit.sha] for commit in window])
        return [commit.sha for commit, _ in bm25_query_lazy_oracle(index, query_text, k=EVAL_K)]

    return run


def bm25_retriever_oracle():
    """BM25 retriever that indexes every window from scratch."""
    def run(window, query_text: str) -> list[str]:
        index = build_bm25_index_oracle(window)
        return [commit.sha for commit, _ in bm25_query_oracle(index, query_text, k=EVAL_K)]

    return run


def time_travel_payload_oracle(
    repo_path, n_fixes: int, window_size: int, theta: float = DEFAULT_THETA
):
    """The ``eval timetravel`` result payload, with the cases rebuilt for
    every retriever and the metrics recomputed with plain loops."""
    retrievers = {
        "grep": ev.grep_retriever(),
        "bm25": bm25_retriever_oracle(),
        "cd_v1": cd_retriever_oracle(fallback_enabled=False, theta=theta),
        "cd_v2": cd_retriever_oracle(fallback_enabled=True, theta=theta),
    }
    methods = {}
    for name, retriever in retrievers.items():
        cases = time_travel_cases_oracle(repo_path, n_fixes, window_size)
        rankings = [
            retriever(case.window, gitio.clean_subject(case.fix.subject))[:10] for case in cases
        ]
        methods[name] = metrics_oracle(rankings, [case.ground_truth for case in cases])
        methods[name]["n_fixes"] = float(len(cases))
    return {"n_fixes": n_fixes, "window": window_size, "methods": methods}


def baseline_payload_oracle(
    repo_path, benchmark, fallback_enabled: bool, max_commits: int = 5000,
    k: int = EVAL_K, theta: float = DEFAULT_THETA,
):
    """The ``eval baseline`` result payload."""
    queries = ev.load_benchmark(benchmark)
    commits = gitio.list_commits(repo_path, max_commits)
    units = extract_commits(commits, fallback_enabled=fallback_enabled)
    index = build_index_oracle(units)
    bm25_index = build_bm25_index_oracle(commits)
    rows = []
    answered = {"commitdistill": 0, "grep": 0, "bm25": 0}
    for bench in queries:
        cd_hits = query_oracle(index, bench.query, k=k, theta=theta)
        grep_hits = grep_search(commits, bench.query, k=k)
        bm25_hits = bm25_query_oracle(bm25_index, bench.query, k=k)
        answered["commitdistill"] += bool(cd_hits)
        answered["grep"] += bool(grep_hits)
        answered["bm25"] += bool(bm25_hits)
        rows.append(
            {
                "query": bench.query,
                "query_class": bench.query_class,
                "commitdistill": [
                    {"score": hit.score, "content": hit.unit.content, "commit": hit.unit.meta.get("commit", "")}
                    for hit in cd_hits
                ],
                "grep": [{"rank": rank, "subject": c.subject, "commit": c.short_sha} for c, rank in grep_hits],
                "bm25": [{"score": s, "subject": c.subject, "commit": c.short_sha} for c, s in bm25_hits],
            }
        )
    return {"n_queries": len(queries), "answered": answered, "results": rows}


def budget_payload_oracle(
    repo_path, benchmark, fallback_enabled: bool, max_commits: int = 5000,
    budgets=ev.DEFAULT_BUDGETS, theta: float = DEFAULT_THETA,
):
    """The ``eval budget`` result payload."""
    queries = [q for q in ev.load_benchmark(benchmark) if q.answer_span]
    commits = gitio.list_commits(repo_path, max_commits)
    units = extract_commits(commits, fallback_enabled=fallback_enabled)
    index = build_index_oracle(units)
    bm25_index = build_bm25_index_oracle(commits)
    retrievers = {
        "commitdistill": lambda text: [
            hit.unit.content for hit in query_oracle(index, text, k=EVAL_K, theta=theta)
        ],
        "grep": lambda text: [c.message for c, _ in grep_search(commits, text, k=EVAL_K)],
        "bm25": lambda text: [c.message for c, _ in bm25_query_oracle(bm25_index, text, k=EVAL_K)],
    }
    results = ev.budget_sweep(queries, retrievers, budgets)
    payload: dict = {"n_queries": len(queries), "budgets": list(budgets), "retrievers": {}}
    for name, result in results.items():
        entry = {
            "rows": [
                {"budget": budget, "hit_rate": rate}
                for budget, rate in result["hit_rate_by_budget"].items()
            ],
            "unconstrained_hit_at_10": result["unconstrained_hit_at_10"],
            "median_top1_length": result["median_top1_length"],
        }
        if 256 in result["per_query_hits"] and len(queries) >= 2:
            entry["jackknife_min_at_256"] = ev.jackknife_min(result["per_query_hits"][256])
        payload["retrievers"][name] = entry
    return payload


def threshold_sweep_oracle(units, queries, theta_grid=ev.DEFAULT_THETA_GRID):
    """Per-class answered share per theta, with one full scoring pass of
    every query at each theta over a fresh index of ``units``."""
    index = build_index_oracle(units)
    by_class: dict[str, list] = {}
    for bench in queries:
        by_class.setdefault(bench.query_class, []).append(bench)
    rows: list[dict] = []
    for theta in theta_grid:
        row: dict = {"theta": theta}
        for cls in sorted(by_class):
            members = by_class[cls]
            hits = sum(1 for bench in members if query_oracle(index, bench.query, k=EVAL_K, theta=theta))
            row[cls] = hits / len(members)
        rows.append(row)
    return rows


def sweep_payload_oracle(
    repo_path, benchmark, max_commits: int = 5000, thetas=ev.DEFAULT_THETA_GRID
):
    """The ``eval sweep`` result payload, extracting the commits once per
    fallback mode."""
    queries = ev.load_benchmark(benchmark)
    commits = gitio.list_commits(repo_path, max_commits)
    v1_units = extract_commits(commits, fallback_enabled=False)
    v2_units = extract_commits(commits, fallback_enabled=True)
    return {
        "cd_v1": threshold_sweep_oracle(v1_units, queries, thetas),
        "cd_v2": threshold_sweep_oracle(v2_units, queries, thetas),
        "n_queries": len(queries),
    }
