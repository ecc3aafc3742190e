"""Output checks computed apart from the program.

Everything here is written from the documented behaviour (README, module
docstrings) and from the generator's plan, not by calling the program: the
tokenizer is a character walk rather than the program's regexes, and the
rankings are brute force over every stored unit. Each ``check_*`` function
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import bisect
import hashlib
import json
import math
import re
from collections import Counter

STORE_SCHEMA_VERSION = 1
UNIT_TYPES = ("fact", "skill", "pattern")
# The nine rule priors and the subject-fallback prior.
PRIORS = frozenset({0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.40})
FALLBACK_PRIOR = 0.40
MIN_CONTENT, MAX_CONTENT = 12, 300
BOOSTS = {"pattern": 1.2, "skill": 1.1, "fact": 1.0}
THETA = 2.5
BM25_K1, BM25_B = 1.5, 0.75
# The harness's bug-fix selector, applied to subjects.
BUG_FIX_RE = re.compile(r"\b(?:fix(?:es|ed)?|bug|regression|crash|fault)\b", re.IGNORECASE)
REL_TOL = 1e-9


# -- text ------------------------------------------------------------------

def words(text: str) -> list[str]:
    """Maximal runs of word characters (Unicode alphanumerics and "_")."""
    out: list[str] = []
    start = None
    for i, ch in enumerate(text):
        if ch.isalnum() or ch == "_":
            if start is None:
                start = i
        elif start is not None:
            out.append(text[start:i])
            start = None
    if start is not None:
        out.append(text[start:])
    return out


def _is_upper(ch: str) -> bool:
    return "A" <= ch <= "Z"


def _is_lower(ch: str) -> bool:
    return "a" <= ch <= "z"


def identifier_pieces(token: str) -> list[str]:
    """ASCII camelCase / snake_case / ALL_CAPS pieces and digit runs.

    An upper-case run directly followed by a lower-case letter gives its last
    capital to the following word ("HTTPServer" -> "HTTP", "Server"). Other
    characters separate pieces and are dropped.
    """
    pieces: list[str] = []
    for chunk in token.split("_"):
        i, n = 0, len(chunk)
        while i < n:
            ch = chunk[i]
            if _is_upper(ch):
                j = i
                while j < n and _is_upper(chunk[j]):
                    j += 1
                if j < n and _is_lower(chunk[j]):
                    if j - i > 1:
                        pieces.append(chunk[i : j - 1])
                        i = j - 1
                        continue
                    while j < n and _is_lower(chunk[j]):
                        j += 1
                pieces.append(chunk[i:j])
                i = j
            elif _is_lower(ch):
                j = i
                while j < n and _is_lower(chunk[j]):
                    j += 1
                pieces.append(chunk[i:j])
                i = j
            elif ch.isdecimal():
                j = i
                while j < n and chunk[j].isdecimal():
                    j += 1
                pieces.append(chunk[i:j])
                i = j
            else:
                i += 1
    return pieces


def tokenize(text: str) -> Counter:
    """Lower-cased words; a decomposable identifier adds its non-numeric pieces."""
    counts: Counter = Counter()
    for raw in words(text):
        lowered = raw.lower()
        counts[lowered] += 1
        pieces = identifier_pieces(raw)
        if len(pieces) > 1 or (pieces and pieces[0].lower() != lowered):
            for piece in pieces:
                if not piece.isdigit():
                    counts[piece.lower()] += 1
    return counts


def collapse(text: str) -> str:
    return " ".join(text.split())


def strip_markup(message: str) -> str:
    """The message without code fences, inline code and HTML tags, collapsed."""
    text = re.sub(r"```.*?```", " ", message, flags=re.DOTALL)
    text = re.sub(r"```.*", " ", text, flags=re.DOTALL)
    text = re.sub(r"`[^`\n]*`", " ", text).replace("`", " ")
    text = re.sub(r"</?[A-Za-z][^<>\n]*>", " ", text)
    return collapse(text)


def expected_id(unit_type: str, content: str) -> str:
    canonical = collapse(content.lower())
    return hashlib.sha1(f"{unit_type}::{canonical}".encode("utf-8")).hexdigest()[:12]


def clean_subject(subject: str) -> str:
    """Subject minus leading [tags], fix/bug/feat/chore prefixes and #refs."""
    if re.match(r"\s*merge\s+(?:pull\s+request|(?:remote-tracking\s+)?branch)\b", subject, re.I):
        return ""
    text = subject
    while True:
        stripped = re.sub(r"^\s*\[[^\]]*\]\s*", "", text, count=1)
        stripped = re.sub(r"^\s*(?:fix|bug|feat|chore)\s*:\s*", "", stripped, count=1, flags=re.I)
        if stripped == text:
            break
        text = stripped
    return collapse(re.sub(r"\(?#\d+\)?", " ", text))


# -- store -----------------------------------------------------------------

def canonical_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n").encode()


def check_store(raw: bytes, history, shas_newest_first: list[str]) -> list[str]:
    """Ids, lengths, priors, provenance, planted sentences and canonical form."""
    problems: list[str] = []
    payload = json.loads(raw)
    if payload.get("schema_version") != STORE_SCHEMA_VERSION:
        problems.append(f"schema_version {payload.get('schema_version')!r}")
    units = payload.get("units", [])
    if canonical_bytes(payload) != raw:
        problems.append("store bytes are not the canonical serialization")
    ids = [unit["id"] for unit in units]
    if ids != sorted(ids):
        problems.append("units are not sorted by id")
    if len(set(ids)) != len(ids):
        problems.append("duplicate unit ids")
    newest = history.newest_first()
    if len(shas_newest_first) != len(newest):
        return problems + [f"repository has {len(shas_newest_first)} commits, plan has {len(newest)}"]
    by_short = {sha[:8]: plan for sha, plan in zip(shas_newest_first, newest)}
    messages: dict[int, str] = {}
    for unit in units:
        uid, utype, content = unit["id"], unit["type"], unit["content"]
        if utype not in UNIT_TYPES:
            problems.append(f"{uid}: type {utype!r}")
        if uid != expected_id(utype, content):
            problems.append(f"{uid}: id does not match sha1 of its content")
        if not MIN_CONTENT <= len(content) <= MAX_CONTENT:
            problems.append(f"{uid}: content length {len(content)}")
        if unit["weight"] not in PRIORS:
            problems.append(f"{uid}: weight {unit['weight']} is not a documented prior")
        plan = by_short.get(unit["meta"].get("commit", ""))
        if plan is None:
            problems.append(f"{uid}: meta.commit {unit['meta'].get('commit')!r} names no commit")
            continue
        if unit["meta"].get("date") != plan.iso_date or unit["meta"].get("author") != plan.author[0]:
            problems.append(f"{uid}: meta date/author differ from commit {plan.index}")
        if unit["weight"] == FALLBACK_PRIOR:
            # Fallback units join the cleaned subject and the body's lead, so
            # only their words are traceable, and only to commits whose rules
            # all stayed silent.
            if plan.planted or plan.kind in ("merge", "release", "bot"):
                problems.append(f"{uid}: fallback unit on commit {plan.index} ({plan.kind})")
            elif not set(words(content)) <= set(words(plan.message)):
                problems.append(f"{uid}: fallback words not in commit {plan.index}")
            continue
        text = messages.get(plan.index)
        if text is None:
            text = messages[plan.index] = strip_markup(plan.message)
        if collapse(content) not in text:
            problems.append(f"{uid}: content not in commit {plan.index}'s normalized message")
    starts: dict[str, list[str]] = {t: [] for t in UNIT_TYPES}
    for unit in units:
        if unit["type"] in starts:
            starts[unit["type"]].append(collapse(unit["content"]))
    for t in starts:
        starts[t].sort()
    for plan in history.commits:
        for planted in plan.planted:
            if not _has_prefix(starts[planted.unit_type], collapse(planted.core)):
                problems.append(f"planted {planted.rule} sentence of commit {plan.index} missing")
    return problems


def _has_prefix(sorted_texts: list[str], prefix: str) -> bool:
    pos = bisect.bisect_left(sorted_texts, prefix)
    return pos < len(sorted_texts) and sorted_texts[pos].startswith(prefix)


# -- query -----------------------------------------------------------------

class BruteForceTfidf:
    """Scores every unit sharing a query term, by the documented formula:

    s = sum over shared terms of (1 + ln tf_d)(1 + ln tf_q) ln(N / df),
    divided by sqrt(max(1, |d|)), times boost[type] * (0.5 + 0.5 * weight).
    """

    def __init__(self, units: list[dict]):
        self.units = units
        self.tfs = [tokenize(unit["content"]) for unit in units]
        self.df: Counter = Counter()
        self.holders: dict[str, list[int]] = {}
        for i, tf in enumerate(self.tfs):
            for term in tf:
                self.df[term] += 1
                self.holders.setdefault(term, []).append(i)
        n = len(units)
        self.numerator = n + 1 if n == 1 else n

    def candidates(self, query: str) -> set[int]:
        found: set[int] = set()
        for term in tokenize(query):
            found.update(self.holders.get(term, ()))
        return found

    def rank(self, query: str, k: int, theta: float = THETA) -> list[tuple[str, float]]:
        qtf = tokenize(query)
        scored: list[tuple[float, str]] = []
        for i in self.candidates(query):
            tf, unit = self.tfs[i], self.units[i]
            score = 0.0
            for term, qf in qtf.items():
                df = tf.get(term)
                if df:
                    score += (1.0 + math.log(df)) * (1.0 + math.log(qf)) * math.log(
                        self.numerator / self.df[term]
                    )
            score /= math.sqrt(max(1, sum(tf.values())))
            score *= BOOSTS[unit["type"]] * (0.5 + 0.5 * unit["weight"])
            if score >= theta:
                scored.append((score, unit["id"]))
        scored.sort(key=lambda item: (-item[0], item[1]))
        return [(uid, score) for score, uid in scored[:k]]


def check_ranking(got: list[tuple[str, float]], want: list[tuple[str, float]], label: str) -> list[str]:
    if [uid for uid, _ in got] != [uid for uid, _ in want]:
        return [f"{label}: ranking {[u for u, _ in got]} != brute force {[u for u, _ in want]}"]
    for (uid, a), (_, b) in zip(got, want):
        if abs(a - b) > REL_TOL * max(1.0, abs(b)):
            return [f"{label}: score of {uid} is {a!r}, brute force {b!r}"]
    return []


def parse_query_json(stdout: str) -> list[tuple[str, float]]:
    return [(hit["unit"]["id"], hit["score"]) for hit in json.loads(stdout)]


# -- time travel -----------------------------------------------------------

def time_travel_cases(history, shas_newest_first, n_fixes: int, window: int):
    """(fix, window of (sha, commit), truth shas) for the newest qualifying fixes."""
    commits = list(zip(shas_newest_first, history.newest_first()))
    cases = []
    for pos, (sha, fix) in enumerate(commits):
        if len(cases) == n_fixes:
            break
        if not BUG_FIX_RE.search(fix.subject):
            continue
        earlier = [(s, c) for s, c in commits[pos + 1 :] if c.epoch < fix.epoch][:window]
        files = set(fix.files)
        truth = {s for s, c in earlier if BUG_FIX_RE.search(c.subject) and files & set(c.files)}
        if truth:
            cases.append((fix, earlier, truth))
    return cases


def time_travel_rankings(cases) -> dict[str, list[list[str]]]:
    """grep and BM25 top-10 sha rankings for each case, from the plan."""
    rankings: dict[str, list[list[str]]] = {"grep": [], "bm25": []}
    tf_by_sha: dict[str, Counter] = {}
    for fix, earlier, _ in cases:
        query = clean_subject(fix.subject)
        needle = query.lower()
        rankings["grep"].append([s for s, c in earlier if needle in c.message.lower()][:10])
        for sha, commit in earlier:
            if sha not in tf_by_sha:
                tf_by_sha[sha] = tokenize(commit.message)
        rankings["bm25"].append(_bm25([(sha, tf_by_sha[sha]) for sha, _ in earlier], query)[:10])
    return rankings


def _bm25(tfs: list[tuple[str, Counter]], query: str) -> list[str]:
    lengths = [sum(tf.values()) for _, tf in tfs]
    n = len(tfs)
    avgdl = sum(lengths) / n
    df: Counter = Counter()
    for _, tf in tfs:
        df.update(tf.keys())
    terms = list(tokenize(query))
    scored = []
    for (sha, tf), length in zip(tfs, lengths):
        shared = [t for t in terms if t in tf]
        if not shared:
            continue
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * length / avgdl)
        score = 0.0
        for term in shared:
            idf = math.log((n - df[term] + 0.5) / (df[term] + 0.5))
            score += idf * tf[term] * (BM25_K1 + 1.0) / (tf[term] + norm)
        scored.append((score, sha))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [sha for _, sha in scored]


def rank_metrics(rankings: list[list[str]], truths: list[set[str]]) -> dict[str, float]:
    hits = {1: 0, 3: 0, 10: 0}
    reciprocal = 0.0
    for ranked, truth in zip(rankings, truths):
        best = next((i for i, sha in enumerate(ranked[:10], 1) if sha in truth), None)
        if best is not None:
            reciprocal += 1.0 / best
            for cutoff in hits:
                hits[cutoff] += best <= cutoff
    n = len(rankings)
    return {
        "hit_at_1": hits[1] / n,
        "hit_at_3": hits[3] / n,
        "hit_at_10": hits[10] / n,
        "mrr": reciprocal / n,
    }


def check_time_travel(payload: dict, history, shas_newest_first, n_fixes: int, window: int) -> list[str]:
    problems: list[str] = []
    cases = time_travel_cases(history, shas_newest_first, n_fixes, window)
    if len(cases) < n_fixes:
        return [f"plan has only {len(cases)} qualifying fixes, {n_fixes} requested"]
    rankings = time_travel_rankings(cases)
    truths = [truth for _, _, truth in cases]
    methods = payload.get("methods", {})
    for name in ("grep", "bm25"):
        want = rank_metrics(rankings[name], truths)
        got = methods.get(name, {})
        for key, value in want.items():
            if abs(got.get(key, -1.0) - value) > 1e-12:
                problems.append(f"{name} {key} {got.get(key)!r} != recomputed {value!r}")
    for name in ("cd_v1", "cd_v2"):
        m = methods.get(name)
        if m is None:
            problems.append(f"{name} missing")
            continue
        if not 0.0 <= m["hit_at_1"] <= m["hit_at_3"] <= m["hit_at_10"] <= 1.0:
            problems.append(f"{name} hit@k not monotone in [0, 1]: {m}")
        if not m["hit_at_1"] <= m["mrr"] <= m["hit_at_10"]:
            problems.append(f"{name} mrr outside [hit@1, hit@10]: {m}")
    for name, m in methods.items():
        if m.get("n_fixes") != n_fixes:
            problems.append(f"{name} n_fixes {m.get('n_fixes')!r} != {n_fixes}")
    return problems
