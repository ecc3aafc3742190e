"""Independent brute-force scorers used to cross-check the rankers.

These deliberately re-derive every quantity from scratch (document stats,
idf, normalization) instead of touching the production index structures.
The time-travel oracles are the straightforward versions of the case
builder and the distilled-store retriever that the shared, cached ones in
``commitdistill.evaluation`` must reproduce exactly.
"""
from __future__ import annotations

import math

from commitdistill import evaluation as ev
from commitdistill import gitio
from commitdistill.extraction import DEFAULT_RULES, extract_commit_units
from commitdistill.retrieval import (
    DEFAULT_BOOSTS,
    DEFAULT_THETA,
    EVAL_K,
    BoostTable,
    build_index,
    query,
    tokenize,
)


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


def time_travel_cases_oracle(repo_path, n_fixes: int, window_size: int):
    """Cases rebuilt per call: author dates parsed with ``datetime`` for every
    commit in every fix's scan, file sets from one ``git diff`` per commit."""
    commits = gitio.list_commits(repo_path, max_count=10**9)
    for commit in commits:
        commit.changed_files = gitio.changed_files(repo_path, commit.sha)
    cases = []
    for fix in commits:
        if len(cases) == n_fixes:
            break
        if not ev.BUG_FIX_RE.search(fix.subject):
            continue
        cutoff = fix.author_datetime()
        window = [
            c for c in commits if c.sha != fix.sha and c.author_datetime() < cutoff
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
                unit_cache[commit.sha] = extract_commit_units(commit, DEFAULT_RULES, fallback_enabled)
            for unit in unit_cache[commit.sha]:
                by_id.setdefault(unit.id, unit)
        index = build_index([by_id[uid] for uid in sorted(by_id)])
        hits = query(index, query_text, k=max(50, EVAL_K), theta=theta, boosts=DEFAULT_BOOSTS)
        shas: list[str] = []
        for hit in hits:
            full = short_to_full.get(hit.unit.meta.get("commit", ""))
            if full and full not in shas:
                shas.append(full)
            if len(shas) == EVAL_K:
                break
        return shas

    return run


def time_travel_payload_oracle(
    repo_path, n_fixes: int, window_size: int, theta: float = DEFAULT_THETA
):
    """The ``eval timetravel`` result payload, with the cases rebuilt for
    every retriever and the metrics recomputed with plain loops."""
    retrievers = {
        "grep": ev.grep_retriever(),
        "bm25": ev.bm25_retriever(),
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
