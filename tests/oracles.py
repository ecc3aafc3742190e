"""Independent brute-force scorers used to cross-check the rankers.

These deliberately re-derive every quantity from scratch (document stats,
idf, normalization) instead of touching the production index structures.
The time-travel oracles are the straightforward versions of the case
builder and the distilled-store retriever that the shared, cached ones in
``commitdistill.evaluation`` must reproduce exactly; ``threshold_sweep_oracle``
scores every query once per theta. The ``eval`` payload
oracles compose the library calls one command at a time, each building its
own commits, units and indexes, so that the files the CLI writes can be
compared byte for byte.
"""
from __future__ import annotations

import math
import subprocess

from commitdistill import evaluation as ev
from commitdistill import gitio
from commitdistill.baselines import bm25_query, build_bm25_index, grep_search
from commitdistill.extraction import extract_commit_units, extract_commits
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
    return {line for line in output.splitlines() if line}


def time_travel_cases_oracle(repo_path, n_fixes: int, window_size: int):
    """Cases rebuilt per call: author dates parsed with ``datetime`` for every
    commit in every fix's scan, file sets from one ``git diff`` per commit."""
    commits = gitio.list_commits(repo_path, max_count=10**9)
    for commit in commits:
        commit.changed_files = changed_files_oracle(repo_path, commit.sha)
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
                unit_cache[commit.sha] = extract_commit_units(commit, fallback_enabled)
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


def bm25_retriever_oracle():
    """BM25 retriever that indexes every window from scratch."""
    def run(window, query_text: str) -> list[str]:
        index = build_bm25_index(window)
        return [commit.sha for commit, _ in bm25_query(index, query_text, k=EVAL_K)]

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
    index = build_index(units)
    bm25_index = build_bm25_index(commits)
    rows = []
    answered = {"commitdistill": 0, "grep": 0, "bm25": 0}
    for bench in queries:
        cd_hits = query(index, bench.query, k=k, theta=theta)
        grep_hits = grep_search(commits, bench.query, k=k)
        bm25_hits = bm25_query(bm25_index, bench.query, k=k)
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
    index = build_index(units)
    bm25_index = build_bm25_index(commits)
    retrievers = {
        "commitdistill": lambda text: [
            hit.unit.content for hit in query(index, text, k=EVAL_K, theta=theta)
        ],
        "grep": lambda text: [c.message for c, _ in grep_search(commits, text, k=EVAL_K)],
        "bm25": lambda text: [c.message for c, _ in bm25_query(bm25_index, text, k=EVAL_K)],
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
    index = build_index(units)
    by_class: dict[str, list] = {}
    for bench in queries:
        by_class.setdefault(bench.query_class, []).append(bench)
    rows: list[dict] = []
    for theta in theta_grid:
        row: dict = {"theta": theta}
        for cls in sorted(by_class):
            members = by_class[cls]
            hits = sum(1 for bench in members if query(index, bench.query, k=EVAL_K, theta=theta))
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
