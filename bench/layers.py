"""Traced run: the program's public functions timed from outside, layer by layer.

Each round calls into gitio, extraction, store, retrieval, baselines,
evaluation and the CLI import on the workload's own repository, inside
spans (name, start, end, parent) kept in memory and written to
``.bench_out/trace-<workload>-<seed>.json`` when the run ends. A time metric
is the sum of its spans in one round, reported as the median over rounds;
counts come from the last round and repeat exactly.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import checks

# Rule keywords, by rule name: a rule can only fire on a message that holds
# one of them. The benchmark owns this list so that the trigger-hit share
# stays an input property, whatever shape the extractor takes.
RULE_KEYWORDS = {
    "fact-constraint": ("must", "require", "should", "cannot", "always", "never"),
    "fact-annotation": ("note", "important", "warning"),
    "fact-equivalence": ("equivalent", "same", "alias"),
    "skill-resolution": ("fix", "solution", "workaround"),
    "skill-recommendation": ("recommend", "best"),
    "skill-instructional": ("avoid", "prevent", "enable", "disable"),
    "pattern-causal": ("occurs", "happens"),
    "pattern-exception": ("error", "exception", "failure", "deadlock", "race", "infinite"),
    "pattern-regression": ("fix", "bug", "regression", "broke", "break"),
}

QUERY_REPEATS = 5


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def sums_under(self, root: int) -> dict[str, float]:
        """Total duration per span name among the descendants of ``root``."""
        inside = {root}
        sums: dict[str, float] = {}
        for index in range(root + 1, len(self.spans)):
            name, start, end, parent = self.spans[index]
            if parent in inside:
                inside.add(index)
                sums[name] = sums.get(name, 0.0) + (end - start)
        return sums


def traced_round(bench, tracer: Tracer, counts: dict) -> None:
    from commitdistill import baselines, evaluation, extraction, gitio, retrieval, store

    corpus = bench.main
    spec, repo, span = corpus.spec, corpus.repo, tracer.span

    with span("gitio.list_commits"):
        commits = gitio.list_commits(repo, spec.commits)
    with span("gitio.changed_files_map"):
        gitio.changed_files_map(repo)
    counts["gitio.commits"] = len(commits)

    messages = [commit.message for commit in commits]
    metas = [extraction.commit_meta(commit) for commit in commits]
    with span("extraction.normalize"):
        normalized = [extraction.normalize(message) for message in messages]
    for rule in extraction.DEFAULT_RULES:
        with span(f"extraction.rule.{rule.name}"):
            for message, meta in zip(messages, metas):
                extraction.extract_units(message, meta, rules=(rule,))
    with span("extraction.extract_commits"):
        units = extraction.extract_commits(commits, fallback_enabled=True)
    counts["extraction.units"] = len(units)
    counts["extraction.fallback_units"] = sum(u.weight == checks.FALLBACK_PRIOR for u in units)
    lowered = [text.lower() for text in normalized]
    hits = sum(
        any(word in text for word in keywords)
        for text in lowered
        for keywords in RULE_KEYWORDS.values()
    )
    counts["extraction.trigger_hit_share"] = hits / (len(lowered) * len(RULE_KEYWORDS))

    with span("store.load"):
        loaded = store.load(repo)
    with span("store.merge"):
        merged = store.merge(store.KnowledgeStore(), units)
    out_root = bench.work / "traced-store"
    with span("store.save"):
        saved = store.save(merged, out_root)
    raw = Path(saved).read_bytes()
    counts["store.bytes"] = len(raw)
    counts["_store_digest"] = hashlib.sha1(raw).hexdigest()

    contents = [unit.content for unit in loaded.sorted_units()]
    with span("retrieval.tokenize"):
        for content in contents:
            retrieval.tokenize(content)
    with span("retrieval.build_index"):
        index = retrieval.build_index(loaded.sorted_units())
    answered: list[float] = []
    silent: list[float] = []
    # Out-of-vocabulary queries return before scoring; they stand in for the
    # silent ones only when every other query is answered.
    silent_oov: list[float] = []
    for cls, text in corpus.queries:
        timings = []
        for _ in range(QUERY_REPEATS):
            with span("retrieval.query"):
                started = time.perf_counter()
                found = retrieval.query(index, text, k=10)
                timings.append(time.perf_counter() - started)
        ms = statistics.median(timings) * 1000.0
        (answered if found else silent_oov if cls == "oov" else silent).append(ms)
    counts["retrieval.query_answered_ms"] = statistics.median(answered)
    counts["retrieval.query_silent_ms"] = statistics.median(silent or silent_oov)
    counts["_silent_share"] = (len(silent) + len(silent_oov)) / len(corpus.queries)

    with span("evaluation.time_travel_cases"):
        cases = evaluation.time_travel_cases(repo, spec.fixes, spec.window)
    counts["evaluation.window_docs"] = sum(len(case.window) for case in cases)
    for case in cases:
        text = gitio.clean_subject(case.fix.subject)
        with span("baselines.build_bm25_index"):
            bm25_index = baselines.build_bm25_index(case.window)
        with span("baselines.bm25_query"):
            baselines.bm25_query(bm25_index, text, k=10)
        with span("baselines.grep_search"):
            baselines.grep_search(case.window, text, k=10)
    retrievers = {
        "grep": evaluation.grep_retriever(),
        "bm25": evaluation.bm25_retriever(),
        "cd_v1": evaluation.cd_retriever(fallback_enabled=False),
        "cd_v2": evaluation.cd_retriever(fallback_enabled=True),
    }
    for name, retriever in retrievers.items():
        with span(f"evaluation.retriever.{name}"):
            for case in cases:
                retriever(case.window, gitio.clean_subject(case.fix.subject))

    with span("cli.import"):
        subprocess.run(
            [sys.executable, "-c", "import commitdistill.cli"], check=True, env=bench.program.env
        )


TIME_METRICS = (
    ["gitio.list_commits", "gitio.changed_files_map", "extraction.normalize"]
    + [f"extraction.rule.{name}" for name in RULE_KEYWORDS]
    + ["extraction.extract_commits", "store.merge", "store.save", "store.load"]
    + ["retrieval.tokenize", "retrieval.build_index"]
    + ["baselines.build_bm25_index", "baselines.bm25_query", "baselines.grep_search"]
    + ["evaluation.time_travel_cases"]
    + [f"evaluation.retriever.{name}" for name in ("grep", "bm25", "cd_v1", "cd_v2")]
    + ["cli.import"]
)
COUNT_UNITS = {
    "gitio.commits": "count",
    "extraction.units": "count",
    "extraction.fallback_units": "count",
    "extraction.trigger_hit_share": "share",
    "store.bytes": "bytes",
    "retrieval.query_answered_ms": "ms",
    "retrieval.query_silent_ms": "ms",
    "retrieval.candidates_per_query": "count",
    "retrieval.terms": "count",
    "retrieval.postings": "count",
    "evaluation.window_docs": "count",
}


def span_problems(per_round: list[dict[str, float]]) -> list[str]:
    """A metric without spans in every round was not measured, and must not
    read as zero seconds. Rule spans are named from the program's rules, so a
    renamed or added rule shows up here too."""
    missing = [name for name in TIME_METRICS if any(name not in r for r in per_round)]
    unknown = {n for r in per_round for n in r if n.startswith("extraction.rule.")} - set(TIME_METRICS)
    return [f"no span for {name} in some round" for name in missing] + [
        f"span {name} is not a benchmark metric" for name in sorted(unknown)
    ]


def traced_run(bench, seconds: float, out_dir: Path) -> dict:
    tracer = Tracer()
    counts: dict = {}
    per_round: list[dict[str, float]] = []
    probes: list[float] = []
    started = time.perf_counter()
    while True:
        root = len(tracer.spans)
        with tracer.span("round"):
            traced_round(bench, tracer, counts)
        per_round.append(tracer.sums_under(root))
        probes.append(bench.program.probe())
        elapsed = time.perf_counter() - started
        if elapsed + 0.5 * elapsed / len(per_round) > seconds:
            break

    units = json.loads(bench.main.store_bytes)["units"]
    brute = checks.BruteForceTfidf(units)
    counts["retrieval.candidates_per_query"] = statistics.mean(
        len(brute.candidates(text)) for _, text in bench.main.queries
    )
    counts["retrieval.terms"] = len(brute.df)
    counts["retrieval.postings"] = sum(len(tf) for tf in brute.tfs)

    metrics = {
        f"{name}_s": {"value": statistics.median(r[name] for r in per_round), "unit": "s"}
        for name in TIME_METRICS
        if all(name in r for r in per_round)
    }
    for name, unit in COUNT_UNITS.items():
        metrics[name] = {"value": counts[name], "unit": unit}
    # The layer times are not scaled; the probe's median lets two traced
    # runs made in different spells of the machine be compared.
    metrics["bench.probe_s"] = {"value": statistics.median(probes), "unit": "s"}

    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{bench.name}-{bench.seed}.json").write_text(
        json.dumps(
            {
                "workload": bench.name,
                "seed": bench.seed,
                "silent_query_share": counts["_silent_share"],
                "spans": tracer.spans,
            }
        ),
        encoding="utf-8",
    )
    # The traced extraction must save the same store bytes as the CLI did.
    problems = []
    if counts["_store_digest"] != hashlib.sha1(bench.main.store_bytes).hexdigest():
        problems.append("the traced extraction saved other store bytes than the CLI")
    problems += span_problems(per_round)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ops_per_round = sum(1 for s in tracer.spans if s[3] == 0)
    return {
        "correct": not problems,
        "attempted": ops_per_round * len(per_round),
        "failed": 0,
        "metrics": metrics,
    }
