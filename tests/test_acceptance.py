"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines alongside pytest's own verdicts.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

import pytest

from pathlib import Path

from commitdistill import baselines, evaluation as ev, extraction, gitio, retrieval, store
from commitdistill.retrieval import BoostTable

from conftest import build_fast_repo
from oracles import author_datetime, bm25_oracle, metrics_oracle, tfidf_oracle
from test_baselines import make_commit
from test_store import make_unit

DATA_DIR = Path(__file__).parent / "data"

DATA_VOCAB = (
    "redirect loop cookie session pool retry timeout label cache drain schema "
    "intersphinx deadlock auth token jar budget handler breaker ladder "
    "fix_redirect_loop redirectLoopHandler HTTP2Server snake_case_name"
).split()


def _report(number: int, text: str) -> None:
    print(f"[criterion {number:02d}] PASS - {text}")


def _close(actual: float, expected: float, rel: float = 1e-9) -> bool:
    return abs(actual - expected) <= rel * max(1.0, abs(expected))


def _random_units(rng: random.Random, max_units: int = 20):
    units = {}
    for _ in range(rng.randint(1, max_units)):
        words = rng.choices(DATA_VOCAB, k=rng.randint(3, 12))
        content = " ".join(words)
        unit = make_unit(
            content,
            unit_type=rng.choice(["fact", "skill", "pattern"]),
            weight=round(rng.uniform(0.0, 1.0), 3),
        )
        units.setdefault(unit.id, unit)
    return list(units.values())


def _random_query(rng: random.Random) -> str:
    words = rng.choices(DATA_VOCAB, k=rng.randint(1, 5))
    if rng.random() < 0.3:
        words.append("zanzibar_unseen")
    return " ".join(words)


def test_criterion_01_scoring_oracle_equivalence():
    rng = random.Random(20230101)
    started = time.perf_counter()

    for trial in range(60):
        units = _random_units(rng)
        query_text = _random_query(rng)
        theta = rng.choice([0.0, 0.1, 0.5, 1.0, 2.5])
        k = rng.randint(1, 25)
        boosts = (
            retrieval.DEFAULT_BOOSTS
            if rng.random() < 0.5
            else BoostTable(
                pattern=round(rng.uniform(0.5, 2.0), 2),
                skill=round(rng.uniform(0.5, 2.0), 2),
                fact=round(rng.uniform(0.5, 2.0), 2),
            )
        )
        hits = retrieval.query(retrieval.build_index(units), query_text, k=k, theta=theta, boosts=boosts)
        expected = tfidf_oracle(units, query_text, k=k, theta=theta, boosts=boosts)
        assert [h.unit.id for h in hits] == [uid for uid, _ in expected], f"trial {trial}"
        assert all(_close(h.score, s) for h, (_, s) in zip(hits, expected))

    for trial in range(60):
        commits = [
            make_commit(i, " ".join(rng.choices(DATA_VOCAB, k=rng.randint(2, 6))),
                        " ".join(rng.choices(DATA_VOCAB, k=rng.randint(0, 12))))
            for i in range(rng.randint(1, 20))
        ]
        query_text = _random_query(rng)
        k = rng.randint(1, 15)
        actual = baselines.bm25_query(baselines.build_bm25_index(commits), query_text, k=k)
        expected = bm25_oracle(commits, query_text, k=k)
        assert [c.sha for c, _ in actual] == [sha for sha, _ in expected], f"bm25 trial {trial}"
        assert all(_close(score, s) for (_, score), (_, s) in zip(actual, expected))

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle equivalence took {elapsed:.2f}s"
    _report(1, f"120 randomized corpora match both brute-force oracles in {elapsed:.2f}s")


def test_criterion_02_extraction_determinism_and_dedup(oracle_repo, tmp_path):
    repo, _ = oracle_repo
    first_units = extraction.extract_repository(repo, max_count=5000, fallback_enabled=True)
    second_units = extraction.extract_repository(repo, max_count=5000, fallback_enabled=True)

    root_a = tmp_path / "a"
    root_b = tmp_path / "b"
    store.save(store.merge(store.KnowledgeStore(), first_units), root_a)
    store.save(store.merge(store.KnowledgeStore(), second_units), root_b)
    bytes_a = store.store_path(root_a).read_bytes()
    bytes_b = store.store_path(root_b).read_bytes()
    assert bytes_a == bytes_b

    merged = store.merge(store.load(root_a), second_units)
    assert len(merged.units) == len(first_units)
    store.save(merged, root_a)
    assert store.store_path(root_a).read_bytes() == bytes_a
    _report(2, "byte-identical stores across runs; re-merge adds 0 units")


EXPECTED_REGEX_UNITS = [
    ("fact", "The retry flag is an alias for the backoff toggle."),
    ("fact", "When trying to link via intersphinx, a label must be used."),
    ("fact", "the session cookie must always be signed before deployment."),
    ("fact", "to avoid the legacy resolver use the pinned index."),
    ("pattern", "Crash occurs when the pool is exhausted. Workaround: raise the pool size."),
    ("pattern", "Fix: unicode characters in basic http auth"),
    ("pattern", "This regression broke after the cache rewrite landed in March."),
    ("pattern", "TimeoutError appears during cold start."),
    ("skill", "To avoid implicit import of encodings, the loader pins the codec list."),
    ("skill", "pin urllib3 below version two for the legacy pool."),
    ("skill", "raise the pool size."),
    ("skill", "to avoid the legacy resolver use the pinned index."),
]

EXPECTED_FALLBACK_UNITS = [
    ("pattern", "redirect loop on 302 chain"),
    ("pattern",
     "Rework the connection pool lifecycle so reconnect storms drain gracefully during rolling "
     "restarts. The previous design parked every pending request on one shared semaphore and the "
     "drain path starved readers whenever a replica flapped, which meant operators had to bounce "
     "the whole"),
]


def _expected_id(unit_type: str, content: str) -> str:
    canonical = " ".join(content.lower().split())
    return hashlib.sha1(f"{unit_type}::{canonical}".encode("utf-8")).hexdigest()[:12]


def test_criterion_03_fixture_extraction_oracle(oracle_repo):
    repo, shas = oracle_repo

    regex_units = extraction.extract_repository(repo, max_count=5000, fallback_enabled=False)
    expected = {(_expected_id(t, c), t, c) for t, c in EXPECTED_REGEX_UNITS}
    assert {(u.id, u.unit_type, u.content) for u in regex_units} == expected

    # the planted "fix issue #1234" subject is matched by a pattern rule,
    # rejected by the substantive filter, and leaves no trace in the store
    kernel_rule = next(r for r in extraction.DEFAULT_RULES if r.name == "pattern-regression")
    as_fact = dataclasses.replace(kernel_rule, unit_type="fact")  # no substantive filter
    assert extraction.extract_units("fix issue #1234", {}, rules=(as_fact,))
    assert extraction.is_substantive_pattern("fix issue #1234") is False
    assert not any("1234" in u.content for u in regex_units)

    both = extraction.extract_repository(repo, max_count=5000, fallback_enabled=True)
    expected_v2 = expected | {(_expected_id(t, c), t, c) for t, c in EXPECTED_FALLBACK_UNITS}
    assert {(u.id, u.unit_type, u.content) for u in both} == expected_v2
    fallback_units = [u for u in both if u.id not in {x.id for x in regex_units}]
    assert all(u.weight == 0.40 for u in fallback_units)
    assert all(len(u.content) <= 280 for u in fallback_units)
    assert not any("1234" in u.content for u in both)

    # duplicate-content commit: one unit, attributed to the newest extraction
    intersphinx = [u for u in regex_units if "intersphinx" in u.content]
    assert len(intersphinx) == 1
    assert intersphinx[0].meta["commit"] == shas["intersphinx_dup"][:8]
    _report(3, "50-commit fixture matches the hand-derived unit set in both modes")


def test_criterion_04_abstention_calibration(calibration_repo):
    repo, _ = calibration_repo
    commits = gitio.list_commits(repo, 5000)
    v1_units = extraction.extract_commits(commits, fallback_enabled=False)
    v2_units = extraction.extract_commits(commits, fallback_enabled=True)
    queries = ev.load_benchmark(DATA_DIR / "benchmark_classes.json")
    grid = ev.DEFAULT_THETA_GRID

    v1_rows = ev.threshold_sweep(retrieval.build_index(v1_units), queries, grid)
    v2_rows = ev.threshold_sweep(retrieval.build_index(v2_units), queries, grid)

    for rows in (v1_rows, v2_rows):
        for cls in ("ANSWERABLE", "NOT_IN_CORPUS", "OOD"):
            series = [row[cls] for row in rows]
            assert series == sorted(series, reverse=True), f"{cls} not monotone"

    calibrated = [
        row["theta"]
        for row in v1_rows
        if row["ANSWERABLE"] == 1.0 and row["NOT_IN_CORPUS"] == 0.0 and row["OOD"] == 0.0
    ]
    assert calibrated, "no theta in the grid fully calibrates CD-v1"
    assert 2.5 in calibrated

    v1_at = {row["theta"]: row for row in v1_rows}
    v2_at = {row["theta"]: row for row in v2_rows}
    theta_star = 2.5
    assert v2_at[theta_star]["NOT_IN_CORPUS"] > v1_at[theta_star]["NOT_IN_CORPUS"]
    assert v2_at[theta_star]["OOD"] == 0.0
    assert v2_at[theta_star]["ANSWERABLE"] == 1.0
    _report(4, f"CD-v1 fully calibrated at theta in {calibrated}; CD-v2 trades NOT_IN_CORPUS silence only")


def test_criterion_05_budget_benchmark_machinery(calibration_repo):
    repo, _ = calibration_repo
    commits = gitio.list_commits(repo, 5000)
    units = extraction.extract_commits(commits, fallback_enabled=True)
    index = retrieval.build_index(units)
    bm25_index = baselines.build_bm25_index(commits)
    retrievers = {
        "commitdistill": lambda q: [
            h.unit.content for h in retrieval.query(index, q, k=10, theta=2.5)
        ],
        "grep": lambda q: [c.message for c, _ in baselines.grep_search(commits, q, k=10)],
        "bm25": lambda q: [c.message for c, _ in baselines.bm25_query(bm25_index, q, k=10)],
    }
    queries = ev.load_benchmark(DATA_DIR / "benchmark_budget.json")
    budgets = [64, 128, 256, 512, 1024, 2048, float("inf")]
    table = ev.budget_sweep(queries, retrievers, budgets)

    for name, result in table.items():
        rates = [result["hit_rate_by_budget"][b] for b in budgets]
        assert rates == sorted(rates), f"{name} not monotone in budget"
        assert result["hit_rate_by_budget"][float("inf")] == result["unconstrained_hit_at_10"]

    assert ev.jackknife_min([True] * 9 + [False] * 3) == pytest.approx(8 / 11, abs=1e-12)
    _report(5, "hit-rate monotone for all retrievers; infinite budget equals Hit@10; jackknife 8/11")


def test_criterion_06_time_travel_protocol(timetravel_repo):
    repo, _ = timetravel_repo
    cases = ev.time_travel_cases(repo, n_fixes=3, window_size=100)

    # audit: nothing at or after the fix's author date can reach a retriever
    for case in cases:
        fix_date = author_datetime(case.fix)
        assert all(author_datetime(c) < fix_date for c in case.window)
        assert case.fix.sha not in {c.sha for c in case.window}
        assert case.ground_truth <= {c.sha for c in case.window}

    for factory in (ev.bm25_retriever, ev.grep_retriever, lambda: ev.cd_retriever(True, theta=0.0)):
        inner = factory()
        recorded: list[list[str]] = []

        def spy(window, query_text, _inner=inner, _recorded=recorded):
            ranking = _inner(window, query_text)
            _recorded.append(ranking)
            return ranking

        metrics = ev.score_cases(ev.time_travel_cases(repo, n_fixes=3, window_size=100), spy)
        brute = metrics_oracle(recorded, [case.ground_truth for case in cases])
        for key, value in brute.items():
            assert metrics[key] == pytest.approx(value, abs=1e-12), key
        window_shas = [{c.sha for c in case.window} for case in cases]
        for ranking, allowed in zip(recorded, window_shas):
            assert set(ranking) <= allowed
    _report(6, "metrics equal the brute-force evaluation; construction audit finds no post-fix data")


def test_criterion_07_agreement_statistics():
    assert ev.cohen_kappa(["u", "f", "n"], ["u", "f", "n"]) == 1.0
    assert ev.cohen_kappa(["x", "x", "y", "y"], ["y", "y", "x", "x"]) == pytest.approx(-1.0)

    a = ["x"] * 5 + ["x"] + ["y"] + ["y"] * 3
    b = ["x"] * 5 + ["y"] + ["x"] + ["y"] * 3
    assert ev.cohen_kappa(a, b) == pytest.approx((0.8 - 0.52) / (1 - 0.52), abs=1e-12)

    samples = [1.0] * 21 + [0.0] * 19
    lo, hi = ev.bootstrap_ci(samples, lambda s: sum(s) / len(s), resamples=10000, seed=42)
    assert lo == pytest.approx(0.375, abs=0.03)
    assert hi == pytest.approx(0.675, abs=0.03)
    _report(7, f"kappa cases exact; 21/40 bootstrap CI [{lo:.3f}, {hi:.3f}] within tolerance")


@pytest.fixture(scope="session")
def bulk_repo(tmp_path_factory):
    messages = []
    for i in range(10000):
        message = (
            f"Adjust handler {i} for the scheduler pipeline\n\n"
            f"The retry cache must be invalidated when the pool restarts on shard {i % 13}. "
            f"Workaround: flush shard {i % 13} and rebuild the trie index. "
            f"TimeoutError appears when the breaker trips on ladder {i % 7}. "
            "Routine maintenance keeps the ledger tidy and the background sweeper compacts "
            "segments while the journal stays append only across rotations. "
            "Metrics land in the usual dashboards for later review and triage."
        )
        messages.append(message)
    return build_fast_repo(tmp_path_factory.mktemp("bulk") / "repo", messages)


def test_criterion_08_performance(bulk_repo):
    started = time.perf_counter()
    units = extraction.extract_repository(bulk_repo, max_count=10000, fallback_enabled=True)
    extraction_elapsed = time.perf_counter() - started
    assert units
    assert extraction_elapsed < 4.0, f"extraction took {extraction_elapsed:.2f}s"

    rng = random.Random(7)
    corpus = []
    while len(corpus) < 1200:
        unit = make_unit(
            " ".join(rng.choices(DATA_VOCAB, k=10)) + f" marker{len(corpus)}",
            unit_type=rng.choice(["fact", "skill", "pattern"]),
            weight=round(rng.uniform(0.4, 1.0), 3),
        )
        corpus.append(unit)
    index = retrieval.build_index(corpus)

    best = min(
        _timed_query(index, "redirect loop cache drain budget") for _ in range(3)
    )
    assert best < 0.050, f"query took {best * 1000:.1f}ms"
    _report(
        8,
        f"10k-commit extraction in {extraction_elapsed:.2f}s; 1200-unit query in {best * 1000:.2f}ms",
    )


def _timed_query(index, query_text: str) -> float:
    started = time.perf_counter()
    retrieval.query(index, query_text, k=10, theta=0.0)
    return time.perf_counter() - started


def test_criterion_09_pinned_snapshot_manifest(repo_builder, tmp_path):
    # Live-repository figure reproduction is explicitly non-gating: subject
    # repositories drift, so the harness only promises to verify pinned
    # snapshots before attributing reference numbers to a run.
    sha = repo_builder.commit("pinned epoch state")
    manifest = [{"name": "fixture", "path": str(repo_builder.path), "sha": sha}]
    verified = ev.verify_manifest(manifest)
    assert verified[0]["head"] == sha

    stale = [{"name": "fixture", "path": str(repo_builder.path), "sha": "a" * 40}]
    with pytest.raises(ValueError):
        ev.verify_manifest(stale)

    manifest_file = tmp_path / "manifest.json"
    manifest_file.write_text(json.dumps(manifest), encoding="utf-8")
    assert json.loads(manifest_file.read_text())[0]["sha"] == sha
    _report(9, "pinned-SHA manifest verification works (live-number reproduction is non-gating)")
