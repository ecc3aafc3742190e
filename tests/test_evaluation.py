from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from commitdistill import evaluation as ev
from commitdistill import gitio
from commitdistill.extraction import commit_units, extract_commits
from commitdistill.retrieval import Postings, build_index, query, tokenize

from conftest import build_fast_repo, recording_popen
from oracles import (
    author_datetime,
    bm25_retriever_oracle,
    bm25_retriever_per_window_oracle,
    cd_retriever_oracle,
    cd_retrievers_per_window_oracle,
    extract_commit_units_oracle,
    metrics_oracle,
    threshold_sweep_oracle,
    time_travel_cases_oracle,
)
from test_store import make_unit

DATA = Path(__file__).parent / "data"


class TestBudgetPack:
    def test_skip_and_continue(self):
        texts = ["a" * 100, "b" * 200, "c" * 50]
        packed = ev.budget_pack(texts, 256)
        assert packed == [texts[0], texts[2]]

    def test_everything_fits(self):
        texts = ["aa", "bb"]
        assert ev.budget_pack(texts, 1000) == texts

    def test_nothing_fits(self):
        assert ev.budget_pack(["a" * 50], 10) == []

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ev.budget_pack(["x"], 0)
        with pytest.raises(ValueError):
            ev.budget_pack(["x"], float("nan"))


class TestBudgetHit:
    def test_verbatim(self):
        assert ev.budget_hit(["the answer span here"], "answer span") is True

    def test_empty_pack(self):
        assert ev.budget_hit([], "answer") is False

    def test_case_insensitive(self):
        assert ev.budget_hit(["THE ANSWER SPAN"], "answer span") is True

    def test_span_required(self):
        with pytest.raises(ValueError):
            ev.budget_hit(["text"], "")


class TestJackknife:
    def test_nine_of_twelve(self):
        hits = [True] * 9 + [False] * 3
        assert ev.jackknife_min(hits) == pytest.approx(8 / 11, abs=1e-12)

    def test_all_true(self):
        assert ev.jackknife_min([True, True, True]) == 1.0

    def test_all_false(self):
        assert ev.jackknife_min([False, False]) == 0.0

    def test_needs_two(self):
        with pytest.raises(ValueError):
            ev.jackknife_min([True])


def _fixed_retriever(mapping: dict[str, list[str]]):
    return lambda q: mapping.get(q, [])


class TestBudgetSweep:
    def _queries(self):
        return [
            ev.BenchQuery("alpha", "needle one", "FACT_STYLE"),
            ev.BenchQuery("beta", "needle two", "FACT_STYLE"),
        ]

    def test_monotone_and_infinite_budget(self):
        retrievers = {
            "toy": _fixed_retriever(
                {
                    "alpha": ["x" * 300, "padding " * 10 + "NEEDLE ONE"],
                    "beta": ["no match here"],
                }
            )
        }
        budgets = [16, 64, 128, float("inf")]
        result = ev.budget_sweep(self._queries(), retrievers, budgets)["toy"]
        rates = [result["hit_rate_by_budget"][b] for b in budgets]
        assert rates == sorted(rates)
        assert result["hit_rate_by_budget"][float("inf")] == result["unconstrained_hit_at_10"]

    def test_median_top1_length(self):
        retrievers = {
            "toy": _fixed_retriever({"alpha": ["12345"], "beta": ["123456789 needle two"]})
        }
        result = ev.budget_sweep(self._queries(), retrievers, [64])["toy"]
        assert result["median_top1_length"] == pytest.approx((5 + 20) / 2)


class TestThresholdSweep:
    def _units(self):
        return [
            make_unit("intersphinx label linking rules", weight=0.9),
            make_unit("session cookie signing policy", weight=0.9),
        ]

    def _queries(self):
        return [
            ev.BenchQuery("intersphinx label linking", "label", "ANSWERABLE"),
            ev.BenchQuery("blueprint ordering docs", "", "NOT_IN_CORPUS"),
            ev.BenchQuery("raytracing reflection model", "", "OOD"),
        ]

    def test_permissive_floor_and_zero_overlap_silence(self):
        rows = ev.threshold_sweep(build_index(self._units()), self._queries(), theta_grid=(0.0, 5.0))
        assert rows[0]["ANSWERABLE"] == 1.0
        assert rows[0]["OOD"] == 0.0
        assert rows[1]["ANSWERABLE"] == 0.0

    def test_rates_monotone_in_theta(self):
        rows = ev.threshold_sweep(
            build_index(self._units()), self._queries(), theta_grid=(0.0, 0.5, 1.0, 2.0, 3.0)
        )
        for cls in ("ANSWERABLE", "NOT_IN_CORPUS", "OOD"):
            series = [row[cls] for row in rows]
            assert series == sorted(series, reverse=True)

    @pytest.mark.parametrize("grid_size", [1, 7, 50])
    def test_each_query_is_scored_once(self, monkeypatch, grid_size):
        calls = []

        def counting_query(*args, **kwargs):
            calls.append(args[1])
            return query(*args, **kwargs)

        monkeypatch.setattr(ev, "query", counting_query)
        grid = [step * 0.1 for step in range(grid_size)]
        ev.threshold_sweep(build_index(self._units()), self._queries(), grid)
        assert sorted(calls) == sorted(bench.query for bench in self._queries())

    @pytest.mark.parametrize("theta", [-0.5, float("nan")])
    def test_negative_or_nan_theta_raises(self, theta):
        with pytest.raises(ValueError, match="theta must be >= 0"):
            ev.threshold_sweep(build_index(self._units()), self._queries(), (0.0, theta))

    @pytest.mark.parametrize("fallback_enabled", [False, True])
    def test_theta_at_and_just_above_each_best_score(self, calibration_repo, fallback_enabled):
        repo, _ = calibration_repo
        units = extract_commits(gitio.list_commits(repo, 5000), fallback_enabled)
        queries = ev.load_benchmark(DATA / "benchmark_classes.json")
        index = build_index(units)
        bests = [hits[0].score for q in queries if (hits := query(index, q.query, k=1, theta=0.0))]
        assert len(bests) > 1
        grid = sorted({0.0, *bests, *(math.nextafter(best, math.inf) for best in bests)})
        assert ev.threshold_sweep(index, queries, grid) == threshold_sweep_oracle(units, queries, grid)


class TestRankMetrics:
    def test_truth_at_rank_one(self):
        metrics = ev.rank_metrics([["g", "x"]], [{"g"}])
        assert metrics == {"hit_at_1": 1.0, "hit_at_3": 1.0, "hit_at_10": 1.0, "mrr": 1.0}

    def test_mrr_formula(self):
        metrics = ev.rank_metrics([["g", "x"], ["x", "g"]], [{"g"}, {"g"}])
        assert metrics["mrr"] == pytest.approx(0.75)

    def test_miss_scores_zero(self):
        metrics = ev.rank_metrics([["x"]], [{"g"}])
        assert metrics["mrr"] == 0.0
        assert metrics["hit_at_10"] == 0.0

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.sampled_from("abcdefgh"), max_size=12, unique=True), min_size=1, max_size=8
        ),
        st.sets(st.sampled_from("abcdefgh"), max_size=4),
    )
    def test_metric_ordering_invariants(self, rankings, truth):
        truths = [truth for _ in rankings]
        metrics = ev.rank_metrics(rankings, truths)
        assert metrics["hit_at_1"] <= metrics["hit_at_3"] <= metrics["hit_at_10"]
        assert metrics["mrr"] <= metrics["hit_at_10"]
        assert metrics == metrics_oracle(rankings, truths)


class TestTimeTravel:
    def test_cases_and_ground_truth(self, timetravel_repo):
        repo, shas = timetravel_repo
        cases = ev.time_travel_cases(repo, n_fixes=3, window_size=100)
        by_fix = {case.fix.sha: case for case in cases}
        assert set(by_fix) == {shas["pool_fix_4"], shas["auth_fix_2"], shas["pool_fix_3"]}
        assert by_fix[shas["pool_fix_4"]].ground_truth == {
            shas["pool_fix_1"], shas["pool_fix_2"], shas["pool_fix_3"]
        }
        assert by_fix[shas["auth_fix_2"]].ground_truth == {shas["auth_fix_1"]}
        assert by_fix[shas["pool_fix_3"]].ground_truth == {
            shas["pool_fix_1"], shas["pool_fix_2"]
        }

    def test_time_travel_discipline(self, timetravel_repo):
        repo, _ = timetravel_repo
        for case in ev.time_travel_cases(repo, n_fixes=3, window_size=100):
            fix_date = author_datetime(case.fix)
            assert all(author_datetime(c) < fix_date for c in case.window)
            assert case.fix.sha not in {c.sha for c in case.window}
            assert case.ground_truth <= {c.sha for c in case.window}

    def test_window_size_is_honoured(self, timetravel_repo):
        repo, _ = timetravel_repo
        cases = ev.time_travel_cases(repo, n_fixes=1, window_size=3)
        assert len(cases[0].window) == 3

    def test_insufficient_fixes(self, timetravel_repo):
        repo, _ = timetravel_repo
        with pytest.raises(ev.InsufficientFixes):
            ev.time_travel_cases(repo, n_fixes=10, window_size=100)

    def test_eval_with_all_retrievers(self, timetravel_repo):
        repo, _ = timetravel_repo
        for retriever in (
            ev.grep_retriever(),
            ev.bm25_retriever(),
            ev.cd_retriever(fallback_enabled=False),
            ev.cd_retriever(fallback_enabled=True),
        ):
            metrics = ev.score_cases(ev.time_travel_cases(repo, n_fixes=3, window_size=100), retriever)
            assert metrics["n_fixes"] == 3.0
            for key in ("hit_at_1", "hit_at_3", "hit_at_10", "mrr"):
                assert 0.0 <= metrics[key] <= 1.0
            assert metrics["hit_at_1"] <= metrics["hit_at_3"] <= metrics["hit_at_10"]


# (fixture, n_fixes, window): the window cut is exercised on the skewed repo.
DIFFERENTIAL_REPOS = [
    ("timetravel_repo", 3, 100),
    ("skewed_dates_repo", 3, 4),
    ("shared_unit_repo", 3, 100),
]


def _rankings(cases, retriever):
    return [retriever(case.window, gitio.clean_subject(case.fix.subject)) for case in cases]


@pytest.mark.parametrize("fixture, n_fixes, window", DIFFERENTIAL_REPOS)
class TestTimeTravelAgainstOracle:
    def test_cases_match_datetime_scan(self, request, fixture, n_fixes, window):
        repo, _ = request.getfixturevalue(fixture)
        got = ev.time_travel_cases(repo, n_fixes, window)
        want = time_travel_cases_oracle(repo, n_fixes, window)
        assert [case.fix.sha for case in got] == [case.fix.sha for case in want]
        assert [[c.sha for c in case.window] for case in got] == [
            [c.sha for c in case.window] for case in want
        ]
        assert [case.ground_truth for case in got] == [case.ground_truth for case in want]
        for case in got:
            assert all(c.author_epoch < case.fix.author_epoch for c in case.window)

    @pytest.mark.parametrize("theta", [0.0, 2.5])
    def test_rankings_match_per_window_rebuild(self, request, fixture, n_fixes, window, theta):
        repo, _ = request.getfixturevalue(fixture)
        cases = ev.time_travel_cases(repo, n_fixes, window)
        oracle_cases = time_travel_cases_oracle(repo, n_fixes, window)
        want = {
            "grep": _rankings(oracle_cases, ev.grep_retriever()),
            "bm25": _rankings(oracle_cases, bm25_retriever_oracle()),
            "cd_v1": _rankings(oracle_cases, cd_retriever_oracle(False, theta=theta)),
            "cd_v2": _rankings(oracle_cases, cd_retriever_oracle(True, theta=theta)),
        }
        assert _rankings(cases, ev.grep_retriever()) == want["grep"]
        assert _rankings(cases, ev.bm25_retriever()) == want["bm25"]
        for fallback, name in ((False, "cd_v1"), (True, "cd_v2")):
            assert _rankings(cases, ev.cd_retriever(fallback, theta=theta)) == want[name]
        # the shared pair, run in both orders, reuses one extraction
        for order in (("cd_v1", "cd_v2"), ("cd_v2", "cd_v1")):
            pair = ev.cd_retrievers(theta=theta)
            for name in order:
                assert _rankings(cases, pair[name]) == want[name], name


    @pytest.mark.parametrize("theta", [0.0, 2.5])
    def test_rankings_match_the_per_window_indexes(self, request, fixture, n_fixes, window, theta):
        repo, _ = request.getfixturevalue(fixture)
        cases = ev.time_travel_cases(repo, n_fixes, window)
        want = {"bm25": bm25_retriever_per_window_oracle(), **cd_retrievers_per_window_oracle(theta)}
        got = {"bm25": ev.bm25_retriever(), **ev.cd_retrievers(theta)}
        for name in ("bm25", "cd_v2", "cd_v1"):
            assert _rankings(cases, got[name]) == _rankings(cases, want[name]), name


_QUERY_WORDS = ("pool", "connectionpool", "drained", "shutdown", "cache", "fix", "core", "hang", "race", "the")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_run_wide_postings_match_per_window_indexes_on_any_windows(shared_unit_repo, skewed_dates_repo, data):
    """Windows in any order and of any make-up, one after another on the same
    retrievers: each ranks as a fresh index over that window alone."""
    commits = [c for repo in (shared_unit_repo, skewed_dates_repo) for c in gitio.list_commits(repo[0])]
    theta = data.draw(st.sampled_from([0.0, 1.0, 2.5]))
    got = {"bm25": ev.bm25_retriever(), **ev.cd_retrievers(theta)}
    want = {"bm25": bm25_retriever_per_window_oracle(), **cd_retrievers_per_window_oracle(theta)}
    for _ in range(3):
        window = data.draw(st.lists(st.sampled_from(commits), unique_by=lambda c: c.sha, max_size=len(commits)))
        text = " ".join(data.draw(st.lists(st.sampled_from(_QUERY_WORDS), min_size=1, max_size=4)))
        for name in data.draw(st.permutations(list(got))):
            assert got[name](window, text) == want[name](window, text), name


@pytest.mark.parametrize("n_fixes", [3, 10], ids=["cases", "insufficient"])
def test_time_travel_cases_reap_every_git_child(timetravel_repo, monkeypatch, n_fixes):
    started = recording_popen(monkeypatch)
    repo, _ = timetravel_repo
    if n_fixes == 10:
        with pytest.raises(ev.InsufficientFixes):
            ev.time_travel_cases(repo, n_fixes, 100)
    else:
        assert len(ev.time_travel_cases(repo, n_fixes, 100)) == 3
    assert sum("--name-only" in proc.args for proc in started) == 1
    assert all(proc.returncode is not None for proc in started)


def test_file_lists_are_read_only_as_far_as_the_cases_reach(tmp_path, monkeypatch):
    # 6,000 commits print about 300 kB of file lists, several pipes' worth
    repo = build_fast_repo(tmp_path / "repo", [f"fix cache race {n}" for n in range(6000)])
    readers: list[gitio.ChangedFiles] = []

    class Recording(gitio.ChangedFiles):
        def __init__(self, repo_path):
            super().__init__(repo_path)
            readers.append(self)

    monkeypatch.setattr(gitio, "ChangedFiles", Recording)
    started = recording_popen(monkeypatch)
    (case,) = ev.time_travel_cases(repo, n_fixes=1, window_size=7)
    commits = readers[0].commits
    assert len(commits) == 6000
    assert case.fix is commits[0] and case.window == commits[1:8]
    assert all(commit.changed_files is not None for commit in commits[:8])
    assert commits[-1].changed_files is None
    assert all(proc.returncode is not None for proc in started)


def test_shared_unit_belongs_to_first_commit_in_window(shared_unit_repo):
    repo, shas = shared_unit_repo
    cases = {case.fix.sha: case for case in ev.time_travel_cases(repo, 3, 100)}
    newest, oldest = cases[shas["pool_fix_4"]], cases[shas["pool_fix_2"]]
    retriever = ev.cd_retrievers(theta=0.0)["cd_v1"]
    # camelCase pieces only in the newer copy; the older copy alone in the older window
    assert shas["docs"] in retriever(newest.window, gitio.clean_subject(newest.fix.subject))
    assert shas["pool_fix_1"] in retriever(oldest.window, gitio.clean_subject(oldest.fix.subject))


def test_commit_documents_extract_each_commit_once(timetravel_repo, monkeypatch):
    """eval sweep's two indexes and both time-travel modes share one
    extraction, the fallback included."""
    extracted: list[str] = []

    def recording(commits, fallback_enabled):
        assert fallback_enabled
        extracted.extend(commit.sha for commit in commits)
        return commit_units(commits, fallback_enabled)

    monkeypatch.setattr(ev, "commit_units", recording)
    commits = gitio.list_commits(timetravel_repo[0])
    documents = ev.CommitDocuments()
    documents.index(commits, False)
    documents.index(commits, True)
    for fallback_enabled in (False, True):
        documents.rank(commits, "fix cache race", fallback_enabled, 0.0)
    silent = [c.sha for c in commits if not extract_commit_units_oracle(c, fallback_enabled=False)]
    assert silent and len(silent) < len(commits)
    assert sorted(extracted) == sorted(c.sha for c in commits)


def test_commit_documents_extract_a_window_in_one_batch(timetravel_repo, monkeypatch):
    """One extractor call per corpus or window with unseen commits, holding
    just those, never one call per commit."""
    batches: list[list[str]] = []

    def recording(commits, fallback_enabled):
        assert fallback_enabled
        if commits:
            batches.append([commit.sha for commit in commits])
        return commit_units(commits, fallback_enabled)

    monkeypatch.setattr(ev, "commit_units", recording)
    cases = ev.time_travel_cases(timetravel_repo[0], 3, 100)
    documents = ev.CommitDocuments()
    seen: set[str] = set()
    want: list[list[str]] = []
    for case in cases:
        for fallback_enabled in (False, True):
            documents.rank(case.window, "fix cache race", fallback_enabled, 0.0)
            unseen = list(dict.fromkeys(c.sha for c in case.window if c.sha not in seen))
            if unseen:
                want.append(unseen)
                seen.update(unseen)
    commits = gitio.list_commits(timetravel_repo[0])
    documents.index(commits, True)
    want.append([c.sha for c in commits if c.sha not in seen])
    assert batches == [batch for batch in want if batch]
    assert max(map(len, batches)) > 1


def _hand_commit(sha: str, subject: str, body: str) -> gitio.Commit:
    return gitio.Commit(sha, "Dev One", "2023-01-01T00:00:00+00:00", 1672531200, subject, body)


@pytest.mark.parametrize("name", ["cd_v1", "cd_v2"])
def test_hit_resolves_to_owning_commit_when_short_shas_collide(name):
    drain = "Pool shutdown must drain the worker queue before closing sockets."
    earlier = _hand_commit("deadbeef" + "1" * 32, "Document pool shutdown", drain)
    later = _hand_commit("deadbeef" + "2" * 32, "Document cache warmup",
                         "The cache must be warmed before requests land.")
    copy = _hand_commit("deadbeef" + "3" * 32, "Repeat pool shutdown", drain)
    assert earlier.short_sha == later.short_sha == copy.short_sha
    retriever = ev.cd_retrievers(theta=0.0)[name]
    # window order: the unit belongs to the first commit that yields it
    assert retriever([earlier, later], "pool shutdown drain") == [earlier.sha]
    assert retriever([later, earlier], "pool shutdown drain") == [earlier.sha]
    assert retriever([earlier, later], "cache warmed requests") == [later.sha]
    assert retriever([later, copy, earlier], "pool shutdown drain") == [copy.sha]


# One fact id from four commits and one fallback id from three rule-silent
# ones, each copy cased or camelCased apart so that its tokens differ; a merge
# that yields nothing, and a commit with two units.
_SHARED_ID_PLAN = [
    ("Document pool tuning", "Note: the connectionpool must be drained before shutdown."),
    ("Document pool tuning again", "Note: the connectionPool must be drained before shutdown."),
    ("Explain pool drain", "Note: The ConnectionPool must be drained before Shutdown."),
    ("Bug: pool drain on exit", "Note: the connectionpool must be drained before shutdown."),
    ("Tune connectionpool sizes", ""),
    ("Tune connectionPool sizes", ""),
    ("tune ConnectionPool Sizes", ""),
    ("tune ConnectionPool Sizes", "Pool sizes follow the worker count."),
    ("Initial pool scaffolding", ""),
    ("Merge branch 'pool'", ""),
    ("Fix connectionpool shutdown leak", ""),
    ("Tune cache warmup", "The cache must be warmed before requests land."),
]
_SHARED_ID_COMMITS = [
    _hand_commit(f"deadbeef{position:032x}", subject, body) for position, (subject, body) in enumerate(_SHARED_ID_PLAN)
]
_SHARED_ID_WORDS = ("connection", "pool", "connectionpool", "shutdown", "drained", "sizes", "tune", "cache", "fix", "the")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_shared_ids_rank_as_per_window_indexes_on_hand_built_commits(data):
    """Windows in any order, repeating commits, over units that several
    commits yield with different tokens: both modes of one pair, in either
    order, rank as a fresh index over each window alone."""
    theta = data.draw(st.sampled_from([0.0, 1.0, 2.5]))
    got, want = ev.cd_retrievers(theta), cd_retrievers_per_window_oracle(theta)
    for _ in range(3):
        window = data.draw(st.lists(st.sampled_from(_SHARED_ID_COMMITS), max_size=2 * len(_SHARED_ID_COMMITS)))
        text = " ".join(data.draw(st.lists(st.sampled_from(_SHARED_ID_WORDS), min_size=1, max_size=4)))
        for name in data.draw(st.permutations(["cd_v1", "cd_v2"])):
            assert got[name](window, text) == want[name](window, text), name


def test_shared_id_plan_shares_ids_across_differing_tokens():
    by_id: dict[str, list[tuple[bool, frozenset]]] = {}
    for units, fallback in commit_units(_SHARED_ID_COMMITS, fallback_enabled=True):
        for unit in units:
            by_id.setdefault(unit.id, []).append((fallback, frozenset(tokenize(unit.content))))
    for fallback in (False, True):
        assert any(
            len(holders) > 2 and all(f == fallback for f, _ in holders) and len({t for _, t in holders}) > 1
            for holders in by_id.values()
        )


def test_a_window_repeating_a_sha_posts_each_document_once(monkeypatch):
    posted: list[tuple[str, str]] = []
    add = Postings.add

    def recording(self, key, doc):
        posted.append((key, doc.item.id))
        add(self, key, doc)

    monkeypatch.setattr(Postings, "add", recording)
    silent, noted = _SHARED_ID_COMMITS[4], _SHARED_ID_COMMITS[0]
    window = [silent, noted, silent, noted]
    got, want = ev.cd_retrievers(0.0), cd_retrievers_per_window_oracle(0.0)
    for name in ("cd_v1", "cd_v2", "cd_v2"):
        assert got[name](window, "connectionpool sizes") == want[name](window, "connectionpool sizes")
    assert len(posted) == len(set(posted)) == 2


class TestCohenKappa:
    def test_identical(self):
        assert ev.cohen_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0

    def test_balanced_total_disagreement(self):
        a = ["x", "x", "y", "y"]
        b = ["y", "y", "x", "x"]
        assert ev.cohen_kappa(a, b) == pytest.approx(-1.0)

    def test_hand_computed_contingency(self):
        a = ["x"] * 5 + ["x"] + ["y"] + ["y"] * 3
        b = ["x"] * 5 + ["y"] + ["x"] + ["y"] * 3
        # p_o = 8/10; marginals 0.6/0.4 each side; p_e = 0.36 + 0.16
        expected = (0.8 - 0.52) / (1 - 0.52)
        assert ev.cohen_kappa(a, b) == pytest.approx(expected, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            ev.cohen_kappa(["a"], ["a", "b"])
        with pytest.raises(ValueError):
            ev.cohen_kappa([], [])

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from("uvfn"), st.sampled_from("uvfn")), min_size=1, max_size=30))
    def test_symmetry_and_relabeling(self, pairs):
        a = [p[0] for p in pairs]
        b = [p[1] for p in pairs]
        direct = ev.cohen_kappa(a, b)
        assert direct == pytest.approx(ev.cohen_kappa(b, a))
        relabel = {"u": "1", "v": "2", "f": "3", "n": "4"}
        assert direct == pytest.approx(
            ev.cohen_kappa([relabel[x] for x in a], [relabel[x] for x in b])
        )


class TestBootstrap:
    @staticmethod
    def _mean(sample):
        return sum(sample) / len(sample)

    def test_constant_samples(self):
        lo, hi = ev.bootstrap_ci([0.3] * 10, self._mean, resamples=200, seed=1)
        assert lo == hi == pytest.approx(0.3)

    def test_proportion_interval_matches_reference(self):
        samples = [1.0] * 21 + [0.0] * 19
        lo, hi = ev.bootstrap_ci(samples, self._mean, resamples=10000, seed=42)
        assert lo == pytest.approx(0.375, abs=0.03)
        assert hi == pytest.approx(0.675, abs=0.03)
        assert lo <= self._mean(samples) <= hi

    def test_seeded_reproducibility(self):
        samples = [1.0, 0.0, 1.0, 1.0, 0.0]
        first = ev.bootstrap_ci(samples, self._mean, resamples=500, seed=7)
        second = ev.bootstrap_ci(samples, self._mean, resamples=500, seed=7)
        assert first == second

    def test_paired_delta_on_identical_arms(self):
        deltas = [0.0] * 40
        lo, hi = ev.bootstrap_ci(deltas, self._mean, resamples=1000, seed=3)
        assert (lo, hi) == (0.0, 0.0)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            ev.bootstrap_ci([], self._mean)

    def test_interval_covers_point_estimate_on_random_fixtures(self):
        import random as stdlib_random

        rng = stdlib_random.Random(99)
        violations = 0
        for trial in range(50):
            samples = [rng.random() for _ in range(rng.randint(3, 30))]
            lo, hi = ev.bootstrap_ci(samples, self._mean, resamples=400, seed=trial)
            if not lo <= self._mean(samples) <= hi:
                violations += 1
        assert violations == 0


class TestInputFiles:
    def test_benchmark_round_trip(self, tmp_path):
        payload = [
            {"query": "alpha", "answer_span": "span", "query_class": "ANSWERABLE", "subject_repo": "fixture"},
            {"query": "beta", "query_class": "OOD"},
        ]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        queries = ev.load_benchmark(path)
        assert [q.query_class for q in queries] == ["ANSWERABLE", "OOD"]

    def test_benchmark_validation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"query": "x", "query_class": "FACT_STYLE"}]))
        with pytest.raises(ValueError):
            ev.load_benchmark(path)
        path.write_text(json.dumps([{"query": "x", "query_class": "WEIRD"}]))
        with pytest.raises(ValueError):
            ev.load_benchmark(path)
        path.write_text(json.dumps([{"query": "x", "answer_span": "y", "query_class": "OOD"}]))
        with pytest.raises(ValueError):
            ev.load_benchmark(path)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "unit_id,annotator_a,annotator_b,adjudicated\n"
            "abc123,useful,useful,useful\n"
            "def456,fragment,noise,fragment\n",
            encoding="utf-8",
        )
        records = ev.load_labels(path)
        assert len(records) == 2
        assert records[1].annotator_b == "noise"

    def test_labels_validation(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("unit_id,a,b,c\nx,useful,useful,useful\n", encoding="utf-8")
        with pytest.raises(ValueError):
            ev.load_labels(path)
        path.write_text(
            "unit_id,annotator_a,annotator_b,adjudicated\nx,useful,useful,excellent\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            ev.load_labels(path)


class TestManifest:
    def test_verify_matching_and_prefix_sha(self, repo_builder):
        sha = repo_builder.commit("pinned state")
        entries = [{"name": "fixture", "path": str(repo_builder.path), "sha": sha}]
        verified = ev.verify_manifest(entries)
        assert verified[0]["head"] == sha
        prefix_entries = [{"name": "fixture", "path": str(repo_builder.path), "sha": sha[:10]}]
        assert ev.verify_manifest(prefix_entries)[0]["head"] == sha

    def test_mismatch_raises(self, repo_builder):
        repo_builder.commit("pinned state")
        entries = [{"name": "fixture", "path": str(repo_builder.path), "sha": "f" * 40}]
        with pytest.raises(ValueError):
            ev.verify_manifest(entries)


def test_bug_fix_selector_examples():
    assert ev.BUG_FIX_RE.search("Fix pool shutdown deadlock")
    assert ev.BUG_FIX_RE.search("avoid regression in parser")
    assert not ev.BUG_FIX_RE.search("Add pool metrics")
    assert not ev.BUG_FIX_RE.search("prefixes of fixtures stay unmatched")  # \b guard
