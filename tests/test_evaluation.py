from __future__ import annotations

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from commitdistill import evaluation as ev
from commitdistill import gitio
from commitdistill.extraction import extract_commits
from commitdistill.retrieval import build_index, query

from oracles import (
    bm25_retriever_oracle,
    cd_retriever_oracle,
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
            fix_date = case.fix.author_datetime()
            assert all(c.author_datetime() < fix_date for c in case.window)
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


def test_shared_unit_belongs_to_first_commit_in_window(shared_unit_repo):
    repo, shas = shared_unit_repo
    cases = {case.fix.sha: case for case in ev.time_travel_cases(repo, 3, 100)}
    newest, oldest = cases[shas["pool_fix_4"]], cases[shas["pool_fix_2"]]
    retriever = ev.cd_retrievers(theta=0.0)["cd_v1"]
    # camelCase pieces only in the newer copy; the older copy alone in the older window
    assert shas["docs"] in retriever(newest.window, gitio.clean_subject(newest.fix.subject))
    assert shas["pool_fix_1"] in retriever(oldest.window, gitio.clean_subject(oldest.fix.subject))


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
