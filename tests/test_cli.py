from __future__ import annotations

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from commitdistill import cli, extraction, gitio, store

from oracles import (
    baseline_payload_oracle,
    budget_payload_oracle,
    sweep_payload_oracle,
    time_travel_payload_oracle,
)
from test_evaluation import DIFFERENTIAL_REPOS

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

# eval command -> (result file, payload oracle)
EVAL_ORACLES = {
    "baseline": ("baseline_results.json", baseline_payload_oracle),
    "budget": ("budget_table.json", budget_payload_oracle),
    "sweep": ("threshold_sweep.json", sweep_payload_oracle),
}


def run_cli(*args: str) -> int:
    return cli.main(list(args))


@pytest.fixture()
def extracted_repo(calibration_repo, monkeypatch):
    repo, shas = calibration_repo
    monkeypatch.delenv("COMMITDISTILL_SUBJECT_FALLBACK", raising=False)
    store_file = store.store_path(repo)
    if store_file.exists():
        store_file.unlink()
    assert run_cli("extract", "--repo", str(repo)) == 0
    return repo, shas


class TestExtract:
    def test_reports_counts_and_yield(self, calibration_repo, capsys, monkeypatch, tmp_path):
        repo, _ = calibration_repo
        monkeypatch.delenv("COMMITDISTILL_SUBJECT_FALLBACK", raising=False)
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        assert run_cli("extract", "--repo", str(repo)) == 0
        out = capsys.readouterr().out
        assert store_file.exists()
        assert "facts: 3" in out
        assert "skills: 2" in out
        assert "patterns: 4" in out
        assert "total: 9 units from 10 commits (900.0 per 1000 commits)" in out
        assert "new: 9" in out

    def test_second_run_adds_nothing(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        assert run_cli("extract", "--repo", str(repo)) == 0
        assert "new: 0" in capsys.readouterr().out

    def test_unchanged_store_is_not_rewritten(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        store_file = store.store_path(repo)
        before = os.stat(store_file)
        data = store_file.read_bytes()
        assert run_cli("extract", "--repo", str(repo)) == 0
        assert capsys.readouterr().out == (
            "facts: 3\nskills: 2\npatterns: 4\n"
            "total: 9 units from 10 commits (900.0 per 1000 commits)\nnew: 0\n"
        )
        after = os.stat(store_file)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert store_file.read_bytes() == data

    def test_new_units_are_merged_into_an_existing_store(self, calibration_repo, capsys):
        repo, _ = calibration_repo
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        assert run_cli("extract", "--repo", str(repo), "--fallback", "off") == 0
        assert len(store.load(repo).units) == 8
        assert run_cli("extract", "--repo", str(repo), "--fallback", "on") == 0
        assert capsys.readouterr().out.endswith("new: 1\n")
        assert len(store.load(repo).units) == 9

    def test_env_var_disables_fallback(self, calibration_repo, capsys, monkeypatch):
        repo, _ = calibration_repo
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        monkeypatch.setenv("COMMITDISTILL_SUBJECT_FALLBACK", "0")
        assert run_cli("extract", "--repo", str(repo)) == 0
        assert "total: 8 units" in capsys.readouterr().out

    def test_explicit_flag_beats_env(self, calibration_repo, capsys, monkeypatch):
        repo, _ = calibration_repo
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        monkeypatch.setenv("COMMITDISTILL_SUBJECT_FALLBACK", "0")
        assert run_cli("extract", "--repo", str(repo), "--fallback", "on") == 0
        assert "total: 9 units" in capsys.readouterr().out

    def test_bad_repo_exits_2(self, tmp_path, capsys):
        assert run_cli("extract", "--repo", str(tmp_path / "missing")) == 2
        assert "error" in capsys.readouterr().err


def _one_unit_store(**override) -> str:
    """A store whose second unit is a valid unit with ``override`` applied."""
    valid = {
        "id": "0123456789ab", "type": "fact", "title": "a fact", "content": "a fact",
        "weight": 0.75, "context": "a fact", "meta": {"commit": "0123abcd"},
    }
    return json.dumps({"schema_version": 1, "units": [valid, {**valid, **override}]})


class TestStoreFile:
    def test_new_store_gets_umask_mode_and_rewrites_keep_mode(self, calibration_repo, monkeypatch):
        repo, _ = calibration_repo
        monkeypatch.delenv("COMMITDISTILL_SUBJECT_FALLBACK", raising=False)
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        previous = os.umask(0o027)
        try:
            assert run_cli("extract", "--repo", str(repo)) == 0
        finally:
            os.umask(previous)
        assert stat.S_IMODE(os.stat(store_file).st_mode) == 0o640
        os.chmod(store_file, 0o664)
        assert run_cli("store", "strip-attribution", "--repo", str(repo)) == 0
        assert stat.S_IMODE(os.stat(store_file).st_mode) == 0o664

    @pytest.mark.parametrize(
        "text, problem",
        [
            ("[]", "must hold a JSON object"),
            ('{"units": []}', "schema_version None"),
            ('{"schema_version": 99, "units": []}', "schema_version 99"),
            ('{"schema_version": 1}', "no units list"),
            ('{"schema_version": 1, "units": {}}', "no units list"),
            ('{"schema_version": 1, "units": [{"id": "abc", "type": "fact"}]}',
             "unit 0 lacks content, context, meta, title, weight"),
            ('{"schema_version": 1, "units": ["abc"]}', "unit 0 is not a JSON object"),
            ("{not json", "is not valid JSON"),
            pytest.param(_one_unit_store(type="bogus"), "unit 1 has unknown type 'bogus'", id="type-bogus"),
            pytest.param(_one_unit_store(type=["fact"]), "unit 1 has unknown type ['fact']", id="type-array"),
            pytest.param(_one_unit_store(weight="high"), "unit 1 has a non-numeric weight", id="weight-string"),
            pytest.param(_one_unit_store(weight=True), "unit 1 has a non-numeric weight", id="weight-bool"),
            pytest.param(_one_unit_store(weight=None), "unit 1 has a non-numeric weight", id="weight-null"),
            pytest.param(_one_unit_store(id=7), "unit 1 has a non-string id", id="id-number"),
            pytest.param(_one_unit_store(title=None), "unit 1 has a non-string title", id="title-null"),
            pytest.param(_one_unit_store(content=["text"]), "unit 1 has a non-string content",
                         id="content-array"),
            pytest.param(_one_unit_store(context={}), "unit 1 has a non-string context", id="context-object"),
            pytest.param(_one_unit_store(meta=[["commit", "0123abcd"]]), "unit 1 has a non-object meta",
                         id="meta-array"),
            pytest.param(_one_unit_store(meta="0123abcd"), "unit 1 has a non-object meta", id="meta-string"),
        ],
    )
    def test_malformed_store_is_a_one_line_error(self, tmp_path, capsys, text, problem):
        store_file = store.store_path(tmp_path)
        store_file.parent.mkdir(parents=True)
        store_file.write_text(text, encoding="utf-8")
        assert run_cli("query", "--repo", str(tmp_path), "anything") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(store_file) in err
        assert problem in err


class TestQuery:
    def test_human_output_line_shape(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        assert run_cli("query", "--repo", str(repo), "intersphinx links use label") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        score, unit_type, content, sha = lines[0].split("\t")
        assert float(score) >= 2.5
        assert unit_type == "fact"
        assert content == "Intersphinx links must use a label."
        assert len(sha) == 8

    def test_silence_is_success(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        assert run_cli("query", "--repo", str(repo), "raytracing reflection model") == 0
        assert capsys.readouterr().out == ""

    def test_json_output(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        assert run_cli(
            "query", "--repo", str(repo), "--format", "json", "session pool exhausted crash"
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert set(payload[0]) == {"score", "unit"}
        assert set(payload[0]["unit"]) == {"id", "type", "title", "content", "weight", "context", "meta"}

    def test_missing_store_exits_2_with_hint(self, tmp_path, capsys, repo_builder):
        repo_builder.commit("some change")
        assert run_cli("query", "--repo", str(repo_builder.path), "anything") == 2
        assert "extract" in capsys.readouterr().err


class TestStrip:
    def test_strip_attribution_in_place(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        before = store.load(repo)
        assert run_cli("store", "strip-attribution", "--repo", str(repo)) == 0
        after = store.load(repo)
        assert set(after.units) == set(before.units)
        assert all(unit.meta["author"] == "redacted" for unit in after.units.values())
        assert all("commit" in unit.meta for unit in after.units.values())


class TestEvalCommands:
    def test_budget_table(self, extracted_repo, capsys, tmp_path):
        repo, _ = extracted_repo
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "budget",
            "--repo", str(repo),
            "--benchmark", str(DATA / "benchmark_budget.json"),
            "--out", str(out_dir),
        ) == 0
        payload = json.loads((out_dir / "budget_table.json").read_text())
        assert payload["n_queries"] == 6
        for name, entry in payload["retrievers"].items():
            rates = [row["hit_rate"] for row in entry["rows"]]
            assert rates == sorted(rates), name
            assert "jackknife_min_at_256" in entry

    def test_sweep_shows_fallback_difference(self, extracted_repo, capsys, tmp_path):
        repo, _ = extracted_repo
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "sweep",
            "--repo", str(repo),
            "--benchmark", str(DATA / "benchmark_classes.json"),
            "--out", str(out_dir),
        ) == 0
        payload = json.loads((out_dir / "threshold_sweep.json").read_text())
        v1 = {row["theta"]: row for row in payload["cd_v1"]}
        v2 = {row["theta"]: row for row in payload["cd_v2"]}
        assert v1[2.5]["ANSWERABLE"] == 1.0
        assert v1[2.5]["NOT_IN_CORPUS"] == 0.0
        assert v1[2.5]["OOD"] == 0.0
        assert v2[2.5]["NOT_IN_CORPUS"] > v1[2.5]["NOT_IN_CORPUS"]
        assert v2[2.5]["OOD"] == 0.0

    def test_sweep_extracts_each_commit_once(self, extracted_repo, tmp_path, monkeypatch):
        repo, _ = extracted_repo
        extracted = []
        real_extract_units = extraction.extract_units

        def counting_extract_units(text, meta, *args, **kwargs):
            extracted.append(meta["commit"])
            return real_extract_units(text, meta, *args, **kwargs)

        monkeypatch.setattr(extraction, "extract_units", counting_extract_units)
        assert run_cli(
            "eval", "sweep", "--repo", str(repo), "--benchmark", str(DATA / "benchmark_classes.json"),
            "--out", str(tmp_path / "evalout"),
        ) == 0
        assert sorted(extracted) == sorted(c.short_sha for c in gitio.list_commits(repo, 5000))

    def test_baseline_results(self, extracted_repo, tmp_path):
        repo, _ = extracted_repo
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "baseline",
            "--repo", str(repo),
            "--benchmark", str(DATA / "benchmark_classes.json"),
            "--out", str(out_dir),
        ) == 0
        payload = json.loads((out_dir / "baseline_results.json").read_text())
        assert payload["n_queries"] == 7
        assert payload["answered"]["commitdistill"] >= 3
        first = payload["results"][0]
        assert {"query", "query_class", "commitdistill", "grep", "bm25"} <= set(first)

    @pytest.mark.parametrize(
        "command, bench_file, flags, oracle_args",
        [
            ("baseline", "benchmark_classes.json", ["--fallback", "on"], {"fallback_enabled": True}),
            ("baseline", "benchmark_classes.json", ["--fallback", "off"], {"fallback_enabled": False}),
            ("baseline", "benchmark_classes.json", ["--fallback", "on", "--k", "2", "--theta", "0"],
             {"fallback_enabled": True, "k": 2, "theta": 0.0}),
            ("budget", "benchmark_budget.json", ["--fallback", "on"], {"fallback_enabled": True}),
            ("budget", "benchmark_budget.json", ["--fallback", "off"], {"fallback_enabled": False}),
            ("budget", "benchmark_classes.json", ["--fallback", "on", "--budgets", "64,256", "--theta", "0"],
             {"fallback_enabled": True, "budgets": [64, 256], "theta": 0.0}),
            ("sweep", "benchmark_classes.json", [], {}),
        ],
        ids=["baseline-on", "baseline-off", "baseline-k2-theta0", "budget-on", "budget-off",
             "budget-two-budgets-theta0", "sweep"],
    )
    def test_eval_results_match_oracle_bytes(
        self, extracted_repo, tmp_path, command, bench_file, flags, oracle_args
    ):
        repo, _ = extracted_repo
        bench = DATA / bench_file
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", command, "--repo", str(repo), "--benchmark", str(bench), "--out", str(out_dir), *flags
        ) == 0
        filename, oracle = EVAL_ORACLES[command]
        want = store.canonical_json(oracle(repo, bench, **oracle_args))
        assert (out_dir / filename).read_bytes() == want.encode("utf-8")

    def test_timetravel(self, timetravel_repo, tmp_path):
        repo, _ = timetravel_repo
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "timetravel",
            "--repo", str(repo),
            "--fixes", "3",
            "--window", "100",
            "--out", str(out_dir),
        ) == 0
        payload = json.loads((out_dir / "time_travel_results.json").read_text())
        assert set(payload["methods"]) == {"grep", "bm25", "cd_v1", "cd_v2"}
        for metrics in payload["methods"].values():
            assert metrics["hit_at_1"] <= metrics["hit_at_3"] <= metrics["hit_at_10"]

    @pytest.mark.parametrize("fixture, n_fixes, window", DIFFERENTIAL_REPOS)
    def test_timetravel_results_match_oracle_bytes(self, request, tmp_path, fixture, n_fixes, window):
        repo, _ = request.getfixturevalue(fixture)
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "timetravel", "--repo", str(repo), "--fixes", str(n_fixes),
            "--window", str(window), "--out", str(out_dir),
        ) == 0
        want = store.canonical_json(time_travel_payload_oracle(repo, n_fixes, window))
        assert (out_dir / "time_travel_results.json").read_bytes() == want.encode("utf-8")

    def test_timetravel_insufficient_fixes_exits_2(self, timetravel_repo, capsys, tmp_path):
        repo, _ = timetravel_repo
        assert run_cli(
            "eval", "timetravel", "--repo", str(repo), "--fixes", "99",
            "--out", str(tmp_path / "x"),
        ) == 2

    def test_kappa(self, tmp_path, capsys):
        out_dir = tmp_path / "evalout"
        assert run_cli(
            "eval", "kappa",
            "--labels", str(DATA / "labels_sample.csv"),
            "--resamples", "2000",
            "--out", str(out_dir),
        ) == 0
        payload = json.loads((out_dir / "kappa_results.json").read_text())
        assert payload["n"] == 10
        expected_kappa = (0.8 - 0.52) / (1 - 0.52)
        assert payload["kappa"] == pytest.approx(expected_kappa, abs=1e-12)
        assert payload["useful_precision"] == pytest.approx(0.6)
        lo, hi = payload["useful_precision_ci95"]
        assert lo <= 0.6 <= hi

    def test_kappa_identical_columns(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "unit_id,annotator_a,annotator_b,adjudicated\n"
            "a,useful,useful,useful\n"
            "b,noise,noise,noise\n",
            encoding="utf-8",
        )
        assert run_cli(
            "eval", "kappa", "--labels", str(labels), "--resamples", "100",
            "--out", str(tmp_path / "out"),
        ) == 0
        out = capsys.readouterr().out
        assert "kappa: 1.000" in out

    def test_manifest_gate(self, extracted_repo, tmp_path):
        repo, _ = extracted_repo
        good = [{"name": "fixture", "path": str(repo), "sha": gitio.head_sha(repo)}]
        bad = [{"name": "fixture", "path": str(repo), "sha": "f" * 40}]
        good_path = tmp_path / "good.json"
        bad_path = tmp_path / "bad.json"
        good_path.write_text(json.dumps(good))
        bad_path.write_text(json.dumps(bad))
        assert run_cli(
            "eval", "budget", "--repo", str(repo),
            "--benchmark", str(DATA / "benchmark_budget.json"),
            "--out", str(tmp_path / "o1"), "--manifest", str(good_path),
        ) == 0
        assert run_cli(
            "eval", "budget", "--repo", str(repo),
            "--benchmark", str(DATA / "benchmark_budget.json"),
            "--out", str(tmp_path / "o2"), "--manifest", str(bad_path),
        ) == 2


class TestInputFileErrors:
    @pytest.mark.parametrize(
        "option, content, problem",
        [
            ("--benchmark", [{"query_class": "OOD"}], "entry 0 lacks query"),
            ("--benchmark", [1], "entry 0 is not a JSON object"),
            ("--benchmark", [{"query": "q", "query_class": "OOD"}, {"query": 7, "query_class": "OOD"}],
             "entry 1 has a non-string query"),
            ("--benchmark", [{"query": "q", "query_class": ["OOD"]}], "entry 0 has a non-string query_class"),
            ("--benchmark", [{"query": "q", "query_class": "ANSWERABLE", "answer_span": 3}],
             "entry 0 has a non-string answer_span"),
            ("--benchmark", [{"query": "q", "query_class": "OOD", "subject_repo": None}],
             "entry 0 has a non-string subject_repo"),
            ("--benchmark", {"query": "q", "query_class": "OOD"}, "must hold a JSON array"),
            ("--manifest", [{"name": "fixture", "sha": "abc"}], "entry 0 lacks path"),
            ("--manifest", [{"path": ".", "sha": 1234}], "entry 0 has a non-string sha"),
            ("--manifest", [["fixture", ".", "abc"]], "entry 0 is not a JSON object"),
            ("--manifest", {"path": ".", "sha": "abc"}, "must hold a JSON array"),
        ],
    )
    def test_bad_file_is_a_one_line_error(self, calibration_repo, tmp_path, capsys, option, content, problem):
        repo, _ = calibration_repo
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content), encoding="utf-8")
        assert run_cli(  # a repeated --benchmark overrides the good one
            "eval", "baseline", "--repo", str(repo), "--out", str(tmp_path / "out"),
            "--benchmark", str(DATA / "benchmark_classes.json"), option, str(bad),
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err
        assert problem in err


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run_cli("no-such-command") == 1
        assert run_cli() == 1

    def test_missing_required_argument_is_1(self, capsys):
        assert run_cli("extract") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--repo", "r", "--k", "0", "text"],
            ["query", "--repo", "r", "--theta", "-0.5", "text"],
            ["query", "--repo", "r", "--theta", "nan", "text"],
            ["eval", "baseline", "--repo", "r", "--benchmark", "b", "--theta", "-1"],
            ["eval", "baseline", "--repo", "r", "--benchmark", "b", "--k", "0"],
            ["eval", "budget", "--repo", "r", "--benchmark", "b", "--theta", "-1"],
            ["eval", "timetravel", "--repo", "r", "--theta", "-1"],
            ["eval", "timetravel", "--repo", "r", "--fixes", "0"],
            ["eval", "timetravel", "--repo", "r", "--window", "0"],
            ["extract", "--repo", "r", "--max-commits", "0"],
            ["eval", "kappa", "--labels", "l", "--resamples", "0"],
            ["eval", "budget", "--repo", "r", "--benchmark", "b", "--budgets", "0"],
            ["eval", "budget", "--repo", "r", "--benchmark", "b", "--budgets", "-5"],
            ["eval", "budget", "--repo", "r", "--benchmark", "b", "--budgets", ","],
            ["eval", "budget", "--repo", "r", "--benchmark", "b", "--budgets", "64,64"],
            ["eval", "sweep", "--repo", "r", "--benchmark", "b", "--thetas", "-1"],
            ["eval", "sweep", "--repo", "r", "--benchmark", "b", "--thetas", "nan"],
            ["eval", "sweep", "--repo", "r", "--benchmark", "b", "--thetas", "2.5,2.50"],
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, argv, capsys):
        assert run_cli(*argv) == 1
        assert "error: argument" in capsys.readouterr().err


def test_python_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-m", "commitdistill", "--help"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        encoding="utf-8",
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert "usage: commitdistill" in completed.stdout
