from __future__ import annotations

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from commitdistill import cli, evaluation, gitio, store

from oracles import (
    baseline_payload_oracle,
    budget_payload_oracle,
    sweep_payload_oracle,
    store_bytes_oracle,
    time_travel_payload_oracle,
)
from conftest import build_fast_repo, run_git
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

    @pytest.mark.parametrize("env", [None, "0", "1"], ids=["env-unset", "env-0", "env-1"])
    @pytest.mark.parametrize(
        "flags", [[], ["--fallback", "on"], ["--fallback", "off"]], ids=["no-flag", "flag-on", "flag-off"]
    )
    def test_fallback_from_flag_then_env(self, calibration_repo, capsys, monkeypatch, env, flags):
        repo, _ = calibration_repo
        store_file = store.store_path(repo)
        if store_file.exists():
            store_file.unlink()
        if env is None:
            monkeypatch.delenv("COMMITDISTILL_SUBJECT_FALLBACK", raising=False)
        else:
            monkeypatch.setenv("COMMITDISTILL_SUBJECT_FALLBACK", env)
        fallback = flags[1:] == ["on"] or (not flags and env != "0")
        assert run_cli("extract", "--repo", str(repo), *flags) == 0
        assert f"total: {9 if fallback else 8} units" in capsys.readouterr().out

    def test_bad_repo_exits_2(self, tmp_path, capsys):
        assert run_cli("extract", "--repo", str(tmp_path / "missing")) == 2
        assert "error" in capsys.readouterr().err

    def test_failing_git_is_a_one_line_error(self, repo_builder, capsys):
        root = repo_builder.commit("root")
        repo_builder.commit("Note: the pool must drain before shutdown.")
        (repo_builder.path / ".git" / "objects" / root[:2] / root[2:]).unlink()
        assert run_cli("extract", "--repo", str(repo_builder.path)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("commitdistill: error: ") and root in line
        assert not store.store_path(repo_builder.path).exists()

    def test_separator_byte_after_the_first_read(self, tmp_path, capsys, monkeypatch):
        messages = [f"fix cache race {n}\n\nNote: the cache must be warm before use {n}." for n in range(40)]
        messages[2] = "poisoned\n\nbefore\x1eafter"
        repo = build_fast_repo(tmp_path / "repo", messages)
        poisoned = run_git(repo, "rev-list", "--reverse", "HEAD").split()[2]
        store_file = store.store_path(repo)
        assert run_cli("extract", "--repo", str(repo), "--max-commits", "10") == 0
        kept = store_file.read_bytes()
        capsys.readouterr()
        # Each record is longer than one read, so git's first reads end well before the poisoned commit.
        monkeypatch.setattr(gitio, "_READ_SIZE", 64)
        assert run_cli("extract", "--repo", str(repo)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert f"commit {poisoned}: message contains wire-format separator bytes" in line
        assert store_file.read_bytes() == kept
        store_file.unlink()
        assert run_cli("extract", "--repo", str(repo)) == 2
        assert not store_file.exists()


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
            ('{"schema_version": true, "units": []}', "schema_version True"),
            ('{"schema_version": 1.0, "units": []}', "schema_version 1.0"),
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
            pytest.param(_one_unit_store(weight=math.nan), "unit 1 has a non-finite weight", id="weight-nan"),
            pytest.param(_one_unit_store(weight=math.inf), "unit 1 has a non-finite weight", id="weight-inf"),
            pytest.param(_one_unit_store(weight=-math.inf), "unit 1 has a non-finite weight", id="weight-minus-inf"),
            pytest.param(_one_unit_store(weight=10**400), "unit 1 has a non-finite weight", id="weight-huge-int"),
            pytest.param(_one_unit_store(weight=0.5).replace("0.5", "9" * 5001), "is not valid JSON: Exceeds the limit",
                         id="weight-5001-digits"),
            pytest.param('{"schema_version": 1, "units": ' + "[" * 200_000 + "]" * 200_000 + "}",
                         "is not valid JSON: maximum recursion depth exceeded", id="nested-too-deep"),
            pytest.param(_one_unit_store(id=7), "unit 1 has a non-string id", id="id-number"),
            pytest.param(_one_unit_store(title=None), "unit 1 has a non-string title", id="title-null"),
            pytest.param(_one_unit_store(content=["text"]), "unit 1 has a non-string content",
                         id="content-array"),
            pytest.param(_one_unit_store(context={}), "unit 1 has a non-string context", id="context-object"),
            pytest.param(_one_unit_store(meta=[["commit", "0123abcd"]]), "unit 1 has a non-object meta",
                         id="meta-array"),
            pytest.param(_one_unit_store(meta="0123abcd"), "unit 1 has a non-object meta", id="meta-string"),
            pytest.param(_one_unit_store(content="another fact"), "unit 1 repeats the id '0123456789ab' of unit 0",
                         id="id-repeated"),
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

    def test_strip_attribution_writes_the_oracle_bytes(self, extracted_repo, capsys):
        repo, _ = extracted_repo
        want = store_bytes_oracle(store.strip_attribution(store.load(repo)))
        assert run_cli("store", "strip-attribution", "--repo", str(repo)) == 0
        assert store.store_path(repo).read_bytes() == want


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
        real_commit_units = evaluation.commit_units

        def counting_commit_units(commits, fallback_enabled):
            extracted.extend(commit.short_sha for commit in commits)
            return real_commit_units(commits, fallback_enabled)

        monkeypatch.setattr(evaluation, "commit_units", counting_commit_units)
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

    def test_kappa_reads_a_byte_order_mark(self, tmp_path, capsys):
        with_bom = tmp_path / "labels.csv"
        with_bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "labels_sample.csv").read_bytes())
        for name, labels in (("plain", DATA / "labels_sample.csv"), ("bom", with_bom)):
            assert run_cli(
                "eval", "kappa", "--labels", str(labels), "--resamples", "200", "--out", str(tmp_path / name)
            ) == 0
        result = "kappa_results.json"
        assert (tmp_path / "bom" / result).read_bytes() == (tmp_path / "plain" / result).read_bytes()

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
        head = gitio.head_sha(repo)
        good = [{"name": "fixture", "path": str(repo), "sha": head}, {"path": str(repo), "sha": head[:10]}]
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
            ("--benchmark", b'[{"query": "q",', "is not UTF-8 JSON: Expecting"),
            ("--benchmark", b'[{"query": "\xff"}]', "is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff in position 12"),
            ("--manifest", b"path,sha", "is not UTF-8 JSON: Expecting value: line 1 column 1"),
            ("--manifest", b"\xfe\xff[]", "is not UTF-8 JSON: 'utf-8' codec can't decode byte 0xfe in position 0"),
            ("--benchmark", [{"query": "q", "query_class": "WEIRD"}], "entry 0: unknown query class: 'WEIRD'"),
            ("--benchmark", [{"query": "q", "query_class": "OOD"}, {"query": "p", "query_class": "ANSWERABLE"}],
             "entry 1: ANSWERABLE query 'p' needs an answer span"),
            ("--benchmark", [{"query": "q", "query_class": "OOD", "answer_span": "x"}],
             "entry 0: OOD query 'q' must not carry a span"),
            ("--manifest", [{"path": ".", "sha": ""}], "entry 0 pins sha '', not 7 to 40 hex digits"),
            ("--manifest", [{"path": ".", "sha": "0" * 7}, {"path": ".", "sha": "zzzzzzz"}],
             "entry 1 pins sha 'zzzzzzz', not 7 to 40 hex digits"),
            ("--manifest", [{"path": ".", "sha": "abc"}], "entry 0 pins sha 'abc', not 7 to 40 hex digits"),
            pytest.param("--benchmark", b"[" * 200_000 + b"]" * 200_000,
                         "is not UTF-8 JSON: maximum recursion depth exceeded", id="benchmark-nested-too-deep"),
            pytest.param("--manifest", b"[" * 200_000 + b"]" * 200_000,
                         "is not UTF-8 JSON: maximum recursion depth exceeded", id="manifest-nested-too-deep"),
            pytest.param("--benchmark", b'[{"query": "q", "query_class": "OOD", "n": ' + b"9" * 5000 + b"}]",
                         "is not UTF-8 JSON: Exceeds the limit (4300 digits)", id="benchmark-5000-digits"),
        ],
    )
    def test_bad_file_is_a_one_line_error(self, calibration_repo, tmp_path, capsys, option, content, problem):
        repo, _ = calibration_repo
        bad = tmp_path / "bad.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(json.dumps(content), encoding="utf-8")
        assert run_cli(  # a repeated --benchmark overrides the good one
            "eval", "baseline", "--repo", str(repo), "--out", str(tmp_path / "out"),
            "--benchmark", str(DATA / "benchmark_classes.json"), option, str(bad),
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err
        assert problem in err

    @pytest.mark.parametrize(
        "experiment, problem",
        [("baseline", "holds no queries"), ("sweep", "holds no queries"), ("budget", "has no queries with answer spans")],
    )
    def test_empty_benchmark_exits_2(self, calibration_repo, tmp_path, capsys, experiment, problem):
        repo, _ = calibration_repo
        empty = tmp_path / "empty.json"
        empty.write_text("[]", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert run_cli(
            "eval", experiment, "--repo", str(repo), "--benchmark", str(empty), "--out", str(out_dir)
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"benchmark {empty} {problem}" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"unit_id,annotator_a,annotator_b,adjudicated\na,useful,useful,useful\nb,useful,bogus,useful\n",
             "line 3: label 'bogus' outside the four-class rubric"),
            (b"unit_id,annotator_a,annotator_b,adjudicated\na,useful,useful\n", "line 2 has 3 fields, not 4"),
            (b"unit_id,annotator_a,annotator_b,adjudicated\na,useful,useful,useful,noise\n",
             "line 2 has 5 fields, not 4"),
            (b"unit_id,annotator_a,annotator_b,adjudicated\na,useful,useful,useful\n\xff,noise,noise,noise\n",
             "line 3 is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 67"),
            (b"unit_id,annotator_a,annotator_b,adjudicated\na,useful,useful,useful\nb,noise,noise,noise\n"
             b"a,noise,useful,noise\n", "line 4 repeats unit_id 'a' of line 2"),
        ],
        ids=["unknown-label", "short-row", "long-row", "not-utf-8", "repeated-unit"],
    )
    def test_bad_labels_file_is_a_one_line_error(self, tmp_path, capsys, content, problem):
        bad = tmp_path / "labels.csv"
        bad.write_bytes(content)
        assert run_cli("eval", "kappa", "--labels", str(bad), "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"labels file {bad} {problem}" in err


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


def _src_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["query", "intersphinx links use label"], ["cli", "retrieval", "store"]),
        (["extract"], ["cli", "extraction", "gitio", "retrieval", "store"]),
    ],
    ids=["query", "extract"],
)
def test_a_command_imports_only_the_modules_it_runs(extracted_repo, argv, loaded):
    repo, _ = extracted_repo
    code = (
        "import sys\n"
        "from commitdistill import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print(status, *sorted(m for m in sys.modules if m.startswith('commitdistill.')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code, argv[0], "--repo", str(repo), *argv[1:]],
        env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.splitlines()[-1].split() == ["0", *(f"commitdistill.{name}" for name in loaded)]


def test_python_m_runs_the_cli():
    env = _src_env()
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


@pytest.fixture(scope="module")
def noisy_repo(tmp_path_factory) -> Path:
    """A repository whose store answers "cache pool" with many hits."""
    repo = build_fast_repo(tmp_path_factory.mktemp("noisy") / "repo", [
        f"Fix cache pool race {n}\n\nNote: the cache pool must be drained before worker {n} stops."
        for n in range(60)
    ])
    assert cli.main(["extract", "--repo", str(repo)]) == 0
    return repo


def _query_into_closed_pipe(repo: Path, close_stderr: bool) -> subprocess.CompletedProcess:
    """``query`` with its stdout, and with ``close_stderr`` its stderr, the
    write end of a pipe whose read end is already closed."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "commitdistill", "query", "--repo", str(repo),
             "--theta", "0", "--k", "50", "cache pool"],
            env=_src_env(), stdout=write_end, stderr=write_end if close_stderr else subprocess.PIPE,
            encoding="utf-8", timeout=60,
        )
    finally:
        os.close(write_end)


def test_a_closed_stdout_and_stderr_exit_2(noisy_repo):
    assert _query_into_closed_pipe(noisy_repo, close_stderr=True).returncode == 2


def test_a_closed_stdout_leaves_one_error_line(noisy_repo):
    completed = _query_into_closed_pipe(noisy_repo, close_stderr=False)
    assert completed.returncode == 2
    (line,) = completed.stderr.splitlines()
    assert line.startswith("commitdistill: error:")
    assert "Exception ignored" not in completed.stderr
