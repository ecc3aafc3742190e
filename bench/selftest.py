"""Tests of the benchmark itself: each output check must reject a corrupted
output, and the generator must be byte-identical for a given seed.

    python3 bench/selftest.py

The name keeps pytest from collecting it with the program's own suite.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

WORK = run.WORK / "selftest"
FIXES, WINDOW = 5, 120


def _problems_mention(problems: list[str], text: str) -> bool:
    return any(text in problem for problem in problems)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(gen.generate(7, 600).stream, gen.generate(7, 600).stream)

    def test_other_seed_other_bytes_same_make_up(self):
        a, b = gen.generate(7, 600), gen.generate(8, 600)
        self.assertNotEqual(a.stream, b.stream)
        self.assertEqual(Counter(c.kind for c in a.commits), Counter(c.kind for c in b.commits))
        planted = lambda h: Counter(p.rule for c in h.commits for p in c.planted)  # noqa: E731
        self.assertEqual(planted(a), planted(b))
        self.assertEqual(len(planted(a)), len(gen.RULE_RATES))

    def test_density_scales_planted_sentences(self):
        history = gen.generate(7, 2000, density=0.25)
        planted = Counter(p.rule for c in history.commits for p in c.planted)
        self.assertEqual(planted, Counter({r: round(rate * 0.25 * 2000) for r, rate in gen.RULE_RATES.items()}))


class TokenizerTest(unittest.TestCase):
    def test_identifiers_keep_original_and_add_pieces(self):
        self.assertEqual(
            checks.tokenize("fix_redirect_loop redirectLoopHandler HTTP2Server"),
            Counter({
                "fix_redirect_loop": 1, "fix": 1, "redirect": 2, "loop": 2,
                "redirectloophandler": 1, "handler": 1, "http2server": 1, "http": 1, "server": 1,
            }),
        )

    def test_plain_words_are_not_split(self):
        self.assertEqual(checks.tokenize("Pool pool 42"), Counter({"pool": 2, "42": 1}))


class SpanCheckTest(unittest.TestCase):
    def test_missing_or_renamed_span_is_reported(self):
        full = {name: 0.1 for name in layers.TIME_METRICS}
        self.assertEqual(layers.span_problems([full, full]), [])
        renamed = dict(full)
        renamed["extraction.rule.fact-constraint-v2"] = renamed.pop("extraction.rule.fact-constraint")
        problems = layers.span_problems([full, renamed])
        self.assertTrue(_problems_mention(problems, "no span for extraction.rule.fact-constraint "))
        self.assertTrue(_problems_mention(problems, "fact-constraint-v2 is not a benchmark metric"))


class OutputCheckTest(unittest.TestCase):
    """Runs the CLI on a small generated repository, then corrupts its outputs."""

    @classmethod
    def setUpClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        cls.history = gen.generate(3, 400, fix_share=0.3, hot_files=8)
        program = run.Program(WORK)
        repo = gen.write_repo(cls.history, WORK / "repo", program.env)
        program.run("extract", "--repo", str(repo), "--max-commits", "400")
        cls.raw = (repo / ".knowledge" / "units.json").read_bytes()
        program.run(
            "eval", "timetravel", "--repo", str(repo), "--fixes", str(FIXES),
            "--window", str(WINDOW), "--out", str(WORK / "eval"),
        )
        cls.tt = json.loads((WORK / "eval" / "time_travel_results.json").read_text())
        log = ["git", "-C", str(repo), "log", "--format=%H"]
        cls.shas = subprocess.run(
            log, check=True, capture_output=True, text=True, env=program.env
        ).stdout.split()
        cls.program = program
        cls.repo = repo

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass

    def store_problems(self, payload) -> list[str]:
        return checks.check_store(checks.canonical_bytes(payload), self.history, self.shas)

    def test_program_outputs_pass(self):
        self.assertEqual(checks.check_store(self.raw, self.history, self.shas), [])
        self.assertEqual(checks.check_time_travel(self.tt, self.history, self.shas, FIXES, WINDOW), [])

    def test_unit_whose_id_does_not_match_content(self):
        payload = json.loads(self.raw)
        payload["units"][0]["content"] += " extra"
        self.assertTrue(_problems_mention(self.store_problems(payload), "id does not match"))

    def test_non_canonical_store(self):
        payload = json.loads(self.raw)
        raw = json.dumps(payload, indent=4).encode()
        problems = checks.check_store(raw, self.history, self.shas)
        self.assertTrue(_problems_mention(problems, "not the canonical serialization"))

    def test_unsorted_and_duplicate_units(self):
        payload = json.loads(self.raw)
        payload["units"].append(copy.deepcopy(payload["units"][0]))
        problems = self.store_problems(payload)
        self.assertTrue(_problems_mention(problems, "not sorted"))
        self.assertTrue(_problems_mention(problems, "duplicate"))

    def test_missing_planted_unit(self):
        payload = json.loads(self.raw)
        planted = next(p for c in self.history.commits for p in c.planted)
        core = checks.collapse(planted.core)
        payload["units"] = [
            u for u in payload["units"] if not checks.collapse(u["content"]).startswith(core)
        ]
        self.assertTrue(_problems_mention(self.store_problems(payload), "missing"))

    def test_unit_pointing_at_wrong_commit(self):
        payload = json.loads(self.raw)
        unit = next(u for u in payload["units"] if u["weight"] != checks.FALLBACK_PRIOR)
        root_sha = self.shas[-1][:8]
        unit["meta"]["commit"] = root_sha
        self.assertTrue(_problems_mention(self.store_problems(payload), "not in commit"))

    def test_swapped_ranking(self):
        units = json.loads(self.raw)["units"]
        brute = checks.BruteForceTfidf(units)
        query = next(
            " ".join(checks.words(u["content"])[1:4]) for u in units
            if len(brute.rank(" ".join(checks.words(u["content"])[1:4]), 10, theta=0.0)) >= 2
        )
        _, out, _ = self.program.run(
            "query", "--repo", str(self.repo), "--format", "json", "--k", "10", "--theta", "0", query
        )
        got, want = checks.parse_query_json(out), brute.rank(query, 10, theta=0.0)
        self.assertEqual(checks.check_ranking(got, want, "cli"), [])
        swapped = [got[1], got[0]] + got[2:]
        self.assertNotEqual(checks.check_ranking(swapped, want, "cli"), [])
        nudged = [(got[0][0], got[0][1] * (1 + 1e-6))] + got[1:]
        self.assertNotEqual(checks.check_ranking(nudged, want, "cli"), [])

    def test_time_travel_metrics_off_by_one_case(self):
        for method in ("grep", "bm25"):
            for key in ("hit_at_1", "hit_at_10", "mrr"):
                payload = copy.deepcopy(self.tt)
                value = payload["methods"][method][key]
                payload["methods"][method][key] = value + (1 if value < 1 else -1) / FIXES
                problems = checks.check_time_travel(payload, self.history, self.shas, FIXES, WINDOW)
                self.assertTrue(_problems_mention(problems, f"{method} {key}"), (method, key))

    def test_time_travel_properties(self):
        payload = copy.deepcopy(self.tt)
        m = payload["methods"]["cd_v1"]
        m["hit_at_1"], m["hit_at_3"] = 1.0, 0.0
        problems = checks.check_time_travel(payload, self.history, self.shas, FIXES, WINDOW)
        self.assertTrue(_problems_mention(problems, "cd_v1 hit@k"))
        payload = copy.deepcopy(self.tt)
        payload["methods"]["cd_v2"]["n_fixes"] = FIXES - 1
        problems = checks.check_time_travel(payload, self.history, self.shas, FIXES, WINDOW)
        self.assertTrue(_problems_mention(problems, "cd_v2 n_fixes"))


if __name__ == "__main__":
    unittest.main()
