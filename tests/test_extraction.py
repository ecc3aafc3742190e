from __future__ import annotations

import dataclasses
import hashlib
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from commitdistill import extraction as ex
from commitdistill import gitio, store
from commitdistill.gitio import Commit

from conftest import RepoBuilder, build_raw_repo
from oracles import (
    RULES_ORACLE,
    extract_commit_units_oracle,
    extract_commits_oracle,
    extract_units_oracle,
    list_commits_oracle,
    normalize_oracle,
)

META = {"commit": "0123abcd", "author": "Dev One", "date": "2023-01-01T00:00:00+00:00", "source": "commit"}


def _commit(subject: str, body: str = "") -> Commit:
    return Commit(
        sha="a" * 40,
        author="Dev One",
        author_date="2023-01-01T00:00:00+00:00",
        author_epoch=1672531200,
        subject=subject,
        body=body,
    )


class TestNormalize:
    def test_strips_code_fences(self):
        assert ex.normalize("Note: use X.\n```\ncode\n```") == "Note: use X."

    def test_identity_on_plain_text(self):
        assert ex.normalize("plain text") == "plain text"

    def test_strips_tags_and_collapses_spaces(self):
        assert ex.normalize("<b>must</b> be   set") == "must be set"

    def test_inline_code_and_stray_backticks_removed(self):
        out = ex.normalize("wrap `x.y()` and a stray ` tick")
        assert "`" not in out

    def test_line_structure_survives(self):
        assert ex.normalize("subject line\n\nbody   line") == "subject line\nbody line"

    def test_open_fence_runs_to_the_end(self):
        assert ex.normalize("keep ```a``` this ```open\nfence") == "keep this"


_markup = st.lists(
    st.sampled_from(
        ["```", "``", "`", "<b>", "</i>", "<", ">", "x", "word", " ", "\t", "\n", "\r\n", "\f", "\v", "\r",
         "  ", " \t "]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000)
@given(_markup)
@example("````")
@example("a ``` b ```` c ```")
@example("x ```\n")
def test_normalize_matches_two_fence_passes(text: str):
    assert ex.normalize(text) == normalize_oracle(text)


class TestRuleTable:
    def test_nine_rules_with_priors_in_band(self):
        assert len(ex.DEFAULT_RULES) == 9
        for rule in ex.DEFAULT_RULES:
            assert 0.65 <= rule.prior <= 0.95
            assert rule.keyword.flags & re.IGNORECASE
            assert rule.span in ex._SPAN_KINDS
            assert rule.unit_type in store.UNIT_TYPES

    def test_three_rules_per_type(self):
        by_type = {}
        for rule in ex.DEFAULT_RULES:
            by_type.setdefault(rule.unit_type, []).append(rule.name)
        assert {k: len(v) for k, v in by_type.items()} == {"fact": 3, "skill": 3, "pattern": 3}

    def test_fallback_prior_sits_below_the_band(self):
        assert ex.FALLBACK_PRIOR == 0.40
        assert ex.FALLBACK_PRIOR < min(rule.prior for rule in ex.DEFAULT_RULES)

    def test_rules_are_the_written_out_table(self):
        got = [(rule.name, rule.unit_type, rule.prior, rule.triggers) for rule in ex.DEFAULT_RULES]
        assert got == [row[:4] for row in RULES_ORACLE]


# Rule keywords, their look-alikes and the text around them: colons, "fix by",
# decimals, fences, subject-line starts and keyword phrases broken by a newline.
_RULE_FRAGMENTS = (
    "must", "requires", "should", "cannot", "always", "never", "note", "Note:", "Important:", "warning",
    "is equivalent to", "are the same as", "is an alias for", "same", "alias", "fix by", "fixed by:",
    "fixes", "Fix", "bug", "solution:", "workaround:", "recommended:", "best practice:", "to avoid",
    "to prevent", "to enable", "to\ndisable", "occurs when", "happens\nwhen", "ValueError",
    "TimeoutException", "BuildFailure", "error", "deadlock", "race condition", "race\ncondition",
    "infinite loop", "infinite\nloop", "regression in", "broke since", "breaks after", "broken\nwhen",
    "breaker", "v1.2", "```code```", "```", "`x`", ": ", ":", ". ", ".", "! ", "? ", "\n", " ",
    "the parser", "pin the resolver to the cache", "a", "#123", "caused by", "today",
    # re.IGNORECASE folds these onto ASCII letters; str.lower does not.
    "\u0130", "\u0131", "\u017f", "\u212a", "\u017fhould", "\u0130mportant:", "ıs equivalent to",
    "bro\u212ae since",
)
_rule_text = st.lists(st.sampled_from(_RULE_FRAGMENTS), max_size=24).map(" ".join)


@pytest.mark.parametrize("rule", ex.DEFAULT_RULES, ids=lambda rule: rule.name)
@settings(max_examples=300, deadline=None)
@given(text=_rule_text)
@example(text="Tidy up.\nthe scheduler breaks after a reload of the cache")
@example(text="You \u017fhould reset the pool before reuse in this path.")
def test_triggers_never_change_what_matches(rule, text: str):
    always_open = dataclasses.replace(rule, triggers=("",))
    assert ex.extract_units(text, META, rules=(rule,)) == ex.extract_units(text, META, rules=(always_open,))


# Messages built from the rule fragments with the separators that decide where
# a span starts and ends: sentence ends, colons, line breaks, a subject line.
_message = st.lists(
    st.tuples(st.sampled_from(_RULE_FRAGMENTS), st.sampled_from([" ", " ", "\n", ". ", ": ", "", ".\n", "\xa0"])),
    max_size=30,
).map(lambda pairs: "".join(fragment + separator for fragment, separator in pairs))


@settings(max_examples=1000, deadline=None)
@given(text=_message)
@example(text="We saw a ValueError in the infinite\nloop of the scheduler today")
@example(text="Tidy up the parser.\nfixes a regression in the parser: see the notes")
@example(text="Tidy up.\xa0\nfix the regression in the parser")
@example(text="Fix: pin the resolver. Workaround: raise the pool size. caused by the cache.")
@example(text="AError XValueError FooErrorBar the_Error _LoadError race\ncondition in v1.2")
@example(text="Note :\n. note: x. Warning:\nthe cache must stay warm")
def test_sentence_first_spans_match_the_regex_engine(text: str):
    assert ex.extract_units(text, META) == extract_units_oracle(text, META)


class TestUnitId:
    def test_normalization_collapses_case_and_whitespace(self):
        assert ex.unit_id("fact", "X") == ex.unit_id("fact", "  x  ")

    def test_type_prefix_separates(self):
        assert ex.unit_id("fact", "X") != ex.unit_id("skill", "X")

    def test_known_digest(self):
        content = "when trying to link via intersphinx, a label must be used"
        expected = hashlib.sha1(f"fact::{content}".encode()).hexdigest()[:12]
        assert expected == "371f820cff69"
        assert ex.unit_id("fact", content) == expected


class TestIsStop:
    def test_boilerplate_phrase(self):
        assert ex.is_stop("see above") is True

    def test_content_words_pass(self):
        assert ex.is_stop("must pin urllib3 below 2.0") is False

    def test_all_stopword_content(self):
        for token in ("this", "should", "be", "it"):
            assert token in ex.STOP_WORDS
        assert ex.is_stop("this should be it") is True


class TestResolutionTail:
    def test_cue_appends(self):
        merged = ex.capture_resolution_tail(
            "Crash occurs when the pool is exhausted.", "Workaround: raise the pool size."
        )
        assert merged == "Crash occurs when the pool is exhausted. Workaround: raise the pool size."

    def test_no_cue_leaves_sentence(self):
        kept = ex.capture_resolution_tail(
            "Crash occurs when the pool is exhausted.", "Also updated docs."
        )
        assert kept == "Crash occurs when the pool is exhausted."

    def test_long_pair_truncates_at_word_boundary(self):
        first = "The request pipeline stalls badly whenever the keepalive window elapses mid flush."
        second = "Fixed by extending the keepalive budget and draining the pipeline before rotation begins."
        assert len(first) + len(second) + 1 > 140
        merged = ex.capture_resolution_tail(first, second)
        assert len(merged) <= 140
        assert not merged.endswith(" ")
        assert (first + " " + second).startswith(merged)


class TestSubstantivePattern:
    def test_named_failure_identifier_is_whitelisted(self):
        assert ex.is_substantive_pattern("NullPointerException") is True

    def test_issue_reference_subjects_are_rejected(self):
        assert ex.is_substantive_pattern("remove obsolete (#4783") is False
        assert ex.is_substantive_pattern("fix issue #1842") is False

    def test_failure_term_plus_content_words(self):
        assert ex.is_substantive_pattern("deadlock when two clients reconnect") is True

    def test_issue_domination(self):
        assert ex.is_substantive_pattern("gh-12 #34 #56 cleanup") is False


class TestExtractUnits:
    def test_intersphinx_constraint(self):
        text = "When trying to link via intersphinx, a label must be used."
        units = ex.extract_units(text, META)
        assert len(units) == 1
        assert units[0].unit_type == "fact"
        assert units[0].content == text
        assert units[0].meta == META

    def test_empty_input(self):
        assert ex.extract_units("", META) == []

    def test_issue_only_pattern_candidate_rejected(self):
        assert ex.extract_units("fix issue #1842", META) == []

    def test_candidate_fires_before_rejection(self):
        # the kernel-style branch matches, so the rejection is the filter's doing:
        # typed as a fact, which skips the substantive filter, the span is kept
        rule = next(r for r in ex.DEFAULT_RULES if r.name == "pattern-regression")
        as_fact = dataclasses.replace(rule, unit_type="fact")
        units = ex.extract_units("fix issue #1842", META, rules=(as_fact,))
        assert [unit.content for unit in units] == ["fix issue #1842"]

    def test_resolution_tail_joined_for_patterns(self):
        units = ex.extract_units(
            "Crash occurs when the pool is exhausted. Workaround: raise the pool size.",
            META,
        )
        contents = {u.unit_type: u.content for u in units}
        assert contents["pattern"] == (
            "Crash occurs when the pool is exhausted. Workaround: raise the pool size."
        )
        assert contents["skill"] == "raise the pool size."

    def test_fact_and_skill_share_content_with_distinct_ids(self):
        units = ex.extract_units(
            "Note: to avoid the legacy resolver use the pinned index.", META
        )
        assert {u.unit_type for u in units} == {"fact", "skill"}
        fact, skill = sorted(units, key=lambda u: u.unit_type)
        assert fact.content == skill.content
        assert fact.id != skill.id

    def test_rule_order_resolves_same_type_duplicates(self):
        units = ex.extract_units(
            "Note: the session cookie must always be signed before deployment.", META
        )
        assert len(units) == 1
        # fact-constraint is declared first, so its prior wins the dedup
        assert units[0].weight == 0.75

    def test_length_filters(self):
        assert ex.extract_units("Note: ok.", META) == []
        long_span = "must " + "x" * 400
        assert ex.extract_units(long_span, META) == []

    def test_stop_candidates_dropped(self):
        assert ex.extract_units("Workaround: see above.", META) == []

    def test_code_and_markup_never_reach_contents(self):
        units = ex.extract_units(
            "Note: the `session.verify` flag must stay <b>enabled</b> for pinned hosts.",
            META,
        )
        assert units
        for unit in units:
            assert "`" not in unit.content
            assert "<" not in unit.content

    @pytest.mark.parametrize(
        "text, content",
        [
            # a keyword running over a line break carries the span onto the next line
            ("We saw a ValueError in the infinite\nloop of the scheduler today",
             "We saw a ValueError in the infinite\nloop of the scheduler today"),
            # after a sentence end, the regression clause wins over the "fixes" line
            ("Tidy up the parser.\nfixes a regression in the parser: see the notes",
             "fixes a regression in the parser"),
            ("Tidy up the parser\nfixes a regression in the parser: see the notes",
             "fixes a regression in the parser: see the notes"),
        ],
    )
    def test_span_edges_across_line_breaks(self, text, content):
        assert [unit.content for unit in ex.extract_units(text, META)] == [content]

    def test_rules_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ex.extract_units("text", META, rules=())


def _fallback(commit: Commit) -> store.KnowledgeUnit | None:
    """The commit's fallback unit, as ``commit_units`` gives it to a rule-silent commit."""
    [(units, fallback)] = ex.commit_units([commit], fallback_enabled=True)
    assert fallback and len(units) <= 1
    return units[0] if units else None


class TestSubjectFallback:
    def test_basic_fallback(self):
        unit = _fallback(_commit("redirect loop on 302 chain"))
        assert unit is not None
        assert unit.unit_type == "pattern"
        assert unit.weight == 0.40
        assert unit.content == "redirect loop on 302 chain"

    def test_body_lead_sentence_joins(self):
        unit = _fallback(
            _commit("redirect loop on 302 chain", "Seen when chasing a 302 ladder. More text.")
        )
        assert unit is not None
        assert unit.content == "redirect loop on 302 chain. Seen when chasing a 302 ladder."

    def test_merge_release_bot_subjects_refused(self):
        assert _fallback(_commit("Merge branch 'x'")) is None
        assert _fallback(_commit("v2.31.0")) is None
        assert _fallback(_commit("Bump urllib3 from 1 to 2")) is None

    def test_short_cleaned_subject_refused(self):
        assert _fallback(_commit("fix: tidy")) is None

    def test_cap_at_280_on_word_boundary(self):
        subject = "long subject " + "alpha beta gamma " * 10
        body = "And the first sentence keeps going " + "delta epsilon " * 20 + "."
        unit = _fallback(_commit(subject.strip(), body))
        assert unit is not None
        assert len(unit.content) <= 280
        assert not unit.content.endswith(" ")

    def test_not_emitted_when_rules_fire(self):
        commit = _commit("redirect loop on 302 chain", "TimeoutError appears during cold start.")
        [(units, fallback)] = ex.commit_units([commit], fallback_enabled=True)
        assert [u.weight for u in units] == [0.90] and not fallback


class TestExtractRepository:
    def test_empty_repository(self, tmp_path):
        from conftest import run_git

        repo = tmp_path / "empty"
        repo.mkdir()
        run_git(repo, "init", "-q", "-b", "main")
        assert ex.extract_repository(repo, max_count=10) == []

    def test_fixture_repo_matches_hand_oracle(self, repo_builder: RepoBuilder):
        repo_builder.commit("plain refactor")
        repo_builder.commit("Document constraint", "The cache must be warmed before requests land.")
        repo_builder.commit("wip")
        repo_builder.commit("Diagnose restarts", "OOMFailure happens when the heap cap is reached.")
        repo_builder.commit("chore: assets")
        units = ex.extract_repository(repo_builder.path, max_count=50, fallback_enabled=False)
        assert sorted((u.unit_type, u.content) for u in units) == [
            ("fact", "The cache must be warmed before requests land."),
            ("pattern", "OOMFailure happens when the heap cap is reached."),
        ]

    def test_fallback_units_fill_silent_commits_only(self, repo_builder: RepoBuilder):
        repo_builder.commit("rework resolver bootstrapping")
        repo_builder.commit("Document constraint", "The cache must be warmed before requests land.")
        with_fallback = ex.extract_repository(repo_builder.path, max_count=50, fallback_enabled=True)
        without = ex.extract_repository(repo_builder.path, max_count=50, fallback_enabled=False)
        extra = [u for u in with_fallback if u.id not in {x.id for x in without}]
        assert [(u.content, u.weight) for u in extra] == [("rework resolver bootstrapping", 0.40)]

    def test_determinism(self, repo_builder: RepoBuilder):
        repo_builder.commit("Document constraint", "The cache must be warmed before requests land.")
        first = ex.extract_repository(repo_builder.path, max_count=10)
        second = ex.extract_repository(repo_builder.path, max_count=10)
        assert first == second
        assert [u.id for u in first] == sorted(u.id for u in first)


_prose = st.text(alphabet=string.ascii_letters + string.digits + " .,:#!?\n'", max_size=300)


@given(_prose)
def test_extraction_is_deterministic_and_dedupes(text: str):
    first = ex.extract_units(text, META)
    second = ex.extract_units(text, META)
    assert first == second
    ids = [u.id for u in first]
    assert len(ids) == len(set(ids))
    for unit in first:
        assert ex.MIN_CONTENT_LEN <= len(unit.content) <= ex.MAX_CONTENT_LEN
        assert unit.id == ex.unit_id(unit.unit_type, unit.content)


@given(st.text(alphabet=string.ascii_letters + " `<>/b.\n", max_size=200))
def test_no_markup_survives_extraction(text: str):
    for unit in ex.extract_units(text, META):
        assert "`" not in unit.content
        assert not re.search(r"</?[A-Za-z][^<>\n]*>", unit.content)


# Subjects and bodies for the batched extraction: rule fragments, fallback
# subjects, what decides whether the fallback's body can be cut from the
# normalized message (backticks, tags, line breaks, blank subjects), CR and
# CRLF, and the characters that re.IGNORECASE folds onto ASCII.
_COMMIT_FRAGMENTS = _RULE_FRAGMENTS + (
    "redirect loop on 302 chain", "fix: ", "[docs] ", "(#12)", "Merge branch 'x'", "v2.1.0",
    "Bump a from 1 to 2", "`code`", "```", "<b>", "</b>", "<", "\r", "\r\n", "\n", "\n\n", "  ", "\t",
    "\xa0", "\u2028", "\u0130 \u0131 \u017f \u212a", "Seen at start. More.", "",
)
_commit_text = st.lists(st.sampled_from(_COMMIT_FRAGMENTS), max_size=8).map("".join)
_commits = st.lists(
    st.tuples(st.text(alphabet="0123456789abcdef", min_size=40, max_size=40), _commit_text, _commit_text),
    max_size=12,
).map(lambda rows: [dataclasses.replace(_commit(subject, body), sha=sha) for sha, subject, body in rows])


@settings(max_examples=300, deadline=None)
@given(commits=_commits, fallback_enabled=st.booleans())
@example(commits=[_commit("   ", "Seen at start.")], fallback_enabled=True)
@example(commits=[_commit("redirect `x` loop", "Seen at start.")], fallback_enabled=True)
@example(commits=[_commit("redirect\nloop on 302", "Seen at start.")], fallback_enabled=True)
@example(commits=[_commit("redirect loop <", "b> Seen at start.")], fallback_enabled=True)
@example(commits=[_commit("<b>", "Seen at start.")], fallback_enabled=True)
@example(commits=[_commit("pool reuse", "You ſhould reset the pool before reuse.")], fallback_enabled=False)
def test_batched_extraction_matches_the_per_commit_loop(commits, fallback_enabled):
    assert ex.extract_commits(commits, fallback_enabled) == extract_commits_oracle(commits, fallback_enabled)


@settings(max_examples=300, deadline=None)
@given(commits=_commits)
@example(commits=[_commit("   ", "Seen at start.")])
@example(commits=[_commit("", "")])
@example(commits=[_commit("Merge branch 'x'", "Seen."), _commit("v2.1.0"), _commit("Bump a from 1 to 2")])
@example(commits=[_commit("redirect `x` loop", "Seen at start."), _commit("redirect loop <", "b> Seen.")])
@example(commits=[_commit("redirect loop on 302 chain", "You must reset the pool first.")])
def test_commit_units_mark_the_commits_the_rules_miss(commits):
    """Per commit, the units it yields on its own, and whether the fallback
    stood in for its rules: with the fallback on, whenever the rules find
    nothing, even where no fallback unit is built."""
    for fallback_enabled in (False, True):
        want = [
            (
                extract_commit_units_oracle(commit, fallback_enabled),
                fallback_enabled and not extract_commit_units_oracle(commit, fallback_enabled=False),
            )
            for commit in commits
        ]
        assert ex.commit_units(commits, fallback_enabled) == want


@settings(max_examples=40, deadline=None)
@given(
    messages=st.lists(st.tuples(_commit_text, _commit_text), min_size=1, max_size=8),
    fallback_enabled=st.booleans(),
    batch_size=st.sampled_from([1, 2, 7]),
    read_size=st.sampled_from([1, 97, 1 << 16]),
)
@example(messages=[("<b>", "Seen at start."), ("redirect `x` loop", "You \u017fhould reset the pool.")] * 4,
         fallback_enabled=True, batch_size=7, read_size=97)
def test_extraction_in_any_batch_size_matches_the_per_commit_loop(messages, fallback_enabled, batch_size, read_size):
    """Over a list and over a streamed log, batches of any size cut anywhere
    give the units of the per-commit loop."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        repo = build_raw_repo(Path(tmp) / "repo", [f"{s}\n\n{b}".encode() for s, b in messages])
        commits = list_commits_oracle(repo, 10**6)
        want = extract_commits_oracle(commits, fallback_enabled)
        patch.setattr(ex, "_BATCH_SIZE", batch_size)
        patch.setattr(gitio, "_READ_SIZE", read_size)
        assert ex.extract_commits(commits, fallback_enabled) == want
        with gitio.CommitLog(repo) as log:
            assert ex.extract_commits(log, fallback_enabled) == want


@given(subject=_commit_text, body=_commit_text)
@example(subject="redirect loop \r", body=" \n\t\nSeen at start.")
@example(subject="loop <", body="b> tail")
@example(subject="<b>", body="requires")
def test_a_body_cut_from_the_normalized_message_is_its_normalized_body(subject, body):
    commit = _commit(subject, body)
    assert ex._normalized_body(commit, ex.normalize(commit.message)) == ex.normalize(body)


@pytest.mark.parametrize("read_size", [1 << 16, 97, 1])
def test_extraction_of_a_streamed_log_matches_the_per_commit_loop(tmp_path, monkeypatch, read_size):
    messages = [
        b"Fix cache warmup crash\r\n\r\nKeyError occurs when the warmup races the loader.\r\n",
        "Note: the \u017fession must be closed. \u0130mportant: retry\r".encode(),
        b"redirect loop on 302 chain\n\nSeen when chasing a 302 ladder. More \xff text.",
        b"rework resolver `bootstrap` step\n\nThe resolver should pin its cache.",
        "pool reuse\n\nYou ſhould reset the pool before reuse.".encode(),
        b"Merge branch 'side'",
    ] * 4
    repo = build_raw_repo(tmp_path / "repo", messages)
    want = extract_commits_oracle(list_commits_oracle(repo, 10**6))
    monkeypatch.setattr(gitio, "_READ_SIZE", read_size)
    monkeypatch.setattr(ex, "_BATCH_SIZE", 2)
    # Each read with its record count, and each extracted batch, in order.
    events: list[tuple[str, int]] = []
    real_reads, real_commit_units = gitio._GitRecords.reads, ex.commit_units

    def reads(self):
        for records in real_reads(self):
            events.append(("read", len(records)))
            yield records

    def commit_units(commits, fallback_enabled):
        events.append(("batch", len(commits)))
        return real_commit_units(commits, fallback_enabled)

    monkeypatch.setattr(gitio._GitRecords, "reads", reads)
    monkeypatch.setattr(ex, "commit_units", commit_units)
    with gitio.CommitLog(repo) as log:
        assert ex.extract_commits(log) == want
        assert log.count == len(messages)
    read_counts = [n for kind, n in events if kind == "read"]
    assert sum(read_counts) == len(messages)
    assert len(read_counts) > 1 or read_size > 1000
    # The first batch is extracted before the last read, which completes the
    # last record once git has exited.
    last_read = max(i for i, (kind, _) in enumerate(events) if kind == "read")
    assert events.index(("batch", 2)) < last_read
