from __future__ import annotations

import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from commitdistill import gitio
from commitdistill.gitio import CommitParseError, GitError

from conftest import RepoBuilder, build_raw_repo, recording_popen, run_git
from oracles import (
    as_datetime,
    author_datetime,
    changed_files_oracle,
    clean_subject_oracle,
    commits_with_files_oracle,
    list_commits_oracle,
)


def test_single_commit_matches_rev_parse_head(repo_builder: RepoBuilder):
    repo_builder.commit("first change")
    sha = repo_builder.commit("second change")
    commits = gitio.list_commits(repo_builder.path, max_count=1)
    assert len(commits) == 1
    assert commits[0].sha == sha
    assert commits[0].sha == run_git(repo_builder.path, "rev-parse", "HEAD").strip()


def test_commits_come_newest_first_and_respect_max_count(repo_builder: RepoBuilder):
    shas = [repo_builder.commit(f"change {i}") for i in range(5)]
    commits = gitio.list_commits(repo_builder.path, max_count=3)
    assert [c.sha for c in commits] == list(reversed(shas))[:3]
    assert all(len(c.sha) == 40 and c.short_sha == c.sha[:8] for c in commits)


def test_listing_is_deterministic(repo_builder: RepoBuilder):
    repo_builder.commit("one", body="line a\nline b")
    first = gitio.list_commits(repo_builder.path, max_count=10)
    second = gitio.list_commits(repo_builder.path, max_count=10)
    assert first == second


def test_awkward_body_round_trips(repo_builder: RepoBuilder):
    body = 'line one.\nline "two"\twith\ttabs\n\nand a gap'
    repo_builder.commit("awkward body", body=body)
    commit = gitio.list_commits(repo_builder.path, max_count=1)[0]
    assert commit.subject == "awkward body"
    assert commit.body == body


def test_unicode_round_trips(repo_builder: RepoBuilder):
    repo_builder.commit("naïve café subject", body="ümlauts — and a 中文 body.")
    commit = gitio.list_commits(repo_builder.path, max_count=1)[0]
    assert commit.subject == "naïve café subject"
    assert commit.body == "ümlauts — and a 中文 body."


@pytest.mark.parametrize("separator", ["\x1f", "\x1e"])
def test_separator_bytes_in_body_raise_parse_error(repo_builder: RepoBuilder, tmp_path, separator: str):
    sha = repo_builder.commit("poisoned", body=f"before{separator}after")
    with pytest.raises(CommitParseError) as excinfo:
        gitio.list_commits(repo_builder.path, max_count=10)
    assert sha in str(excinfo.value)
    # the oldest commit's message ends in the byte, with no newline after it
    oldest = RepoBuilder(tmp_path / "oldest")
    (tmp_path / "message").write_text(f"poisoned\n\nbefore{separator}", encoding="utf-8")
    run_git(oldest.path, "commit", "-q", "--allow-empty", "--cleanup=verbatim", "-F", str(tmp_path / "message"))
    sha = run_git(oldest.path, "rev-parse", "HEAD").strip()
    assert run_git(oldest.path, "cat-file", "commit", sha).endswith(f"before{separator}")
    with pytest.raises(CommitParseError, match=sha):
        gitio.list_commits(oldest.path)


def _outcome(read):
    """What ``read()`` returns, or the type and text of the GitError it raises."""
    try:
        return read()
    except GitError as exc:
        return type(exc), str(exc)


def _listing(repo):
    """The commits of a ChangedFiles listing, every file set read."""
    with gitio.ChangedFiles(repo) as files:
        files.through(len(files.commits) - 1)
    return files.commits


def test_cr_and_crlf_read_as_lf_across_one_byte_reads(tmp_path, monkeypatch):
    repo = build_raw_repo(tmp_path / "repo", [
        b"root",
        "crlf na\u00efve subject\r\n\r\nline one\r\nline two\rthree\r\n".encode(),
        "tip \u4e2d\r\n".encode(),
    ])
    want = list_commits_oracle(repo)
    assert [(c.subject, c.body) for c in want] == [
        ("tip \u4e2d", ""), ("crlf na\u00efve subject", "line one\nline two\nthree"), ("root", "")
    ]
    monkeypatch.setattr(gitio, "_READ_SIZE", 1)  # splits each CRLF pair and each multi-byte character
    assert gitio.list_commits(repo) == want
    listed = _listing(repo)
    assert all(commit.changed_files is not None for commit in listed)
    for commit in listed:
        commit.changed_files = None
    assert listed == want


# Message pieces that stress the reader: CR and CRLF, characters that
# re.IGNORECASE folds, multi-byte and invalid UTF-8 (cut sequences included),
# and the separator bytes.
_RAW_PIECES = [
    b"fix cache", b"subject", b" ", b"\t", b"\n", b"\n\n", b"\r", b"\r\n", b"\r\n\r\n",
    "\u0130 \u0131 \u017f \u212a".encode(), "caf\u00e9 \u4e2d".encode(), "\U0001f600".encode(),
    b"\xff", b"\xc3", b"\xe4\xb8", b"\x1e", b"\x1f", b"`x`", b"<b>",
]
_raw_message = st.lists(st.sampled_from(_RAW_PIECES), max_size=10).map(b"".join)


@settings(max_examples=40, deadline=None)
@given(messages=st.lists(_raw_message, min_size=1, max_size=6), read_size=st.sampled_from([1, 2, 3, 7, 64, 1 << 16]))
def test_streamed_listing_matches_the_whole_string_reader(messages, read_size):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        repo = build_raw_repo(Path(tmp) / "repo", messages)
        want = _outcome(lambda: list_commits_oracle(repo, 10**6))
        patch.setattr(gitio, "_READ_SIZE", read_size)
        assert _outcome(lambda: gitio.list_commits(repo, 10**6)) == want
        listed = _outcome(lambda: _listing(repo))
        if isinstance(listed, list):
            for commit in listed:
                commit.changed_files = None
        assert listed == want


def test_a_failing_git_is_one_line(repo_builder: RepoBuilder):
    root = repo_builder.commit("root")
    repo_builder.commit("tip")
    (repo_builder.path / ".git" / "objects" / root[:2] / root[2:]).unlink()
    for read in (lambda: gitio.list_commits(repo_builder.path), lambda: _listing(repo_builder.path)):
        with pytest.raises(GitError) as excinfo:
            read()
        message = str(excinfo.value)
        assert root in message and "; " in message and "\n" not in message


def test_file_names_split_only_at_line_feeds(repo_builder: RepoBuilder):
    run_git(repo_builder.path, "config", "core.quotePath", "false")
    names = {"a\u2028b.txt", "c\x85d.txt", "e\u2029f.txt"}
    sha = repo_builder.commit("odd names", files={name: "x\n" for name in names})
    assert gitio.changed_files_map(repo_builder.path)[sha] == names == changed_files_oracle(repo_builder.path, sha)


def test_empty_repository_lists_nothing(tmp_path):
    repo = tmp_path / "empty"
    repo.mkdir()
    run_git(repo, "init", "-q", "-b", "main")
    assert gitio.list_commits(repo, max_count=10) == []


def test_missing_and_non_repo_paths_raise(tmp_path):
    with pytest.raises(GitError):
        gitio.list_commits(tmp_path / "nope", max_count=1)
    plain = tmp_path / "plain"
    plain.mkdir()
    with pytest.raises(GitError):
        gitio.list_commits(plain, max_count=1)


def test_changed_files_single_and_multi(repo_builder: RepoBuilder):
    root = repo_builder.commit("touch readme", files={"README.md": "hello\n"})
    tri = repo_builder.commit(
        "touch three",
        files={"a.py": "a\n", "b/b.py": "b\n", "c.txt": "c\n"},
    )
    expected = {
        line
        for line in run_git(
            repo_builder.path, "show", "--name-only", "--pretty=format:", tri
        ).splitlines()
        if line
    }
    files = gitio.changed_files_map(repo_builder.path)
    assert files[root] == changed_files_oracle(repo_builder.path, root) == {"README.md"}
    assert files[tri] == changed_files_oracle(repo_builder.path, tri) == expected == {"a.py", "b/b.py", "c.txt"}


def test_merge_with_no_first_parent_delta_is_empty(repo_builder: RepoBuilder):
    repo_builder.commit("base", files={"base.txt": "base\n"})
    run_git(repo_builder.path, "checkout", "-q", "-b", "side")
    repo_builder.commit("side work", files={"side.txt": "side\n"})
    run_git(repo_builder.path, "checkout", "-q", "main")
    run_git(
        repo_builder.path,
        "merge",
        "-q",
        "-s",
        "ours",
        "--no-ff",
        "-m",
        "merge side without taking it",
        "side",
        env={
            "GIT_AUTHOR_DATE": "2023-06-01T00:00:00+00:00",
            "GIT_COMMITTER_DATE": "2023-06-01T00:00:00+00:00",
        },
    )
    merge_sha = run_git(repo_builder.path, "rev-parse", "HEAD").strip()
    files = gitio.changed_files_map(repo_builder.path)
    assert files[merge_sha] == changed_files_oracle(repo_builder.path, merge_sha) == set()


def _history_with_merge_and_root(repo_builder: RepoBuilder) -> None:
    repo_builder.commit("root", files={"a.py": "1\n"}, date="2022-12-31T10:00:00+05:00")
    repo_builder.commit("two", body="line one.\n\nline three", files={"a.py": "2\n", "b.py": "1\n"},
                        date="2022-12-31T01:00:00-08:00")
    run_git(repo_builder.path, "checkout", "-q", "-b", "side")
    repo_builder.commit("side work", files={"side.txt": "side\n"})
    run_git(repo_builder.path, "checkout", "-q", "main")
    repo_builder.commit("empty", files={})
    run_git(repo_builder.path, "merge", "-q", "--no-ff", "-m", "merge side", "side")
    repo_builder.commit("after merge", files={"b.py": "2\n", "c.py": "1\n"})


def test_changed_files_map_agrees_with_per_commit_calls(repo_builder: RepoBuilder, monkeypatch):
    _history_with_merge_and_root(repo_builder)
    for subject, files in [("one", {"x.py": "1\n"}), ("two", {"x.py": "2\n", "y.py": "1\n"}),
                           ("three", {"z.md": "1\n"})]:
        repo_builder.commit(subject, files=files)
    started = recording_popen(monkeypatch)
    bulk = gitio.changed_files_map(repo_builder.path)
    assert sum("--name-only" in proc.args for proc in started) == 1
    assert all(proc.returncode is not None for proc in started)
    want = commits_with_files_oracle(repo_builder.path)
    assert len(want) == 9
    assert bulk == {commit.sha: commit.changed_files for commit in want}


def test_one_pass_read_matches_listing_and_per_commit_diffs(repo_builder: RepoBuilder):
    _history_with_merge_and_root(repo_builder)
    plain = gitio.list_commits(repo_builder.path)
    with gitio.ChangedFiles(repo_builder.path) as files:
        files.through(len(files.commits) - 1)
    assert [c.sha for c in files.commits] == [c.sha for c in plain]
    for listed, read in zip(plain, files.commits):
        assert listed.changed_files is None
        assert read.changed_files == changed_files_oracle(repo_builder.path, read.sha)
        assert read.author_epoch == int(author_datetime(read).timestamp())
        read.changed_files = None
        assert read == listed
    assert gitio.changed_files_map(repo_builder.path) == {
        c.sha: c.changed_files for c in commits_with_files_oracle(repo_builder.path)
    }


def test_lazy_file_lists_match_the_one_pass_read(repo_builder: RepoBuilder):
    _history_with_merge_and_root(repo_builder)
    want = commits_with_files_oracle(repo_builder.path)
    one_pass = gitio.changed_files_map(repo_builder.path)
    assert one_pass == {c.sha: c.changed_files for c in want}
    assert want[1].subject == "merge side" and want[-1].subject == "root"
    assert gitio.ChangedFiles(repo_builder.path).close() is None  # closing unread is fine
    for reach in range(len(want)):
        with gitio.ChangedFiles(repo_builder.path) as files:
            assert [c.sha for c in files.commits] == [c.sha for c in want]
            files.through(reach)
        assert all(commit.changed_files is not None for commit in files.commits[: reach + 1])
        for got, expected in zip(files.commits, want):
            assert got.author_epoch == int(author_datetime(got).timestamp())
            if got.changed_files is not None:  # every commit read, not only those asked for
                assert got == expected
                assert got.changed_files == one_pass[got.sha]


def test_lazy_file_lists_refuse_another_history(repo_builder: RepoBuilder):
    _history_with_merge_and_root(repo_builder)
    with gitio.ChangedFiles(repo_builder.path) as files:
        first, second = files.commits[1:3]
        files.commits[1:3] = [second, first]
        with pytest.raises(GitError, match=f"listed {first.sha} at position 1, where the first read listed {second.sha}"):
            files.through(2)
    with gitio.ChangedFiles(repo_builder.path) as files:
        files.commits.append(gitio.Commit("0" * 40, "x", "2023-01-01T00:00:00+00:00", 0, "x", ""))
        listed = len(files.commits)
        with pytest.raises(GitError, match=f"listed {listed - 1} commits, where the first read listed {listed}"):
            files.through(listed - 1)


def test_lazy_file_lists_of_empty_and_missing_repositories(tmp_path):
    empty = tmp_path / "empty"
    run_git(tmp_path, "init", "-q", str(empty))
    with gitio.ChangedFiles(empty) as files:
        assert files.commits == []
    with pytest.raises(GitError, match="repository not found"):
        gitio.ChangedFiles(tmp_path / "nope")


def test_utc_z_suffix_reads_as_utc():
    assert as_datetime("2023-01-02T10:00:00Z") == as_datetime("2023-01-02T10:00:00+00:00")


def test_head_sha(repo_builder: RepoBuilder):
    sha = repo_builder.commit("tip")
    assert gitio.head_sha(repo_builder.path) == sha


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("fix: redirect loop (#1234)", "redirect loop"),
        ("Improve cookie handling", "Improve cookie handling"),
        ("remove obsolete (#4783", "remove obsolete"),
        ("[docs] feat: add changelog", "add changelog"),
        ("Merge pull request #12 from user/branch", ""),
        ("Merge branch 'main' into dev", ""),
        ("chore:   spaced   out ", "spaced out"),
        ("gh reference #88 kept casing", "gh reference kept casing"),
    ],
)
def test_clean_subject(raw: str, expected: str):
    assert gitio.clean_subject(raw) == expected


@pytest.mark.parametrize(
    "subject, flagged",
    [
        ("Merge pull request #12", True),
        ("v2.31.0", True),
        ("release 1.4", True),
        ("Bump urllib3 from 1.26 to 2.0", True),
        ("update deps [bot]", True),
        ("fix: handle chunked encoding (#88)", False),
        ("Improve cookie handling", False),
    ],
)
def test_bot_release_merge_filter(subject: str, flagged: bool):
    assert gitio.is_bot_release_or_merge_subject(subject) is flagged


_subject_alphabet = string.ascii_letters + string.digits + " #:()[]-_."


@given(st.text(alphabet=_subject_alphabet, max_size=80))
def test_clean_subject_is_idempotent_and_drops_issue_refs(subject: str):
    cleaned = gitio.clean_subject(subject)
    assert gitio.clean_subject(cleaned) == cleaned
    assert "  " not in cleaned
    assert not any(
        token.startswith("#") and token[1:].isdigit() for token in cleaned.split()
    )


_clean_alphabet = string.ascii_letters + string.digits + " #:()[]-_.\t\n\xa0\u0130\u0131\u017f\u212a"
_clean_pieces = st.sampled_from(["fix", "Bug", "feat", "chore", "merge branch", "Merge pull request", "[x]", ": ", "#12", "(#7)"])


@given(st.lists(st.one_of(st.text(alphabet=_clean_alphabet, max_size=8), _clean_pieces), max_size=8).map("".join))
@example("fix: redirect loop (#1234)")
@example("[docs] feat: add changelog")
@example("chore:   spaced   out ")
@example("Merge branch 'main'")
def test_clean_subject_matches_every_pass_run(subject: str):
    assert gitio.clean_subject(subject) == clean_subject_oracle(subject)
