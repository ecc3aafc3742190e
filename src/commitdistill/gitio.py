"""Read commit history from a local git repository via the git executable.

Commits travel through a 0x1F/0x1E delimited wire format (ASCII unit and
record separators) so that newlines, tabs, and quotes inside commit bodies
round-trip losslessly. Messages that themselves contain those two control
bytes are rejected rather than silently corrupted.
"""
from __future__ import annotations

import codecs
import io
import re
import subprocess
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

FIELD_SEP = "\x1f"
RECORD_SEP = "\x1e"
# The empty trailing field closes the body with a separator. git prints no
# newline after the last record, so without it a 0x1e ending the oldest
# commit's message would split off an empty record, which is skipped, and the
# byte would be lost unseen; with it that record is a field short and refused.
_LOG_FORMAT = RECORD_SEP + FIELD_SEP.join(["%H", "%an", "%at", "%ad", "%s", "%b", ""])
_LOG_FIELDS = 7
_LOG_ARGS = ("log", "--date=iso-strict", f"--pretty=format:{_LOG_FORMAT}")
# Bytes asked of git's output per read; a read returns what the pipe holds,
# so git runs at most a pipe's worth ahead of what is asked.
_READ_SIZE = 1 << 16

_SHA_RE = re.compile(r"[0-9a-f]{40}")
_ISSUE_REF_RE = re.compile(r"\(?#\d+\)?")
_LEADING_TAG_RE = re.compile(r"^\s*\[[^\]]*\]\s*")
_CONVENTIONAL_PREFIX_RE = re.compile(r"^\s*(?:fix|bug|feat|chore)\s*:\s*", re.IGNORECASE)
_MERGE_SUBJECT_RE = re.compile(
    r"^\s*merge\s+(?:pull\s+request|(?:remote-tracking\s+)?branch)\b", re.IGNORECASE
)
_RELEASE_SUBJECT_RE = re.compile(
    r"^\s*(?:v?\d+(?:\.\d+)+\s*$|(?:prepare\s+)?release\b|bump\s+version\b|version\s+bump\b)",
    re.IGNORECASE,
)
_BOT_SUBJECT_RE = re.compile(
    r"dependabot|renovate|\[bot\]|^\s*bump\b.*\bfrom\b.*\bto\b", re.IGNORECASE
)


class GitError(OSError):
    """A git invocation failed; the message carries the captured stderr, its
    lines joined by "; ". An OSError, so the CLI reports it as it reports any
    environment failure."""


class CommitParseError(GitError):
    """A commit message collides with the wire-format separator bytes."""


@dataclass
class Commit:
    """One git commit record."""

    sha: str
    author: str
    author_date: str  # ISO-8601 with UTC offset, exactly as git printed it
    author_epoch: int  # the same instant in seconds since the epoch
    subject: str
    body: str
    changed_files: set[str] | None = None  # set by ChangedFiles

    @property
    def short_sha(self) -> str:
        return self.sha[:8]

    @property
    def message(self) -> str:
        return f"{self.subject}\n{self.body}" if self.body else self.subject


def _git_error(stderr: str, fallback: str) -> GitError:
    """A GitError carrying git's stderr on one line, or ``fallback`` if it printed none."""
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    return GitError("; ".join(lines) or fallback)


def _run_git(args: list[str], repo_path: Path | str) -> str:
    completed = subprocess.run(
        ["git", *args],
        cwd=str(repo_path),
        check=False,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        encoding="utf-8",
        errors="replace",
    )
    if completed.returncode != 0:
        raise _git_error(completed.stderr, f"git {' '.join(args)} exited {completed.returncode}")
    return completed.stdout


def _ensure_repo(repo_path: Path | str) -> Path:
    path = Path(repo_path)
    if not path.is_dir():
        raise GitError(f"repository not found: {path}")
    try:
        _run_git(["rev-parse", "--git-dir"], path)
    except GitError as exc:
        raise GitError(f"not a git repository: {path} ({exc})") from exc
    return path


def _has_commits(repo_path: Path) -> bool:
    try:
        _run_git(["rev-parse", "--verify", "--quiet", "HEAD"], repo_path)
    except GitError:
        return False
    return True


def head_sha(repo_path: Path | str) -> str:
    """Full sha of HEAD; raises GitError on an empty or missing repository."""
    path = _ensure_repo(repo_path)
    return _run_git(["rev-parse", "HEAD"], path).strip()


class _GitRecords:
    """One running git, whose output is read as it streams, a read at a time,
    and split into records at RECORD_SEP. It is decoded as UTF-8, U+FFFD
    standing for bytes that are not, and CR and CRLF read as LF, as a
    text-mode pipe reads them. ``close`` closes the stream, kills git and
    reaps it, whether or not it was read to the end."""

    def __init__(self, args: list[str], path: Path) -> None:
        self._args = args
        self._errors = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                ["git", *args], cwd=str(path), stdout=subprocess.PIPE, stderr=self._errors
            )
        except BaseException:
            self._errors.close()
            raise
        self._decoder = io.IncrementalNewlineDecoder(
            codecs.getincrementaldecoder("utf-8")(errors="replace"), translate=True
        )

    def close(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdout.close()
        finally:
            proc.kill()
            proc.wait()
            self._errors.close()

    def reads(self) -> Iterator[list[str]]:
        """The nonempty records that each read completes, and at the end the
        last one, once git has exited 0; GitError if it has not."""
        proc, tail = self._proc, ""
        while chunk := proc.stdout.read1(_READ_SIZE):
            *records, tail = (tail + self._decoder.decode(chunk)).split(RECORD_SEP)
            yield [record for record in records if record]
        code = proc.wait()
        if code != 0:
            self._errors.seek(0)
            detail = self._errors.read().decode("utf-8", "replace")
            raise _git_error(detail, f"git {self._args[0]} exited {code}")
        tail += self._decoder.decode(b"", final=True)
        if tail:
            yield [tail]


class CommitLog:
    """Newest-first commits of the repository, at most ``max_count`` if given,
    parsed from ``git log`` as it streams. Iterate it for the commits, or
    take ``batches()``, the commits of one read at a time; ``count`` is the
    number parsed so far. Use it as a context manager: leaving it, read to
    the end or not, stops git.
    """

    def __init__(self, repo_path: Path | str, max_count: int | None = None) -> None:
        if max_count is not None and max_count < 1:
            raise ValueError("max_count must be >= 1")
        self.count = 0
        self._last_sha = "<none>"
        self.path = _ensure_repo(repo_path)
        self.empty = not _has_commits(self.path)
        self._git = None
        if not self.empty:
            limit = [] if max_count is None else ["-n", str(max_count)]
            self._git = _GitRecords([*_LOG_ARGS, *limit], self.path)

    def __enter__(self) -> "CommitLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._git is not None:
            self._git.close()

    def __iter__(self) -> Iterator[Commit]:
        for batch in self.batches():
            yield from batch

    def batches(self) -> Iterator[list[Commit]]:
        if self._git is None:
            return
        for records in self._git.reads():
            yield [self._parse(record) for record in records]

    def _parse(self, record: str) -> Commit:
        fields = record.split(FIELD_SEP)
        if len(fields) != _LOG_FIELDS or not _SHA_RE.fullmatch(fields[0]):
            offender = fields[0] if _SHA_RE.fullmatch(fields[0]) else self._last_sha
            raise CommitParseError(
                f"commit {offender}: message contains wire-format separator bytes "
                "(0x1f/0x1e); refusing to parse"
            )
        sha, author, epoch, date, subject, body, _ = fields
        self._last_sha = sha
        self.count += 1
        return Commit(
            sha=sha,
            author=author,
            author_date=date,
            author_epoch=int(epoch),
            subject=subject,
            body=body.rstrip("\n"),
        )


def list_commits(repo_path: Path | str, max_count: int = 5000) -> list[Commit]:
    """Newest-first commits, at most ``max_count``."""
    with CommitLog(repo_path, max_count) as log:
        return list(log)


def changed_files_map(repo_path: Path | str) -> dict[str, set[str]]:
    """First-parent changed-file sets of every commit, read through ChangedFiles."""
    with ChangedFiles(repo_path) as files:
        files.through(len(files.commits) - 1)
    return {commit.sha: commit.changed_files for commit in files.commits}


class ChangedFiles:
    """A whole newest-first listing of the repository, ``commits``, and the
    first-parent name-only file sets of its commits, read from a second
    ``git log`` only as far as ``through`` asks.

    Both gits start before the listing is read, so that the second runs
    ahead meanwhile. Its records are parsed a read at a time, and each
    commit it lists must be the listing's commit at the same position, or
    GitError is raised. Use it as a context manager: leaving it closes the
    stream, kills git and reaps it.
    """

    def __init__(self, repo_path: Path | str) -> None:
        self.commits: list[Commit] = []
        self._read = 0  # commits[:_read] have their changed_files set
        self._files: _GitRecords | None = None
        with CommitLog(repo_path) as listing:
            if listing.empty:
                return
            self._files = _GitRecords(
                ["log", f"--pretty=format:{RECORD_SEP}%H", "--diff-merges=first-parent", "--name-only"],
                listing.path,
            )
            try:
                self.commits = list(listing)
            except BaseException:
                self.close()
                raise
        self._records = self._files.reads()

    def __enter__(self) -> "ChangedFiles":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._files is not None:
            self._files.close()

    def through(self, position: int) -> None:
        """Set ``changed_files`` on every commit up to ``position``."""
        while self._read <= position:
            records = next(self._records, None)
            if records is None:
                raise GitError(
                    f"git log listed {self._read} commits, where the first read listed {len(self.commits)}"
                )
            for record in records:
                self._take(record)

    def _take(self, record: str) -> None:
        sha, *names = record.split("\n")
        commits = self.commits
        if self._read >= len(commits) or commits[self._read].sha != sha:
            listed = commits[self._read].sha if self._read < len(commits) else "no commit"
            raise GitError(
                f"git log listed {sha} at position {self._read}, where the first read listed {listed}"
            )
        commits[self._read].changed_files = {name for name in names if name}
        self._read += 1


def clean_subject(subject: str) -> str:
    """Strip conventional prefixes, issue references, and merge boilerplate.

    Casing is preserved; whitespace is collapsed; the result may be empty.
    """
    if _MERGE_SUBJECT_RE.match(subject):
        return ""
    text = subject
    # A leading tag needs "[", a prefix ":" and an issue reference "#".
    while "[" in text or ":" in text:
        stripped = _LEADING_TAG_RE.sub("", text, count=1)
        stripped = _CONVENTIONAL_PREFIX_RE.sub("", stripped, count=1)
        if stripped == text:
            break
        text = stripped
    if "#" in text:
        text = _ISSUE_REF_RE.sub(" ", text)
    return " ".join(text.split())


def is_bot_release_or_merge_subject(subject: str) -> bool:
    """True for merge boilerplate, release tags, and bot-authored subjects."""
    return bool(
        _MERGE_SUBJECT_RE.match(subject)
        or _RELEASE_SUBJECT_RE.match(subject)
        or _BOT_SUBJECT_RE.search(subject)
    )
