"""Read commit history from a local git repository via the git executable.

Commits travel through a 0x1F/0x1E delimited wire format (ASCII unit and
record separators) so that newlines, tabs, and quotes inside commit bodies
round-trip losslessly. Messages that themselves contain those two control
bytes are rejected rather than silently corrupted.
"""
from __future__ import annotations

import codecs
import re
import subprocess
import tempfile
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
# Bytes asked of the file-list stream per read; a read returns what the pipe
# holds, so git runs at most a pipe's worth ahead of what is asked.
_FILES_CHUNK = 1 << 16

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
_WS_RE = re.compile(r"\s+")


class GitError(OSError):
    """A git invocation failed; the message carries the captured stderr. An
    OSError, so the CLI reports it as it reports any environment failure."""


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
        detail = completed.stderr.strip() or f"git {' '.join(args)} exited {completed.returncode}"
        raise GitError(detail)
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


def _parse_log(output: str) -> list[Commit]:
    commits: list[Commit] = []
    last_sha = "<none>"
    for record in output.split(RECORD_SEP):
        if not record:
            continue
        fields = record.split(FIELD_SEP)
        if len(fields) != _LOG_FIELDS or not _SHA_RE.fullmatch(fields[0]):
            offender = fields[0] if _SHA_RE.fullmatch(fields[0]) else last_sha
            raise CommitParseError(
                f"commit {offender}: message contains wire-format separator bytes "
                "(0x1f/0x1e); refusing to parse"
            )
        sha, author, epoch, date, subject, body, _ = fields
        last_sha = sha
        commits.append(
            Commit(
                sha=sha,
                author=author,
                author_date=date,
                author_epoch=int(epoch),
                subject=subject,
                body=body.rstrip("\n"),
            )
        )
    return commits


def list_commits(repo_path: Path | str, max_count: int = 5000) -> list[Commit]:
    """Newest-first commits, at most ``max_count``."""
    if max_count < 1:
        raise ValueError("max_count must be >= 1")
    path = _ensure_repo(repo_path)
    if not _has_commits(path):
        return []
    return _parse_log(_run_git([*_LOG_ARGS, "-n", str(max_count)], path))


def changed_files_map(repo_path: Path | str) -> dict[str, set[str]]:
    """First-parent changed-file sets of every commit, read through ChangedFiles."""
    with ChangedFiles(repo_path) as files:
        files.through(len(files.commits) - 1)
    return {commit.sha: commit.changed_files for commit in files.commits}


class ChangedFiles:
    """A whole newest-first listing of the repository, ``commits``, and the
    first-parent name-only file sets of its commits, read from a second
    ``git log`` only as far as ``through`` asks.

    The second git starts first, so that it runs ahead while the listing is
    read. Its stream is parsed in chunks, and each commit it lists must be the
    listing's commit at the same position, or GitError is raised. Use it as a
    context manager: leaving it closes the stream, kills git and reaps it.
    """

    def __init__(self, repo_path: Path | str) -> None:
        self.commits: list[Commit] = []
        self._read = 0  # commits[:_read] have their changed_files set
        self._proc: subprocess.Popen | None = None
        self._errors = None
        self._decoder = codecs.getincrementaldecoder("utf-8")(errors="replace")
        self._tail = ""
        path = _ensure_repo(repo_path)
        if not _has_commits(path):
            return
        self._errors = tempfile.TemporaryFile()
        self._proc = subprocess.Popen(
            ["git", "log", f"--pretty=format:{RECORD_SEP}%H", "--diff-merges=first-parent", "--name-only"],
            cwd=str(path), stdout=subprocess.PIPE, stderr=self._errors,
        )
        try:
            self.commits = _parse_log(_run_git(list(_LOG_ARGS), path))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "ChangedFiles":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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

    def through(self, position: int) -> None:
        """Set ``changed_files`` on every commit up to ``position``."""
        while self._read <= position:
            chunk = self._proc.stdout.read1(_FILES_CHUNK)
            records = (self._tail + self._decoder.decode(chunk, final=not chunk)).split(RECORD_SEP)
            self._tail = records.pop() if chunk else ""
            for record in records:
                if record:
                    self._take(record)
            if not chunk:
                self._end(position)

    def _take(self, record: str) -> None:
        sha, *names = record.splitlines()
        commits = self.commits
        if self._read >= len(commits) or commits[self._read].sha != sha:
            listed = commits[self._read].sha if self._read < len(commits) else "no commit"
            raise GitError(
                f"git log listed {sha} at position {self._read}, where the first read listed {listed}"
            )
        commits[self._read].changed_files = {name for name in names if name}
        self._read += 1

    def _end(self, position: int) -> None:
        """The stream ended before ``position``: git failed or listed too few."""
        if self._read > position:
            return
        code = self._proc.wait()
        self._errors.seek(0)
        detail = self._errors.read().decode("utf-8", "replace").strip()
        if code != 0:
            raise GitError(detail or f"git log exited {code}")
        raise GitError(
            f"git log listed {self._read} commits, where the first read listed {len(self.commits)}"
        )


def clean_subject(subject: str) -> str:
    """Strip conventional prefixes, issue references, and merge boilerplate.

    Casing is preserved; whitespace is collapsed; the result may be empty.
    """
    if _MERGE_SUBJECT_RE.match(subject):
        return ""
    text = subject
    while True:
        stripped = _LEADING_TAG_RE.sub("", text, count=1)
        stripped = _CONVENTIONAL_PREFIX_RE.sub("", stripped, count=1)
        if stripped == text:
            break
        text = stripped
    text = _ISSUE_REF_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def is_bot_release_or_merge_subject(subject: str) -> bool:
    """True for merge boilerplate, release tags, and bot-authored subjects."""
    return bool(
        _MERGE_SUBJECT_RE.match(subject)
        or _RELEASE_SUBJECT_RE.match(subject)
        or _BOT_SUBJECT_RE.search(subject)
    )
