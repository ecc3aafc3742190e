from __future__ import annotations

import os
import subprocess
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest


def run_git(repo: Path, *args: str, env: dict | None = None, stdin: str | None = None) -> str:
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    completed = subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        encoding="utf-8",
        input=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=full_env,
    )
    return completed.stdout


def recording_popen(monkeypatch) -> list[subprocess.Popen]:
    """The processes started through ``subprocess`` from here on, in order."""
    started: list[subprocess.Popen] = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return started


class RepoBuilder:
    """Deterministic git fixture repo: explicit dates, explicit file sets."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self._clock = datetime(2023, 1, 1, tzinfo=timezone.utc)
        run_git(self.path, "init", "-q", "-b", "main")
        run_git(self.path, "config", "user.email", "dev@example.com")
        run_git(self.path, "config", "user.name", "Dev One")

    def commit(
        self,
        subject: str,
        body: str = "",
        files: dict[str, str] | None = None,
        date: str | None = None,
        author: str = "Dev One <dev@example.com>",
    ) -> str:
        """Create one commit; returns its full sha."""
        self._counter += 1
        if date is None:
            self._clock += timedelta(hours=1)
            date = self._clock.isoformat()
        if files is None:
            files = {f"notes/change_{self._counter:04d}.txt": f"change {self._counter}\n"}
        for rel, content in files.items():
            target = self.path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content, encoding="utf-8")
        run_git(self.path, "add", "-A")
        message = f"{subject}\n\n{body}" if body else subject
        run_git(
            self.path,
            "commit",
            "-q",
            "--allow-empty",
            "--author",
            author,
            "-F",
            "-",
            env={"GIT_AUTHOR_DATE": date, "GIT_COMMITTER_DATE": date},
            stdin=message,
        )
        return run_git(self.path, "rev-parse", "HEAD").strip()


def build_fast_repo(path: Path, messages: list[str], base_timestamp: int = 1672531200) -> Path:
    """Bulk repo via git fast-import; one commit per message, seconds apart."""
    path.mkdir(parents=True, exist_ok=True)
    run_git(path, "init", "-q", "-b", "main")
    run_git(path, "config", "user.email", "bulk@example.com")
    run_git(path, "config", "user.name", "Bulk Author")
    lines: list[str] = []
    for index, message in enumerate(messages):
        stamp = base_timestamp + index
        blob = f"content {index}\n"
        lines.append("commit refs/heads/main")
        lines.append(f"committer Bulk Author <bulk@example.com> {stamp} +0000")
        lines.append(f"data {len(message.encode('utf-8'))}")
        lines.append(message)
        lines.append(f"M 644 inline file{index % 7}.txt")
        lines.append(f"data {len(blob.encode('utf-8'))}")
        lines.append(blob)
    run_git(path, "fast-import", "--quiet", stdin="\n".join(lines) + "\n")
    return path


def build_raw_repo(path: Path, messages: list[bytes], base_timestamp: int = 1672531200) -> Path:
    """Like ``build_fast_repo``, but each message is given as the exact bytes
    git stores: CR, invalid UTF-8 and separator bytes included."""
    path.mkdir(parents=True, exist_ok=True)
    run_git(path, "init", "-q", "-b", "main")
    stream = bytearray()
    for index, message in enumerate(messages):
        stream += b"commit refs/heads/main\n"
        stream += f"committer Raw Author <raw@example.com> {base_timestamp + index} +0000\n".encode()
        stream += b"data %d\n%s\n" % (len(message), message)
        stream += b"M 644 inline file%d.txt\ndata 2\n%d\n\n" % (index % 7, index % 10)
    subprocess.run(["git", "fast-import", "--quiet"], cwd=path, input=bytes(stream), check=True,
                   stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    return path


FILLER_SUBJECTS = (
    "Merge branch 'housekeeping'",
    "v1.0.{n}",
    "wip",
    "Bump dependency from 1.2 to 1.3",
    "chore: sync assets",
)

ORACLE_REPO_PLAN: list[tuple[str, str, str]] = [
    # (label, subject, body); fillers are injected between these.
    ("intersphinx", "Document intersphinx requirement",
     "When trying to link via intersphinx, a label must be used."),
    ("unicode_fix", "Fix: unicode characters in basic http auth", ""),
    ("pool", "Improve pool handling",
     "Crash occurs when the pool is exhausted. Workaround: raise the pool size."),
    ("issue_only", "fix issue #1234", ""),
    ("redirect", "redirect loop on 302 chain", ""),
    ("cookie", "Annotate cookie signing",
     "Note: the session cookie must always be signed before deployment."),
    ("codec", "Guard codec imports",
     "To avoid implicit import of encodings, the loader pins the codec list."),
    ("alias", "Clarify retry naming",
     "The retry flag is an alias for the backoff toggle."),
    ("timeout", "Stabilise cold start",
     "TimeoutError appears during cold start. Also tidied imports."),
    ("urllib", "Pin resolver guidance",
     "Recommended: pin urllib3 below version two for the legacy pool."),
    ("regression", "Track cache regressions",
     "This regression broke after the cache rewrite landed in March."),
    ("intersphinx_dup", "Document intersphinx requirement again",
     "When trying to link via intersphinx, a label must be used."),
    ("resolver", "Resolver guidance note",
     "Note: to avoid the legacy resolver use the pinned index."),
    ("stop_only", "v2.1.0", "Workaround: see above."),
    ("too_short", "v2.0.0", "Note: ok."),
    ("long_fallback",
     "Rework the connection pool lifecycle so reconnect storms drain gracefully during rolling restarts",
     "The previous design parked every pending request on one shared semaphore and the drain path "
     "starved readers whenever a replica flapped, which meant operators had to bounce the whole "
     "tier by hand during incident response windows."),
]


def build_oracle_repo(path: Path) -> tuple[Path, dict[str, str]]:
    """The 50-commit extraction-oracle repository; returns path and shas by label."""
    builder = RepoBuilder(path)
    shas: dict[str, str] = {}
    planted = iter(ORACLE_REPO_PLAN)
    filler_index = 0
    for position in range(1, 51):
        if position % 3 == 2 and position >= 2:
            try:
                label, subject, body = next(planted)
            except StopIteration:
                label = None
            if label is not None:
                shas[label] = builder.commit(subject, body)
                continue
        filler = FILLER_SUBJECTS[filler_index % len(FILLER_SUBJECTS)]
        filler_index += 1
        builder.commit(filler.format(n=filler_index))
    assert next(planted, None) is None, "oracle plan did not fit into 50 commits"
    return builder.path, shas


CALIB_REPO_PLAN: list[tuple[str, str, str]] = [
    ("links", "Docs linking guide", "Intersphinx links must use a label."),
    ("pool", "Pool diagnostics", "Crash occurs when the session pool is exhausted."),
    ("blueprint", "blueprint registration ordering change", ""),
    ("codec", "Codec freeze note", "Note: the codec registry must stay frozen during reload."),
    ("retry", "Retry guidance", "Recommended: cap retry budgets under sixty seconds."),
    ("deadlock", "Shutdown ordering", "Deadlock happens when the scheduler drains twice."),
    ("imports", "Encoding imports", "To avoid implicit encoding imports, pin the codec list."),
    ("tokens", "Auth tokens", "GitHub tokens must be scoped before automation runs."),
    ("migration", "Migration stability", "This migration broke after the schema rewrite."),
    ("release", "v0.9.1", ""),
]


def build_calibration_repo(path: Path) -> tuple[Path, dict[str, str]]:
    builder = RepoBuilder(path)
    shas = {label: builder.commit(subject, body) for label, subject, body in CALIB_REPO_PLAN}
    return builder.path, shas


TIMETRAVEL_REPO_PLAN: list[tuple[str, str, tuple[str, ...]]] = [
    ("scaffold", "Initial scaffolding", ("core.py",)),
    ("pool_fix_1", "Fix pool leak under load", ("pool.py",)),
    ("pool_metrics", "Add pool metrics", ("pool.py", "docs.md")),
    ("pool_fix_2", "Bug: pool starvation when draining", ("pool.py",)),
    ("utils", "Refactor utils", ("utils.py",)),
    ("auth_fix_1", "Fix auth token refresh crash", ("auth.py",)),
    ("docs", "Improve docs", ("docs.md",)),
    ("pool_fix_3", "fix pool exhaustion regression", ("pool.py",)),
    ("readme", "Update readme", ("README.md",)),
    ("auth_fix_2", "fix auth refresh loop", ("auth.py",)),
    ("pool_fix_4", "Fix pool shutdown deadlock", ("pool.py",)),
]


def build_timetravel_repo(path: Path) -> tuple[Path, dict[str, str]]:
    builder = RepoBuilder(path)
    shas: dict[str, str] = {}
    for index, (label, subject, touched) in enumerate(TIMETRAVEL_REPO_PLAN):
        files = {name: f"{label} revision {index}\n" for name in touched}
        shas[label] = builder.commit(subject, files=files)
    return builder.path, shas


# Author dates that run against ``git log`` order, in mixed UTC offsets:
# "backport" was authored long before it landed, "late_fix" is newer in the
# log than several commits it predates, and "core_fix"/"cache_fix_3" (and
# "late_fix"/"cache_fix_2") share one instant written in different offsets.
SKEWED_DATES_PLAN: list[tuple[str, str, str, tuple[str, ...], str]] = [
    # (label, subject, body, files, author date)
    ("scaffold", "Initial cache layout", "", ("cache.py", "core.py"), "2023-03-01T08:00:00+00:00"),
    ("cache_fix_1", "Fix cache eviction race", "Eviction must hold the shard lock.",
     ("cache.py",), "2023-03-01T18:00:00+09:00"),
    ("docs", "Describe cache tuning", "Note: the cache size should track the shard count.",
     ("docs.md",), "2023-03-01T05:00:00-08:00"),
    ("cache_fix_2", "fix cache stampede on cold start", "", ("cache.py",), "2023-03-01T12:00:00+00:00"),
    ("backport", "Fix cache warmup crash", "KeyError occurs when the warmup races the loader.",
     ("cache.py",), "2023-02-20T10:00:00+00:00"),
    ("core_fix", "Bug: core config reload", "", ("core.py",), "2023-03-01T20:00:00+05:30"),
    ("cache_fix_3", "Fix cache key collision", "", ("cache.py", "core.py"), "2023-03-01T23:30:00+09:00"),
    ("late_fix", "fix core shutdown hang", "To avoid the hang, close the cache before the core.",
     ("core.py",), "2023-03-01T10:00:00-02:00"),
    ("tidy", "Tidy imports", "", ("core.py",), "2023-03-02T00:00:00+00:00"),
]

# "pool_fix_1" and "docs" yield one unit id from contents that differ only in
# case, so they tokenize differently; windows that hold both must index the
# newer one, and windows that hold only the older one must index that.
SHARED_UNIT_PLAN: list[tuple[str, str, str]] = [
    ("scaffold", "Initial pool scaffolding", ""),
    ("pool_fix_1", "Bug: pool drain on exit", "Note: the connectionpool must be drained before shutdown."),
    ("pool_fix_2", "Fix connectionpool shutdown leak", ""),
    ("docs", "Document pool tuning", "Note: the connectionPool must be drained before shutdown."),
    ("pool_fix_3", "Fix pool shutdown ordering", ""),
    ("pool_fix_4", "Fix connection pool drain crash", ""),
]


def build_skewed_dates_repo(path: Path) -> tuple[Path, dict[str, str]]:
    builder = RepoBuilder(path)
    shas: dict[str, str] = {}
    for index, (label, subject, body, touched, date) in enumerate(SKEWED_DATES_PLAN):
        files = {name: f"{label} revision {index}\n" for name in touched}
        shas[label] = builder.commit(subject, body, files=files, date=date)
    return builder.path, shas


def build_shared_unit_repo(path: Path) -> tuple[Path, dict[str, str]]:
    builder = RepoBuilder(path)
    shas: dict[str, str] = {}
    for index, (label, subject, body) in enumerate(SHARED_UNIT_PLAN):
        name = "docs.md" if label == "docs" else "pool.py"
        shas[label] = builder.commit(subject, body, files={name: f"{label} revision {index}\n"})
    return builder.path, shas


@pytest.fixture()
def repo_builder(tmp_path: Path) -> RepoBuilder:
    return RepoBuilder(tmp_path / "repo")


@pytest.fixture(scope="session")
def oracle_repo(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict[str, str]]:
    return build_oracle_repo(tmp_path_factory.mktemp("oracle") / "repo")


@pytest.fixture(scope="session")
def calibration_repo(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict[str, str]]:
    return build_calibration_repo(tmp_path_factory.mktemp("calib") / "repo")


@pytest.fixture(scope="session")
def timetravel_repo(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict[str, str]]:
    return build_timetravel_repo(tmp_path_factory.mktemp("timetravel") / "repo")


@pytest.fixture(scope="session")
def skewed_dates_repo(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict[str, str]]:
    return build_skewed_dates_repo(tmp_path_factory.mktemp("skewed") / "repo")


@pytest.fixture(scope="session")
def shared_unit_repo(tmp_path_factory: pytest.TempPathFactory) -> tuple[Path, dict[str, str]]:
    return build_shared_unit_repo(tmp_path_factory.mktemp("shared") / "repo")
