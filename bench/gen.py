"""Seeded synthetic git histories for the benchmark.

``generate(seed, n_commits, fix_share, hot_files, density)`` returns a ``History``: the
fast-import stream that builds the repository and the plan each commit was
made from (subject, body, author, epoch, files and the rule-shaped sentences
planted in it). The program under test only ever sees the repository; the
output checks read the plan.

The same seed gives byte-identical streams. Subject styles and planted
sentences come in exact counts (shuffled, not drawn one commit at a time), so
two seeds differ in wording, dates and file choice but not in make-up.
"""
from __future__ import annotations

import random
import subprocess
import textwrap
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

BASE_EPOCH = 1640995200  # 2022-01-01T00:00:00Z

# Domain words lead the Zipf ranking, so they are the frequent ones. Some are
# trigger decoys: they contain a rule's trigger literal ("error", "prefix",
# "requirement", "same") without completing the rule's pattern.
DOMAIN_WORDS = """
cache pool session cookie token parser lexer scheduler worker queue buffer
socket handler request response router config loader plugin registry index
schema migration backend frontend client server thread lock timer retry
backoff budget label link header payload encoder decoder codec stream batch
shard replica cluster node leader follower snapshot journal ledger cursor
iterator adapter bridge proxy gateway tenant account profile avatar upload
download archive bundle manifest package module import export format layout
render template widget dialog button panel sidebar toolbar theme palette
metric counter gauge histogram trace span sampler exporter collector agent
daemon service endpoint route middleware filter validator sanitizer error
errors prefix suffix requirement requirements same best enable notes fixture
fixtures breaker alias equivalent preventive window frame pixel glyph font
""".split()

NON_ASCII_WORDS = (
    "naïve", "café", "größe", "déjà", "façade", "résumé", "ångström",
    "übergang", "données", "日本語", "данные", "señal",
)

STOP_LIKE = frozenset(
    "a an and are as at be by for from in is it of on or the to was with".split()
)

_SYLLABLES = (
    "ba be bi bo bu da de di do du fa fe fi fo ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru sa se si so "
    "su ta te ti to tu va ve vi vo za ze zi zo zu"
).split()
_CODAS = ("", "n", "r", "s", "l", "x", "m", "t", "k")

VERBS = (
    "flush", "reset", "validate", "cache", "reload", "drain", "pin", "bound",
    "retry", "serialize", "resolve", "index", "release", "acquire", "sort",
)
PREPS = ("before", "after", "during", "inside", "across", "behind", "beyond")
MODALS = ("must", "should", "cannot", "always", "never", "requires")

FAILURE_SUFFIXES = ("Error", "Exception", "Failure")
FAILURE_TERMS = ("deadlock", "race condition", "infinite loop")

AUTHORS = (
    ("Ada Lovelace", "ada@example.org", "+0000"),
    ("José Núñez", "jose@example.org", "-0300"),
    ("Zoë Ångström", "zoe@example.org", "+0100"),
    ("李雷", "lilei@example.org", "+0800"),
    ("Priya Raman", "priya@example.org", "+0530"),
    ("Sam O'Neil", "sam@example.org", "-0700"),
    ("Kai Müller", "kai@example.org", "+0200"),
    ("Noor Haddad", "noor@example.org", "+0300"),
    ("Lena Novak", "lena@example.org", "+0100"),
    ("Tom Baker", "tom@example.org", "-0500"),
)
BOT_AUTHOR = ("dependabot[bot]", "support@github.com", "+0000")

MODULES = ("core", "net", "auth", "pool", "cache", "db", "ui", "cli", "docs", "tests")

# Subject styles (assumed, not measured) and their exact shares of non-root commits; "fix" is
# overridden by the fix_share argument and the remainder goes to "plain".
SUBJECT_SHARES = {
    "conventional": 0.26,
    "merge": 0.07,
    "release": 0.03,
    "bot": 0.06,
    "terse": 0.03,
}

# Per-commit rates of planted rule-shaped sentences, one entry per rule of
# the program's nine, at density 1. They are assumptions, not measurements:
# the rates differ so that the rules are unevenly busy, and density 1 gives
# about 1.9 rule units per commit, some 40 times the 1,167 units from 25,000
# commits that the paper reports. ``density`` scales them (and the share of
# filler sentences that carry "should" or "always") towards that figure.
RULE_RATES = {
    "fact-constraint": 0.40,
    "fact-annotation": 0.12,
    "fact-equivalence": 0.05,
    "skill-resolution": 0.16,
    "skill-recommendation": 0.07,
    "skill-instructional": 0.12,
    "pattern-causal": 0.08,
    "pattern-exception": 0.18,
    "pattern-regression": 0.07,
}

RULE_TYPES = {name: name.split("-")[0] for name in RULE_RATES}

MODAL_SHARE = 0.3  # filler sentences with a fact-constraint keyword, at density 1

EXTRA_RATES = {"fence": 0.10, "inline": 0.15, "issue": 0.20, "nonascii": 0.08, "html": 0.03}


@dataclass
class Planted:
    rule: str
    unit_type: str
    sentence: str  # the whole sentence as written
    core: str  # what the rule should capture, before any resolution tail


@dataclass
class PlannedCommit:
    index: int
    kind: str
    subject: str
    body: str
    author: tuple[str, str, str]
    epoch: int
    files: tuple[str, ...]
    planted: list[Planted] = field(default_factory=list)

    @property
    def message(self) -> str:
        """The message as git log's subject and body give it back."""
        return f"{self.subject}\n{self.body}" if self.body else self.subject

    @property
    def iso_date(self) -> str:
        tz = self.author[2]
        sign = 1 if tz[0] == "+" else -1
        offset = sign * (int(tz[1:3]) * 3600 + int(tz[3:5]) * 60)
        zone = timezone(timedelta(seconds=offset))
        return datetime.fromtimestamp(self.epoch, zone).isoformat()


@dataclass
class History:
    commits: list[PlannedCommit]  # oldest first
    stream: bytes

    def newest_first(self) -> list[PlannedCommit]:
        return self.commits[::-1]


def _pseudo_words(count: int) -> list[str]:
    rng = random.Random(0)
    words: list[str] = []
    seen = set(DOMAIN_WORDS)
    while len(words) < count:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3)))
        word += rng.choice(_CODAS)
        if word not in seen and word not in STOP_LIKE:
            seen.add(word)
            words.append(word)
    return words


VOCABULARY: tuple[str, ...] = tuple(DOMAIN_WORDS) + tuple(_pseudo_words(4000))
_ZIPF_CUM: list[float] = []
_total = 0.0
for _rank in range(len(VOCABULARY)):
    _total += 1.0 / (_rank + 3) ** 1.05  # Zipf-Mandelbrot
    _ZIPF_CUM.append(_total)


class _Writer:
    """Draws words, identifiers and sentences from one seeded stream."""

    def __init__(self, rng: random.Random, modal_share: float = MODAL_SHARE):
        self.rng = rng
        self.modal_share = modal_share

    def words(self, k: int) -> list[str]:
        return self.rng.choices(VOCABULARY, cum_weights=_ZIPF_CUM, k=k)

    def word(self) -> str:
        return self.words(1)[0]

    def identifier(self) -> str:
        a, b, c = self.words(3)
        style = self.rng.randrange(5)
        if style == 0:
            return a + b.capitalize() + (c.capitalize() if self.rng.random() < 0.5 else "")
        if style == 1:
            return f"{a}_{b}" + (f"_{c}" if self.rng.random() < 0.5 else "")
        if style == 2:
            return f"{a}_{b}".upper()
        if style == 3:
            return f"{a}{self.rng.randint(2, 64)}{b.capitalize()}"
        return a.capitalize() + b.capitalize()

    def phrase(self, k: int) -> str:
        return " ".join(self.words(k))

    def filler(self) -> str:
        parts = self.words(self.rng.randint(5, 14))
        if self.rng.random() < 0.3:
            parts.insert(self.rng.randrange(len(parts)), self.identifier())
        if self.rng.random() < self.modal_share:
            parts.insert(self.rng.randrange(1, len(parts)), self.rng.choice(("should", "always")))
        text = " ".join(parts)
        return text[0].upper() + text[1:] + "."

    def planted(self, rule: str) -> Planted:
        rng = self.rng
        w = self.phrase
        verb = rng.choice(VERBS)
        if rule == "fact-constraint":
            core = f"The {w(2)} {rng.choice(MODALS)} {verb} the {w(2)} {rng.choice(PREPS)} {w(2)}."
            sentence = core
        elif rule == "fact-annotation":
            cue = rng.choice(("Note", "Important", "Warning"))
            core = f"the {w(2)} {verb}s {w(3)} {rng.choice(PREPS)} {w(1)}."
            sentence = f"{cue}: {core}"
        elif rule == "fact-equivalence":
            link = rng.choice(("is equivalent to", "is the same as", "is an alias for"))
            core = f"The {w(2)} flag {link} the {w(2)} option."
            sentence = core
        elif rule == "skill-resolution":
            cue = rng.choice(("Workaround", "Fixed by", "Solution"))
            core = f"{verb} the {w(2)} {rng.choice(PREPS)} the {w(2)}."
            sentence = f"{cue}: {core}"
        elif rule == "skill-recommendation":
            cue = rng.choice(("Recommended", "Best practice"))
            core = f"{verb} {w(3)} {rng.choice(PREPS)} {w(2)}."
            sentence = f"{cue}: {core}"
        elif rule == "skill-instructional":
            goal = rng.choice(("avoid", "prevent", "enable", "disable"))
            core = f"To {goal} {w(2)} {w(1)}, {verb} the {w(2)} first."
            sentence = core
        elif rule == "pattern-causal":
            when = rng.choice(("occurs", "happens"))
            core = f"{w(1).capitalize()} {w(1)} {when} when the {w(2)} {verb}s {w(1)}."
            sentence = core
        elif rule == "pattern-exception":
            if rng.random() < 0.7:
                name = self.word().capitalize() + self.word().capitalize()
                name += rng.choice(FAILURE_SUFFIXES)
                core = f"{name} is raised {rng.choice(PREPS)} {w(3)}."
            else:
                core = f"A {rng.choice(FAILURE_TERMS)} appears in the {w(2)} {w(1)}."
            sentence = core
        elif rule == "pattern-regression":
            marker = rng.choice(("broke", "breaks", "broken", "regression"))
            tie = rng.choice(("in", "since", "after", "when"))
            core = f"The {w(2)} {marker} {tie} the {w(3)} change."
            sentence = core
        else:
            raise ValueError(rule)
        return Planted(rule, RULE_TYPES[rule], sentence, core)


def _exact_kinds(rng: random.Random, n: int, shares: dict[str, float], rest: str) -> list[str]:
    kinds: list[str] = []
    for kind, share in shares.items():
        kinds += [kind] * round(share * n)
    kinds += [rest] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _subject(writer: _Writer, kind: str, index: int) -> str:
    rng = writer.rng
    if kind == "fix":
        style = rng.randrange(6)
        if style == 0:
            return f"Fix {writer.phrase(2)} in {rng.choice(MODULES)}"
        if style == 1:
            return f"fix: {writer.phrase(3)} (#{rng.randint(10, 9999)})"
        if style == 2:
            return f"fix({rng.choice(MODULES)}): handle {writer.phrase(2)}"
        if style == 3:
            return f"Bug: {writer.phrase(2)} {rng.choice(VERBS)}s twice"
        if style == 4:
            return f"{rng.choice(MODULES).capitalize()}: fix crash when {writer.phrase(2)} is empty"
        return rng.choice(("Fix typo in docs", "fix flaky test", "Fix lint warnings"))
    if kind == "conventional":
        kind_word = rng.choice(("feat", "chore", "docs", "refactor", "test", "perf"))
        scope = f"({rng.choice(MODULES)})" if rng.random() < 0.5 else ""
        return f"{kind_word}{scope}: {rng.choice(VERBS)} {writer.phrase(3)}"
    if kind == "merge":
        if rng.random() < 0.6:
            return f"Merge pull request #{rng.randint(10, 9999)} from dev/{writer.word()}-{writer.word()}"
        return f"Merge branch '{writer.word()}' into main"
    if kind == "release":
        version = f"{rng.randint(0, 9)}.{rng.randint(0, 30)}.{index % 50}"
        return rng.choice((f"v{version}", f"Release {version}", f"Bump version to {version}"))
    if kind == "bot":
        major, minor = rng.randint(0, 9), rng.randint(0, 40)
        return f"Bump {writer.word()}-{writer.word()} from {major}.{minor} to {major}.{minor + 1}"
    if kind == "terse":
        return rng.choice(("wip", "typo", "tidy", "more tests", "address review"))
    verb = rng.choice(("Add", "Update", "Remove", "Refactor", "Improve", "Support", "Document"))
    return f"{verb} {writer.phrase(rng.randint(2, 5))}"


def _body(writer: _Writer, kind: str, planted: list[Planted]) -> str:
    rng = writer.rng
    if kind == "bot":
        return (
            f"Bumps {writer.word()} to the latest release.\n\n"
            "Signed-off-by: dependabot[bot] <support@github.com>"
        )
    if kind in ("merge", "release", "terse"):
        return ""
    paragraphs: list[str] = []
    filler = [writer.filler() for _ in range(rng.randint(0, 4))]
    extras = [name for name, rate in EXTRA_RATES.items() if rng.random() < rate]
    if "nonascii" in extras and filler:
        filler[0] = filler[0][:-1] + f" {rng.choice(NON_ASCII_WORDS)}."
    if "inline" in extras:
        filler.append(f"Call `{writer.identifier()}()` before the {writer.word()} step.")
    if "html" in extras:
        filler.append(f"See the <b>{writer.word()}</b> table<br> for {writer.word()} limits.")
    if filler:
        paragraphs.append(textwrap.fill(" ".join(filler), width=72))
    if planted:
        sentences = [p.sentence for p in planted]
        if rng.random() < 0.5:
            sentences.insert(0, writer.filler())
        paragraphs.append(" ".join(sentences))
    if "fence" in extras:
        ident = writer.identifier()
        paragraphs.append(f"```\n{ident} = {writer.word()}({writer.word()}=True)\n```")
    if "issue" in extras:
        paragraphs.append(rng.choice(("Closes", "Refs", "See")) + f" #{rng.randint(1, 9999)}")
    return "\n\n".join(paragraphs)


def _files(rng: random.Random, kind: str, all_files: list[str], hot: list[str]) -> tuple[str, ...]:
    if kind == "fix" and hot and rng.random() < 0.8:
        return tuple(sorted(rng.sample(hot, rng.randint(1, 2))))
    return tuple(sorted(rng.sample(all_files, rng.randint(1, 3))))


def generate(
    seed: int, n_commits: int, fix_share: float = 0.12, hot_files: int = 40, density: float = 1.0
) -> History:
    """The plan and fast-import stream for ``n_commits`` linear commits."""
    rng = random.Random(seed)
    writer = _Writer(rng, MODAL_SHARE * density)
    all_files = [f"src/{module}/{writer.word()}_{i}.py" for module in MODULES for i in range(40)]
    hot = sorted(rng.sample(all_files, hot_files)) if hot_files else []
    shares = dict(SUBJECT_SHARES, fix=fix_share)
    kinds = ["root"] + _exact_kinds(rng, n_commits - 1, shares, "plain")

    planted_by_commit: dict[int, list[Planted]] = {}
    eligible = [i for i, kind in enumerate(kinds) if kind in ("fix", "conventional", "plain")]
    for rule, rate in RULE_RATES.items():
        for target in rng.choices(eligible, k=round(rate * density * n_commits)):
            planted_by_commit.setdefault(target, []).append(writer.planted(rule))

    commits: list[PlannedCommit] = []
    epoch = BASE_EPOCH
    for index, kind in enumerate(kinds):
        epoch += rng.randint(60, 7200)
        planted = planted_by_commit.get(index, [])
        if kind == "root":
            subject, body, author = "Initial commit", "", AUTHORS[0]
            files = tuple(all_files[:3])
        else:
            subject = _subject(writer, kind, index)
            body = _body(writer, kind, planted)
            author = BOT_AUTHOR if kind == "bot" else rng.choice(AUTHORS)
            files = _files(rng, kind, all_files, hot)
        commits.append(PlannedCommit(index, kind, subject, body, author, epoch, files, planted))
    return History(commits, _fast_import_stream(commits))


def _fast_import_stream(commits: list[PlannedCommit]) -> bytes:
    out: list[bytes] = []
    for commit in commits:
        name, email, tz = commit.author
        text = f"{commit.subject}\n\n{commit.body}" if commit.body else commit.subject
        message = (text + "\n").encode()
        ident = f"{name} <{email}> {commit.epoch} {tz}".encode()
        out += [
            b"commit refs/heads/main\n",
            b"author " + ident + b"\n",
            b"committer " + ident + b"\n",
            b"data %d\n" % len(message),
            message,
        ]
        for path in commit.files:
            blob = f"{path} revision {commit.index}\n".encode()
            out += [f"M 100644 inline {path}\n".encode(), b"data %d\n" % len(blob), blob]
        out.append(b"\n")
    return b"".join(out)


def write_repo(history: History, path: Path, env: dict[str, str]) -> Path:
    """Create a git repository at ``path`` holding the planned history."""
    path.mkdir(parents=True)
    subprocess.run(["git", "init", "-q", "-b", "main", str(path)], check=True, env=env)
    subprocess.run(
        ["git", "fast-import", "--quiet"], cwd=path, input=history.stream, check=True, env=env
    )
    return path
