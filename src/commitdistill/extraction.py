"""Turn commit text into typed, deduplicated knowledge units.

Nine case-insensitive heuristic rules drive extraction; each carries a unit
type and a prior weight in [0.65, 0.95]. Candidates pass length and stop
filters, Pattern candidates additionally pass a substantive filter, and a
low-prior subject fallback unit (0.40) can stand in for commits on which
every rule stays silent.
"""
from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from . import gitio
from .gitio import Commit

MIN_CONTENT_LEN = 12
MAX_CONTENT_LEN = 300
RESOLUTION_TAIL_CAP = 140
FALLBACK_CONTENT_CAP = 280
FALLBACK_PRIOR = 0.40
TITLE_CAP = 60

UNIT_TYPES = ("fact", "skill", "pattern")

_WS_RE = re.compile(r"\s+")
# A fence runs to the next fence or, left open, to the end of the text.
_FENCE_RE = re.compile(r"```.*?(?:```|\Z)", re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")
_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^<>\n]*>")
_HSPACE_RE = re.compile(r"[ \t\r\f\v]+")
_NEWLINE_RUN_RE = re.compile(r" ?\n\s*")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")
_TOKEN_RE = re.compile(r"[a-z0-9'#-]+")
_NAMED_FAILURE_RE = re.compile(r"\b[A-Z]\w+(?:Error|Exception|Failure)\b")
_ISSUE_TOKEN_RE = re.compile(r"#?\d+|gh-\d+", re.IGNORECASE)
_PUNCT_STRIP = "()[]{}<>.,;:!?\"'"

FAILURE_TERMS = (
    "deadlock",
    "race condition",
    "infinite loop",
    "nullpointerexception",
    "timeouterror",
)

RESOLUTION_CUES = ("fix:", "fixed by", "workaround", "caused by", "solution")

STOP_PHRASES = frozenset(
    {
        "see above",
        "see below",
        "as described",
        "this should be it",
        "more info",
        "todo",
        "tbd",
        "wip",
    }
)

STOP_WORDS = frozenset(
    """
    a about above after again all also an and any are as at be because been
    being below between both but by can cannot could did do does done down
    during each few for from further had has have having he her here hers him
    his how i if in into is it its itself just me might more most must my no
    nor not now of off on once only or other our ours out over own same shall
    she should so some such than that the their theirs them then there these
    they this those through to too under until up upon very was we were what
    when where which while who whom why will with would you your yours
    """.split()
)


@dataclass(frozen=True)
class HeuristicRule:
    """(type, regex, prior weight) triple; the regex has one capture group.

    ``triggers`` are lowercase literals of which at least one must appear in
    the text before the regex is attempted. They are a scan shortcut only
    and never change what matches.
    """

    name: str
    unit_type: str
    pattern: re.Pattern[str]
    prior: float
    triggers: tuple[str, ...]


@dataclass
class KnowledgeUnit:
    """A typed, provenance-carrying span distilled from a commit message."""

    id: str
    unit_type: str
    title: str
    content: str
    weight: float
    context: str
    meta: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "type": self.unit_type,
            "title": self.title,
            "content": self.content,
            "weight": self.weight,
            "context": self.context,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KnowledgeUnit":
        return cls(
            id=payload["id"],
            unit_type=payload["type"],
            title=payload["title"],
            content=payload["content"],
            weight=payload["weight"],
            context=payload["context"],
            meta=dict(payload["meta"]),
        )


# A capture span runs sentence-start to sentence-end; the colon terminates
# spans the same way the sentence splitter treats it. The zero-width
# sentence-start check keeps failed scan positions O(1) instead of
# re-consuming the rest of the sentence at every offset.
_SPAN = r"[^\n.!?:]"
_SENT_START = r"(?:^|(?<=[.!?:]))\s*"

# Per span kind, the regex text before and after a rule's keyword regex.
_SPAN_TEMPLATES = {
    # the whole sentence holding the keyword
    "sentence": (rf"({_SENT_START}{_SPAN}*", rf"{_SPAN}*[.!?]?)"),
    # the rest of the sentence after "keyword:"
    "after": ("", rf"\s*:\s*({_SPAN}+[.!?]?)"),
    # the keyword and the rest of its sentence
    "from": ("(", rf"{_SPAN}*[.!?]?)"),
    # a kernel-style "fix"/"bug" subject line, which keeps its marker so
    # issue-only subjects stay visible to the substantive filter, or the
    # sentence holding the keyword
    "subject": (
        rf"((?:^[ \t]*(?:fix(?:es|ed)?(?![ \t]+by\b)|bug)\b[^\n.!?]*|{_SENT_START}{_SPAN}*",
        rf"{_SPAN}*)[.!?]?)",
    ),
}


def _rule(
    name: str, unit_type: str, prior: float, triggers: tuple[str, ...], keyword: str, span: str
) -> HeuristicRule:
    head, tail = _SPAN_TEMPLATES[span]
    pattern = re.compile(head + keyword + tail, re.IGNORECASE | re.MULTILINE)
    return HeuristicRule(name, unit_type, pattern, prior, triggers)


DEFAULT_RULES: tuple[HeuristicRule, ...] = tuple(
    _rule(*row)
    for row in (
        ("fact-constraint", "fact", 0.75, ("must", "require", "should", "cannot", "always", "never"),
         r"\b(?:must|requires?|should|cannot|always|never)\b", "sentence"),
        ("fact-annotation", "fact", 0.85, ("note", "important", "warning"),
         r"\b(?:note|important|warning)", "after"),
        ("fact-equivalence", "fact", 0.65, ("equivalent", "same", "alias"),
         r"\b(?:is|are)\s+(?:equivalent\s+to|the\s+same\s+as|an\s+alias\s+for)\b", "sentence"),
        ("skill-resolution", "skill", 0.95, ("fix", "solution", "workaround"),
         r"\b(?:fix(?:ed)?\s+by|solution|workaround)", "after"),
        ("skill-recommendation", "skill", 0.85, ("recommend", "best"),
         r"\b(?:recommend(?:ed)?|best\s+practice)", "after"),
        ("skill-instructional", "skill", 0.70, ("avoid", "prevent", "enable", "disable"),
         r"\bto\s+(?:avoid|prevent|enable|disable)\b", "from"),
        ("pattern-causal", "pattern", 0.80, ("occurs", "happens"),
         r"\b(?:occurs|happens)\s+when\b", "sentence"),
        ("pattern-exception", "pattern", 0.90,
         ("error", "exception", "failure", "deadlock", "race", "infinite"),
         r"(?:(?-i:\b[A-Z]\w+(?:Error|Exception|Failure)\b)|\b(?:deadlock|race\s+condition|infinite\s+loop)\b)",
         "sentence"),
        ("pattern-regression", "pattern", 0.75, ("fix", "bug", "regression", "broke", "break"),
         r"\b(?:regression|broke|breaks|broken)\s+(?:in|since|after|when)\b", "subject"),
    )
)


def normalize(text: str) -> str:
    """Strip code fences, inline code, and HTML tags; collapse whitespace.

    Line breaks survive as single newlines so subject-line rules can anchor.
    """
    text = _FENCE_RE.sub(" ", text)
    text = _INLINE_CODE_RE.sub(" ", text)
    text = text.replace("`", " ")
    text = _HTML_TAG_RE.sub(" ", text)
    text = _HSPACE_RE.sub(" ", text)
    text = _NEWLINE_RUN_RE.sub("\n", text)
    return text.strip()


def unit_id(unit_type: str, content: str) -> str:
    """First 12 hex chars of SHA-1 over "type::content", content canonicalized."""
    canonical = _WS_RE.sub(" ", content.lower()).strip()
    return hashlib.sha1(f"{unit_type}::{canonical}".encode("utf-8")).hexdigest()[:12]


def is_stop(content: str) -> bool:
    """True when content is boilerplate or consists solely of stop words."""
    normalized = _WS_RE.sub(" ", content.lower()).strip().strip(".!?:,;")
    if normalized in STOP_PHRASES:
        return True
    tokens = _TOKEN_RE.findall(normalized)
    return bool(tokens) and all(token in STOP_WORDS for token in tokens)


def truncate_at_word(text: str, limit: int) -> str:
    """Longest prefix of at most ``limit`` chars ending on a word boundary."""
    if len(text) <= limit:
        return text
    cut = text[: limit + 1]
    space = cut.rfind(" ")
    if space > 0:
        return cut[:space].rstrip()
    return text[:limit]


def _make_title(content: str) -> str:
    return truncate_at_word(content, TITLE_CAP)


def first_sentence(text: str) -> str:
    """First sentence of ``text``; '.', '!', '?' before whitespace end it."""
    stripped = text.strip()
    match = _SENTENCE_END_RE.search(stripped)
    if match:
        return stripped[: match.start() + 1]
    return stripped


def _sentence_after(text: str, position: int) -> str:
    return first_sentence(text[position:])


def capture_resolution_tail(matched_sentence: str, next_sentence: str) -> str:
    """Append a resolution-cue follow-up sentence, capped at 140 chars."""
    follow = next_sentence.strip()
    if not follow or not follow.lower().startswith(RESOLUTION_CUES):
        return matched_sentence
    combined = f"{matched_sentence} {follow}"
    if len(combined) <= RESOLUTION_TAIL_CAP:
        return combined
    return truncate_at_word(combined, RESOLUTION_TAIL_CAP)


def is_substantive_pattern(content: str) -> bool:
    """Reject Pattern candidates that carry no failure substance.

    Named-failure identifiers and whitelisted failure terms are substantive
    on their own; otherwise the candidate needs at least three content words
    and must not be dominated by issue/PR references.
    """
    if _NAMED_FAILURE_RE.search(content):
        return True
    lowered = content.lower()
    if any(term in lowered for term in FAILURE_TERMS):
        return True
    tokens = [t.strip(_PUNCT_STRIP) for t in content.split()]
    tokens = [t for t in tokens if t]
    if not tokens:
        return False
    issue_refs = sum(1 for t in tokens if _ISSUE_TOKEN_RE.fullmatch(t))
    if issue_refs * 2 > len(tokens):
        return False
    content_words = [
        t
        for t in tokens
        if any(ch.isalpha() for ch in t)
        and not _ISSUE_TOKEN_RE.fullmatch(t)
        and t.lower() not in STOP_WORDS
    ]
    return len(content_words) >= 3


def extract_units(
    text: str,
    meta: dict[str, str],
    rules: tuple[HeuristicRule, ...] = DEFAULT_RULES,
) -> list[KnowledgeUnit]:
    """Run every rule over normalized text; dedupe by id, keep rule order."""
    if not rules:
        raise ValueError("rules must be nonempty")
    normalized = normalize(text)
    if not normalized:
        return []
    lowered = normalized.lower()
    units: list[KnowledgeUnit] = []
    seen: set[str] = set()
    for rule in rules:
        if not any(trigger in lowered for trigger in rule.triggers):
            continue
        for match in rule.pattern.finditer(normalized):
            content = match.group(1).strip()
            if rule.unit_type == "pattern":
                content = capture_resolution_tail(
                    content, _sentence_after(normalized, match.end())
                )
            if not MIN_CONTENT_LEN <= len(content) <= MAX_CONTENT_LEN:
                continue
            if is_stop(content):
                continue
            if rule.unit_type == "pattern" and not is_substantive_pattern(content):
                continue
            uid = unit_id(rule.unit_type, content)
            if uid in seen:
                continue
            seen.add(uid)
            units.append(
                KnowledgeUnit(
                    id=uid,
                    unit_type=rule.unit_type,
                    title=_make_title(content),
                    content=content,
                    weight=rule.prior,
                    context=match.group(0).strip(),
                    meta=dict(meta),
                )
            )
    return units


def commit_meta(commit: Commit) -> dict[str, str]:
    return {
        "commit": commit.short_sha,
        "author": commit.author,
        "date": commit.author_date,
        "source": "commit",
    }


def subject_fallback_unit(commit: Commit) -> KnowledgeUnit | None:
    """Low-prior pattern unit built from the cleaned subject.

    Only meaningful on commits where the regex pass produced nothing; callers
    enforce that precondition. Merge/release/bot subjects and contents that
    stay under the minimum unit length yield None.
    """
    if gitio.is_bot_release_or_merge_subject(commit.subject):
        return None
    cleaned = gitio.clean_subject(commit.subject)
    if not cleaned:
        return None
    content = cleaned
    body = normalize(commit.body)
    lead = first_sentence(body) if body else ""
    if lead:
        content = f"{cleaned.rstrip('.')}. {lead}"
    content = truncate_at_word(content, FALLBACK_CONTENT_CAP)
    if len(content) < MIN_CONTENT_LEN:
        return None
    return KnowledgeUnit(
        id=unit_id("pattern", content),
        unit_type="pattern",
        title=_make_title(content),
        content=content,
        weight=FALLBACK_PRIOR,
        context=commit.subject,
        meta=commit_meta(commit),
    )


def extract_commit_units(commit: Commit, fallback_enabled: bool = True) -> list[KnowledgeUnit]:
    """Units for one commit; the fallback fires only when the rules are silent."""
    units = extract_units(commit.message, commit_meta(commit))
    if not units and fallback_enabled:
        fallback = subject_fallback_unit(commit)
        if fallback is not None:
            units = [fallback]
    return units


def extract_commits(commits: list[Commit], fallback_enabled: bool = True) -> list[KnowledgeUnit]:
    """Union of per-commit units, deduplicated by id, sorted by id."""
    by_id: dict[str, KnowledgeUnit] = {}
    for commit in commits:
        for unit in extract_commit_units(commit, fallback_enabled):
            by_id.setdefault(unit.id, unit)
    return sorted(by_id.values(), key=lambda unit: unit.id)


def extract_repository(
    repo_path, max_count: int = 5000, fallback_enabled: bool = True
) -> list[KnowledgeUnit]:
    commits = gitio.list_commits(repo_path, max_count)
    return extract_commits(commits, fallback_enabled)
