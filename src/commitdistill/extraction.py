"""Turn commit text into typed, deduplicated knowledge units.

Nine case-insensitive heuristic rules drive extraction; each carries a unit
type and a prior weight in [0.65, 0.95]. A message is swept once for the
rules' trigger words and split into sentences once; each rule that can fire
maps its keyword hits to their sentences. Candidates pass length and stop
filters, Pattern candidates additionally pass a substantive filter, and a
low-prior subject fallback unit (0.40) can stand in for commits on which
every rule stays silent.
"""
from __future__ import annotations

import hashlib
import re
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice

from . import gitio
from .gitio import Commit
from .store import KnowledgeUnit

MIN_CONTENT_LEN = 12
MAX_CONTENT_LEN = 300
RESOLUTION_TAIL_CAP = 140
FALLBACK_CONTENT_CAP = 280
FALLBACK_PRIOR = 0.40
TITLE_CAP = 60
# Commits per extract_commits batch: few, so that a streamed log's first
# batch is extracted while git still lists the rest.
_BATCH_SIZE = 64

# A fence runs to the next fence or, left open, to the end of the text.
_FENCE_RE = re.compile(r"```.*?(?:```|\Z)", re.DOTALL)
_INLINE_CODE_RE = re.compile(r"`[^`\n]*`")
_HTML_TAG_RE = re.compile(r"</?[A-Za-z][^<>\n]*>")
# Horizontal-space runs other than a single space, each to become one space.
_HSPACE_RE = re.compile(r"[\t\r\f\v][ \t\r\f\v]*| [ \t\r\f\v]+")
_NEWLINE_RUN_RE = re.compile(r"\n\s*")
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


@dataclass(frozen=True, eq=False)
class HeuristicRule:
    """A unit type and prior weight, and how the rule finds its spans.

    ``keyword`` is the regex whose hits the rule is built around; ``span``
    names how a hit becomes a span (see ``_SPAN_KINDS``). ``triggers`` are
    lowercase literals of which at least one must appear in the lowered text
    before the keyword regex is run; they are a scan shortcut only and never
    change what matches, since a text holding one of ``_FOLDS_ONTO_ASCII``
    skips the shortcut. Rules compare and hash by identity, which keeps the
    per-rules cache of distinct triggers cheap to look up.
    """

    name: str
    unit_type: str
    prior: float
    triggers: tuple[str, ...]
    keyword: re.Pattern[str]
    span: str


# Sentences end at these characters, found once per message. A span ends at
# the first one after its keyword, so a keyword that runs over a line break
# carries its span onto the next line.
_BOUNDARY_RE = re.compile(r"[\n.!?:]")
# The text after "keyword:": the rest of the sentence after the colon.
_COLON_TAIL_RE = re.compile(r"\s*:\s*([^\n.!?:]+[.!?]?)")
# A kernel-style "fix"/"bug" subject line, colons included.
_SUBJECT_LINE_RE = re.compile(
    r"^[ \t]*(?:fix(?:es|ed)?(?![ \t]+by\b)|bug)\b[^\n.!?]*[.!?]?", re.IGNORECASE | re.MULTILINE
)


def _span_end(text: str, bounds: list[int], position: int) -> int:
    """End of the sentence running through ``position``, with its closing [.!?]."""
    i = bisect_left(bounds, position)
    if i == len(bounds):
        return len(text)
    stop = bounds[i]
    return stop + 1 if text[stop] in ".!?" else stop


def _sentences(text: str, bounds: list[int], hits):
    """(start, end) of each sentence holding a hit, in order; the end is the
    first boundary after the sentence's last hit, with its closing [.!?]."""
    current = last_stop = None
    for hit_start, hit_stop in hits:
        i = bisect_left(bounds, hit_start)
        if i != current:
            if current is not None:
                yield sentence_start, _span_end(text, bounds, last_stop)
            current = i
            sentence_start = bounds[i - 1] + 1 if i else 0
        last_stop = hit_stop
    if current is not None:
        yield sentence_start, _span_end(text, bounds, last_stop)


def _sentence_spans(text: str, bounds: list[int], hits):
    """The whole sentence holding the keyword."""
    end = 0
    for start, stop in _sentences(text, bounds, hits):
        if start >= end:
            end = stop
            yield start, start, stop


def _after_spans(text: str, bounds: list[int], hits):
    """The rest of the sentence after "keyword:"."""
    end = 0
    for start, stop in hits:
        if start >= end and (tail := _COLON_TAIL_RE.match(text, stop)):
            end = tail.end()
            yield tail.start(1), start, end


def _from_spans(text: str, bounds: list[int], hits):
    """The keyword and the rest of its sentence."""
    end = 0
    for start, stop in hits:
        if start >= end:
            end = _span_end(text, bounds, stop)
            yield start, start, end


def _clause_starts_earlier(text: str, line_start: int, floor: int) -> bool:
    """True when the sentence opening the line at ``line_start`` can start
    earlier, but not before ``floor``: at a sentence start (after "\\n", ".",
    "!", "?" or ":") with only whitespace between it and the line, as after a
    line that ends in a full stop."""
    position = line_start - 1
    while position >= floor:
        if position == 0 or text[position - 1] in "\n.!?:":
            return True
        if not text[position - 1].isspace():
            return False
        position -= 1
    return False


def _subject_spans(text: str, bounds: list[int], hits):
    """A kernel-style "fix"/"bug" subject line, which keeps its marker so
    issue-only subjects stay visible to the substantive filter, or the
    sentence holding the keyword, whichever starts first; a line and the
    sentence opening it start together unless the sentence can start earlier."""
    lines = {match.start(): match.end() for match in _SUBJECT_LINE_RE.finditer(text)}
    clauses = dict(_sentences(text, bounds, hits))
    end = 0
    for start in sorted(lines.keys() | clauses.keys()):
        if start < end:
            continue
        if start in lines and not (start in clauses and _clause_starts_earlier(text, start, end)):
            end = lines[start]
        else:
            end = clauses[start]
        yield start, start, end


# Per span kind: (text, sentence boundaries, keyword hits) -> (capture, start,
# end) of each span, in order and never overlapping; a unit's content is
# text[capture:end] and its context text[start:end], both stripped.
_SPAN_KINDS = {
    "sentence": _sentence_spans,
    "after": _after_spans,
    "from": _from_spans,
    "subject": _subject_spans,
}


def _rule(
    name: str, unit_type: str, prior: float, triggers: tuple[str, ...], keyword: str, span: str
) -> HeuristicRule:
    return HeuristicRule(name, unit_type, prior, triggers, re.compile(keyword, re.IGNORECASE), span)


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
        # A named failure is found by its suffix; see _keyword_hits.
        ("pattern-exception", "pattern", 0.90,
         ("error", "exception", "failure", "deadlock", "race", "infinite"),
         r"(?-i:(?P<suffix>Error|Exception|Failure)\b)|\b(?:deadlock|race\s+condition|infinite\s+loop)\b",
         "sentence"),
        ("pattern-regression", "pattern", 0.75, ("fix", "bug", "regression", "broke", "break"),
         r"\b(?:regression|broke|breaks|broken)\s+(?:in|since|after|when)\b", "subject"),
    )
)


# The characters that re.IGNORECASE matches against ASCII letters but
# str.lower does not lower onto them: İ and ı against "i", ſ against "s" and
# the Kelvin sign against "k". A message holding one runs every rule.
_FOLDS_ONTO_ASCII = ("\u0130", "\u0131", "\u017f", "\u212a")


@lru_cache(maxsize=64)
def _trigger_masks(rules: tuple[HeuristicRule, ...]) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Each distinct trigger of ``rules`` with a mask of the rules it opens,
    bit i for ``rules[i]``; and each of ``_FOLDS_ONTO_ASCII`` with a mask of
    every rule."""
    masks: dict[str, int] = {}
    for bit, rule in enumerate(rules):
        for trigger in rule.triggers:
            masks[trigger] = masks.get(trigger, 0) | 1 << bit
    every = (1 << len(rules)) - 1
    return tuple(masks.items()), tuple((fold, every) for fold in _FOLDS_ONTO_ASCII)


@lru_cache(maxsize=1024)
def _rules_of(rules: tuple[HeuristicRule, ...], mask: int) -> tuple[HeuristicRule, ...]:
    return tuple(rule for bit, rule in enumerate(rules) if mask >> bit & 1)


def _holders(texts: list[str], needles) -> list[int]:
    """Per text, the OR of the masks of the ``(needle, mask)`` pairs whose
    needle it holds. One str.find sweep per needle runs over the texts
    joined by a newline, which no needle holds, and a hit skips the rest of
    its text."""
    joined = "\n".join(texts)
    ends = list(accumulate(len(text) + 1 for text in texts))
    found = [0] * len(texts)
    for needle, mask in needles:
        at = joined.find(needle)
        while at >= 0:
            i = bisect_right(ends, at)
            found[i] |= mask
            at = joined.find(needle, ends[i])
    return found


def _rules_to_run(texts: list[str], rules: tuple[HeuristicRule, ...]) -> list[tuple[HeuristicRule, ...]]:
    """Per normalized text, the rules with a trigger in its lowered text, in
    rule order; every rule for a text holding one of ``_FOLDS_ONTO_ASCII``,
    since its keywords can match where no trigger is found."""
    triggers, folds = _trigger_masks(rules)
    masks = _holders([text.lower() for text in texts], triggers)
    return [_rules_of(rules, mask | fold) for mask, fold in zip(masks, _holders(texts, folds))]


def _keyword_hits(rule: HeuristicRule, text: str):
    """(start, end) of each keyword hit, in order.

    A hit on the ``suffix`` group ends a word; it counts only when the whole
    word is a named failure (``_NAMED_FAILURE_RE``), and it starts where the
    word does.
    """
    for match in rule.keyword.finditer(text):
        start, stop = match.span()
        if match.lastgroup == "suffix":
            while start and (text[start - 1].isalnum() or text[start - 1] == "_"):
                start -= 1
            if not _NAMED_FAILURE_RE.match(text, start):
                continue
        yield start, stop


def normalize(text: str) -> str:
    """Strip code fences, inline code, and HTML tags; collapse whitespace.

    Line breaks survive as single newlines so subject-line rules can anchor.
    A pass runs only when the text holds what it would change.
    """
    if "`" in text:
        text = _FENCE_RE.sub(" ", text)
        text = _INLINE_CODE_RE.sub(" ", text)
        text = text.replace("`", " ")
    if "<" in text:
        text = _HTML_TAG_RE.sub(" ", text)
    if "  " in text or "\t" in text or "\r" in text or "\f" in text or "\v" in text:
        text = _HSPACE_RE.sub(" ", text)
    if "\n" in text:
        # A run of line breaks and the whitespace after it, and the one space
        # before it, become one line break.
        text = _NEWLINE_RUN_RE.sub("\n", text).replace(" \n", "\n")
    return text.strip()


def unit_id(unit_type: str, content: str) -> str:
    """First 12 hex chars of SHA-1 over "type::content", content canonicalized."""
    canonical = " ".join(content.lower().split())
    return hashlib.sha1(f"{unit_type}::{canonical}".encode("utf-8")).hexdigest()[:12]


def is_stop(content: str) -> bool:
    """True when content is boilerplate or consists solely of stop words."""
    normalized = " ".join(content.lower().split()).strip(".!?:,;")
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
    """Run the rules over normalized text; dedupe by id, keep rule order.

    Only the rules with a trigger in the text run (see ``_rules_to_run``),
    over sentence boundaries found once.
    """
    if not rules:
        raise ValueError("rules must be nonempty")
    normalized = normalize(text)
    return _units(normalized, meta, _rules_to_run([normalized], rules)[0])


def _units(
    normalized: str, meta: dict[str, str], rules: tuple[HeuristicRule, ...]
) -> list[KnowledgeUnit]:
    """The units of ``rules`` over normalized text, deduplicated by id, in rule order."""
    if not rules:
        return []
    bounds = [match.start() for match in _BOUNDARY_RE.finditer(normalized)]
    units: list[KnowledgeUnit] = []
    seen: set[str] = set()
    for rule in rules:
        hits = _keyword_hits(rule, normalized)
        for capture, start, end in _SPAN_KINDS[rule.span](normalized, bounds, hits):
            content = normalized[capture:end].strip()
            if rule.unit_type == "pattern":
                content = capture_resolution_tail(content, _sentence_after(normalized, end))
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
                    context=normalized[start:end].strip(),
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


def _normalized_body(commit: Commit, normalized: str) -> str:
    """``normalize(commit.body)``, cut from ``normalized``, the normalized
    message, where the cut is exact: after its first line break, when the
    subject holds no line break, no `` ` `` (a fence opened there runs on
    into the body) and no ``<`` (a subject of tags normalizes to nothing),
    and is not blank."""
    subject = commit.subject
    if "\n" in subject or "`" in subject or "<" in subject or not subject.strip():
        return normalize(commit.body)
    return normalized.partition("\n")[2]


def _fallback_unit(commit: Commit, meta: dict[str, str], normalized: str) -> KnowledgeUnit | None:
    """Low-prior pattern unit from the cleaned subject and the body's lead
    sentence; None for merge/release/bot subjects and for contents that stay
    under the minimum unit length."""
    if gitio.is_bot_release_or_merge_subject(commit.subject):
        return None
    cleaned = gitio.clean_subject(commit.subject)
    if not cleaned:
        return None
    content = cleaned
    body = _normalized_body(commit, normalized)
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
        meta=meta,
    )


def commit_units(commits: Sequence[Commit], fallback_enabled: bool) -> list[tuple[list[KnowledgeUnit], bool]]:
    """Per commit, its units and whether they are its fallback: its rule
    units, or, when they are none and the fallback is enabled, its fallback
    unit if it has one, and True. Each message is normalized once, one sweep
    over the batch finds the rules each can fire (``_rules_to_run``), and a
    fallback takes its body from the normalized message."""
    texts = [normalize(commit.message) for commit in commits]
    batch: list[tuple[list[KnowledgeUnit], bool]] = []
    for commit, text, rules in zip(commits, texts, _rules_to_run(texts, DEFAULT_RULES)):
        meta = commit_meta(commit)
        units = _units(text, meta, rules)
        fallback = fallback_enabled and not units
        if fallback and (unit := _fallback_unit(commit, meta, text)):
            units = [unit]
        batch.append((units, fallback))
    return batch


def extract_commits(commits: Iterable[Commit], fallback_enabled: bool = True) -> list[KnowledgeUnit]:
    """Union of the units ``commit_units`` gives each commit, fallbacks or
    not, deduplicated by id, sorted by id. The commits are extracted
    ``_BATCH_SIZE`` at a time as they arrive, so a ``gitio.CommitLog`` is
    extracted while git lists later commits."""
    by_id: dict[str, KnowledgeUnit] = {}
    commits = iter(commits)
    while batch := list(islice(commits, _BATCH_SIZE)):
        for unit in chain.from_iterable(units for units, _ in commit_units(batch, fallback_enabled)):
            by_id.setdefault(unit.id, unit)
    return sorted(by_id.values(), key=lambda unit: unit.id)


def extract_repository(
    repo_path, max_count: int = 5000, fallback_enabled: bool = True
) -> list[KnowledgeUnit]:
    with gitio.CommitLog(repo_path, max_count) as commits:
        return extract_commits(commits, fallback_enabled)
