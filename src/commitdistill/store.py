"""Plain-JSON knowledge store persisted at the repository root.

The file lives at .knowledge/units.json, is written atomically, and has one
canonical byte form (sorted keys, two-space indent, id-sorted units) so that
repeated saves diff clean.
"""
from __future__ import annotations

import gc
import json
import math
import os
import stat
import tempfile
from dataclasses import dataclass, field, replace
from itertools import starmap
from json.encoder import encode_basestring as _string
from operator import itemgetter
from pathlib import Path

UNIT_TYPES = ("fact", "skill", "pattern")
SCHEMA_VERSION = 1
STORE_DIR = ".knowledge"
STORE_FILENAME = "units.json"
UNIT_FIELDS = frozenset({"id", "type", "title", "content", "weight", "context", "meta"})
# What load accepts: (type, then the Python types of weight, id, title,
# content, context and meta).
_UNIT_SHAPES = frozenset(
    (unit_type, weight_type, str, str, str, str, dict)
    for unit_type in UNIT_TYPES
    for weight_type in (int, float)
)
# A stored unit's fields in the order of KnowledgeUnit's.
_unit_fields = itemgetter("id", "type", "title", "content", "weight", "context", "meta")


@dataclass(slots=True)
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
        """The unit as stored, with a copy of its meta; a meta that is not a
        dict is returned as it is, for ``save`` to refuse."""
        return {
            "id": self.id,
            "type": self.unit_type,
            "title": self.title,
            "content": self.content,
            "weight": self.weight,
            "context": self.context,
            "meta": dict(self.meta) if isinstance(self.meta, dict) else self.meta,
        }


@dataclass
class KnowledgeStore:
    units: dict[str, KnowledgeUnit] = field(default_factory=dict)

    def sorted_units(self) -> list[KnowledgeUnit]:
        return [self.units[uid] for uid in sorted(self.units)]

    def counts_by_type(self) -> dict[str, int]:
        counts = {"fact": 0, "skill": 0, "pattern": 0}
        for unit in self.units.values():
            counts[unit.unit_type] = counts.get(unit.unit_type, 0) + 1
        return counts


def store_path(root: Path | str) -> Path:
    return Path(root) / STORE_DIR / STORE_FILENAME


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _file_mode(path: Path) -> int:
    """The mode of the file at ``path``, or 0o666 less the umask for a new one."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def write_canonical(path: Path, payload) -> Path:
    """Atomic canonical-JSON write of ``payload``; see ``_write_atomic``."""
    return _write_atomic(Path(path), canonical_json(payload))


def _write_atomic(path: Path, text: str) -> Path:
    """Write ``text`` to a temp file in place, then rename it over ``path``.

    The file keeps its mode across rewrites; a new one gets the mode that
    ``open`` would give it, not the owner-only mode of a temporary file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = _file_mode(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp_name, mode)
        os.replace(tmp_name, path)
    except OSError:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def _unit_json(unit: KnowledgeUnit, key: str) -> str:
    """One unit, keyed ``key`` in its store, as ``canonical_json`` renders it
    inside the store's list.

    Raises TypeError for a unit this rendering does not cover: one keyed by
    another id than its own, a type that ``load`` refuses, a field that is
    not a str, a weight that is not an int or float that ``load`` reads as
    finite, or a meta that is not a flat str-to-str object.
    """
    weight = unit.weight
    if unit.id != key or unit.unit_type not in UNIT_TYPES or not isinstance(unit.meta, dict) or (
        type(weight) not in (int, float) or not _finite(weight)
    ):
        raise TypeError("the unit needs the json encoder and a check")
    if unit.meta:
        meta = "{\n" + ",\n".join(
            f"        {_string(key)}: {_string(value)}" for key, value in sorted(unit.meta.items())
        ) + "\n      }"
    else:
        meta = "{}"
    return (
        "    {\n"
        f"      \"content\": {_string(unit.content)},\n"
        f"      \"context\": {_string(unit.context)},\n"
        f"      \"id\": {_string(unit.id)},\n"
        f"      \"meta\": {meta},\n"
        f"      \"title\": {_string(unit.title)},\n"
        f"      \"type\": {_string(unit.unit_type)},\n"
        f"      \"weight\": {weight!r}\n"
        "    }"
    )


def save(store: KnowledgeStore, root: Path | str) -> Path:
    """Write the store in its canonical form, atomically.

    The units are rendered here, not by ``canonical_json``, whose indenting
    encoder runs in pure Python; the bytes are the same. An empty store, and
    a store with a unit that ``_unit_json`` does not cover, go through
    ``canonical_json``, after a check that ``load`` accepts every unit: one
    it refuses, or one not keyed by its own id, raises a ValueError, and
    nothing is written.
    """
    path = store_path(root)
    keys = sorted(store.units)
    units = [store.units[key] for key in keys]
    try:
        rendered = ",\n".join(map(_unit_json, units, keys))
    except TypeError:
        rendered = ""
    if rendered:
        text = f'{{\n  "schema_version": {SCHEMA_VERSION},\n  "units": [\n{rendered}\n  ]\n}}\n'
    else:
        entries = [unit.to_dict() for unit in units]
        for position, (key, entry) in enumerate(zip(keys, entries)):
            if problem := _unit_problem(entry) or (key != entry["id"] and f"is keyed {key!r}, not by its id"):
                raise ValueError(f"knowledge store {path}: unit {position} {problem}; refusing to write it")
        text = canonical_json({"schema_version": SCHEMA_VERSION, "units": entries})
    return _write_atomic(path, text)


def _finite(weight: int | float) -> bool:
    """True for a weight that scores as a finite float; json reads NaN and Infinity."""
    try:
        return math.isfinite(weight)
    except OverflowError:  # an integer beyond the float range
        return False


def _unit_problem(entry) -> str | None:
    """What makes one stored unit unreadable, or None if nothing does."""
    if not isinstance(entry, dict):
        return "is not a JSON object"
    if not UNIT_FIELDS <= entry.keys():
        return "lacks " + ", ".join(sorted(UNIT_FIELDS - entry.keys()))
    if entry["type"] not in UNIT_TYPES:
        return f"has unknown type {entry['type']!r}"
    if type(entry["weight"]) not in (int, float):  # JSON true/false load as bool
        return "has a non-numeric weight"
    if not _finite(entry["weight"]):
        return "has a non-finite weight"
    for name in ("id", "title", "content", "context"):
        if type(entry[name]) is not str:
            return f"has a non-string {name}"
    if not isinstance(entry["meta"], dict):
        return "has a non-object meta"
    return None


def load(root: Path | str) -> KnowledgeStore:
    """The store under ``root``; a missing, unreadable or malformed store
    raises a FileNotFoundError or ValueError naming the file.

    The cyclic garbage collector is paused while the file is parsed and its
    units built: parsed JSON holds no cycles, so a collection would only walk
    the growing store and free nothing.
    """
    path = store_path(root)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _load(path)
    finally:
        if enabled:
            gc.enable()


def _load(path: Path) -> KnowledgeStore:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no knowledge store at {path}; run the extract command first"
        ) from None
    # JSONDecodeError, UnicodeDecodeError, an over-long int; nesting deeper
    # than the recursion limit
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"knowledge store {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"knowledge store {path} must hold a JSON object")
    version = payload.get("schema_version")
    # type(): True and 1.0 compare equal to 1 but are not the integer 1
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(
            f"knowledge store {path} has schema_version {version!r}; "
            f"this version reads {SCHEMA_VERSION}"
        )
    entries = payload.get("units")
    if not isinstance(entries, list):
        raise ValueError(f"knowledge store {path} has no units list")
    # One pass over the list decides; a unit is only diagnosed on failure.
    try:
        rows = list(map(_unit_fields, entries))
        shapes = {
            (unit_type, type(weight), type(uid), type(title), type(content), type(context), type(meta))
            for uid, unit_type, title, content, weight, context, meta in rows
        }
    except (TypeError, KeyError):  # not an object, a missing field, an unhashable type
        shapes = None
    if (
        shapes is None
        or not shapes <= _UNIT_SHAPES
        or not all(map(_finite, {row[4] for row in rows}))
    ):
        position, problem = next(
            (position, problem)
            for position, entry in enumerate(entries)
            if (problem := _unit_problem(entry))
        )
        raise ValueError(f"knowledge store {path}: unit {position} {problem}")
    store = KnowledgeStore({unit.id: unit for unit in starmap(KnowledgeUnit, rows)})
    if len(store.units) < len(rows):  # an id repeats: name the first repeat
        first: dict[str, int] = {}
        for position, (uid, *_) in enumerate(rows):
            earlier = first.setdefault(uid, position)
            if earlier != position:
                raise ValueError(
                    f"knowledge store {path}: unit {position} repeats the id {uid!r} of unit {earlier}"
                )
    return store


def merge(existing: KnowledgeStore, incoming) -> KnowledgeStore:
    """Union by id; on collision the existing unit (and its meta) wins."""
    merged = KnowledgeStore(dict(existing.units))
    for unit in incoming:
        merged.units.setdefault(unit.id, unit)
    return merged


def strip_attribution(store: KnowledgeStore) -> KnowledgeStore:
    """Replace author fields with "redacted"; shas and ids stay put."""
    scrubbed = KnowledgeStore()
    for uid, unit in store.units.items():
        meta = dict(unit.meta)
        if "author" in meta:
            meta["author"] = "redacted"
        scrubbed.units[uid] = replace(unit, meta=meta)
    return scrubbed
