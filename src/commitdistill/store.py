"""Plain-JSON knowledge store persisted at the repository root.

The file lives at .knowledge/units.json, is written atomically, and has one
canonical byte form (sorted keys, two-space indent, id-sorted units) so that
repeated saves diff clean.
"""
from __future__ import annotations

import json
import os
import stat
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from .extraction import KnowledgeUnit

SCHEMA_VERSION = 1
STORE_DIR = ".knowledge"
STORE_FILENAME = "units.json"
UNIT_FIELDS = frozenset({"id", "type", "title", "content", "weight", "context", "meta"})


@dataclass
class KnowledgeStore:
    units: dict[str, KnowledgeUnit] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def sorted_units(self) -> list[KnowledgeUnit]:
        return [self.units[uid] for uid in sorted(self.units)]

    def counts_by_type(self) -> dict[str, int]:
        counts = {"fact": 0, "skill": 0, "pattern": 0}
        for unit in self.units.values():
            counts[unit.unit_type] = counts.get(unit.unit_type, 0) + 1
        return counts


def from_units(units) -> KnowledgeStore:
    store = KnowledgeStore()
    for unit in units:
        store.units.setdefault(unit.id, unit)
    return store


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
    """Atomic canonical-JSON write (temp file in place, then rename).

    The file keeps its mode across rewrites; a new one gets the mode that
    ``open`` would give it, not the owner-only mode of a temporary file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = _file_mode(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(canonical_json(payload))
        os.chmod(tmp_name, mode)
        os.replace(tmp_name, path)
    except OSError:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def save(store: KnowledgeStore, root: Path | str) -> Path:
    payload = {
        "schema_version": store.schema_version,
        "units": [unit.to_dict() for unit in store.sorted_units()],
    }
    return write_canonical(store_path(root), payload)


def load(root: Path | str) -> KnowledgeStore:
    path = store_path(root)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no knowledge store at {path}; run the extract command first"
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"knowledge store {path} is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"knowledge store {path} must hold a JSON object")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"knowledge store {path} has schema_version {version!r}; "
            f"this version reads {SCHEMA_VERSION}"
        )
    entries = payload.get("units")
    if not isinstance(entries, list):
        raise ValueError(f"knowledge store {path} has no units list")
    store = KnowledgeStore(schema_version=version)
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"knowledge store {path}: unit {position} is not a JSON object")
        if not UNIT_FIELDS <= entry.keys():
            missing = ", ".join(sorted(UNIT_FIELDS - entry.keys()))
            raise ValueError(f"knowledge store {path}: unit {position} lacks {missing}")
        unit = KnowledgeUnit.from_dict(entry)
        store.units[unit.id] = unit
    return store


def merge(existing: KnowledgeStore, incoming) -> KnowledgeStore:
    """Union by id; on collision the existing unit (and its meta) wins."""
    merged = KnowledgeStore(dict(existing.units), existing.schema_version)
    for unit in incoming:
        merged.units.setdefault(unit.id, unit)
    return merged


def strip_attribution(store: KnowledgeStore) -> KnowledgeStore:
    """Replace author fields with "redacted"; shas and ids stay put."""
    scrubbed = KnowledgeStore(schema_version=store.schema_version)
    for uid, unit in store.units.items():
        meta = dict(unit.meta)
        if "author" in meta:
            meta["author"] = "redacted"
        scrubbed.units[uid] = KnowledgeUnit(
            id=unit.id,
            unit_type=unit.unit_type,
            title=unit.title,
            content=unit.content,
            weight=unit.weight,
            context=unit.context,
            meta=meta,
        )
    return scrubbed
