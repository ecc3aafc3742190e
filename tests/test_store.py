from __future__ import annotations

import gc
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from commitdistill import extraction, retrieval, store
from commitdistill.extraction import KnowledgeUnit, unit_id

from oracles import load_oracle, store_bytes_oracle


def make_unit(content: str, unit_type: str = "fact", weight: float = 0.75,
              commit: str = "0123abcd", author: str = "Dev One") -> KnowledgeUnit:
    return KnowledgeUnit(
        id=unit_id(unit_type, content),
        unit_type=unit_type,
        title=content[:60],
        content=content,
        weight=weight,
        context=content,
        meta={"commit": commit, "author": author, "date": "2023-01-01T00:00:00+00:00", "source": "commit"},
    )


@pytest.fixture()
def sample_store() -> store.KnowledgeStore:
    return store.merge(
        store.KnowledgeStore(),
        [
            make_unit("When trying to link via intersphinx, a label must be used.", commit="b5bd0f14"),
            make_unit("raise the pool size for burst traffic", unit_type="skill", weight=0.95),
            make_unit("TimeoutError appears during cold start.", unit_type="pattern", weight=0.90),
        ]
    )


def test_round_trip(tmp_path, sample_store):
    store.save(sample_store, tmp_path)
    loaded = store.load(tmp_path)
    assert loaded == sample_store


def test_double_save_is_byte_identical(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    first = path.read_bytes()
    store.save(sample_store, tmp_path)
    assert path.read_bytes() == first


def test_save_load_save_is_a_fixed_point(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    first = path.read_bytes()
    store.save(store.load(tmp_path), tmp_path)
    assert path.read_bytes() == first


def test_store_file_layout(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    assert path == tmp_path / ".knowledge" / "units.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["schema_version"] == 1
    ids = [entry["id"] for entry in payload["units"]]
    assert ids == sorted(ids)
    assert set(payload["units"][0]) == {"id", "type", "title", "content", "weight", "context", "meta"}


def test_known_unit_lands_verbatim_in_file(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    text = path.read_text(encoding="utf-8")
    assert "When trying to link via intersphinx, a label must be used." in text
    assert "b5bd0f14" in text


def test_merge_idempotent_and_disjoint_union(sample_store):
    again = store.merge(sample_store, sample_store.units.values())
    assert again == sample_store

    incoming = [make_unit("fresh constraint about retry budgets")]
    merged = store.merge(sample_store, incoming)
    assert len(merged.units) == len(sample_store.units) + 1

    assert len(store.merge(store.KnowledgeStore(), incoming).units) == 1


def test_merge_keeps_existing_meta_on_collision(sample_store):
    clash = make_unit(
        "When trying to link via intersphinx, a label must be used.", commit="ffffffff"
    )
    merged = store.merge(sample_store, [clash])
    assert merged.units[clash.id].meta["commit"] == "b5bd0f14"


def test_strip_attribution(sample_store):
    scrubbed = store.strip_attribution(sample_store)
    assert set(scrubbed.units) == set(sample_store.units)
    for uid, unit in scrubbed.units.items():
        assert unit.meta["author"] == "redacted"
        assert unit.meta["commit"] == sample_store.units[uid].meta["commit"]
        assert unit.content == sample_store.units[uid].content
        assert unit.weight == sample_store.units[uid].weight
    assert store.strip_attribution(scrubbed) == scrubbed


def test_strip_attribution_preserves_retrieval(sample_store):
    scrubbed = store.strip_attribution(sample_store)
    original_index = retrieval.build_index(sample_store.sorted_units())
    scrubbed_index = retrieval.build_index(scrubbed.sorted_units())
    for query_text in ("intersphinx label", "pool size", "timeouterror cold start"):
        before = retrieval.query(original_index, query_text, k=5, theta=0.0)
        after = retrieval.query(scrubbed_index, query_text, k=5, theta=0.0)
        assert [(h.unit.id, h.score) for h in before] == [(h.unit.id, h.score) for h in after]


def test_save_failure_reports_path(tmp_path, sample_store):
    (tmp_path / ".knowledge").write_text("not a directory")
    with pytest.raises(OSError):
        store.save(sample_store, tmp_path)


def test_load_missing_store_hints_at_extract(tmp_path):
    with pytest.raises(FileNotFoundError) as excinfo:
        store.load(tmp_path)
    assert "extract" in str(excinfo.value)


_unit_contents = st.lists(
    st.text(alphabet="abcdefghij ", min_size=12, max_size=40).filter(str.strip),
    min_size=0,
    max_size=8,
    unique=True,
)


@given(_unit_contents, _unit_contents)
def test_merge_is_order_insensitive_on_unit_sets(left_contents, right_contents):
    left = [make_unit(c) for c in left_contents]
    right = [make_unit(c) for c in right_contents]
    one = store.merge(store.merge(store.KnowledgeStore(), left), right)
    two = store.merge(store.merge(store.KnowledgeStore(), right), left)
    assert set(one.units) == set(two.units)
    for uid in one.units:
        assert one.units[uid].content == two.units[uid].content


# Text the JSON encoder has to escape or pass through: quotes, backslashes,
# control characters, line and paragraph separators, non-ASCII text.
_field_text = st.text(alphabet='"\\\x00\x1f\x7f\n\t\u2028\u2029é中\U0001f600 ab', max_size=12)
_plain_meta = st.dictionaries(_field_text, _field_text, max_size=4)
_odd_meta = st.dictionaries(
    _field_text,
    st.one_of(st.integers(), st.floats(), st.none(), st.booleans(), st.lists(_field_text, max_size=2),
              st.dictionaries(_field_text, _field_text, max_size=2)),
    min_size=1,
    max_size=3,
)
_weight = st.one_of(st.sampled_from([0.75, 0.4, 1, 0]), st.integers(), st.floats(), st.booleans())
_unit = st.builds(
    KnowledgeUnit,
    id=_field_text,
    unit_type=st.sampled_from(["fact", "skill", "pattern"]),
    title=_field_text,
    content=_field_text,
    weight=_weight,
    context=_field_text,
    meta=st.one_of(_plain_meta, _plain_meta, _odd_meta),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_unit, max_size=4))
@example([])
@example([make_unit("plain unit with a 0.75 weight"), make_unit("integer weight", weight=1)])
@example([make_unit("plain unit"), make_unit("a NaN weight", weight=math.nan)])
@example([make_unit("a true weight", weight=True)])
@example([make_unit("a weight beyond the float range", weight=10**400)])
@example([make_unit("an unknown type", unit_type="hint")])
def test_save_writes_the_oracle_bytes(units):
    """A store that ``load`` reads back is written as the oracle writes it;
    any other is refused before anything is written."""
    knowledge_store = store.KnowledgeStore({unit.id: unit for unit in units})
    want = store_bytes_oracle(knowledge_store)
    with tempfile.TemporaryDirectory() as probe, tempfile.TemporaryDirectory() as root:
        path = store.store_path(probe)
        path.parent.mkdir()
        path.write_bytes(want)
        try:
            store.load(probe)
        except ValueError as exc:
            problem = str(exc).partition(": unit ")[2]
            with pytest.raises(ValueError, match=f": unit {re.escape(problem)}; refusing to write it$"):
                store.save(knowledge_store, root)
            assert not any(Path(root).iterdir())
        else:
            assert store.save(knowledge_store, root).read_bytes() == want


def test_save_refuses_a_unit_not_keyed_by_its_id(tmp_path):
    """Two keys holding one unit, and a unit under another id, would write a
    file that ``load`` refuses or reorders; nothing is written."""
    unit = replace(make_unit("pool resets run before reuse"), id="x1")
    other = make_unit("the cache must be warmed first")
    for units, position, key in (
        ({"a": unit, "b": unit}, 0, "a"),
        ({"x1": unit, "y": unit}, 1, "y"),
        ({other.id: other, "0": unit}, 0, "0"),
    ):
        problem = f"unit {position} is keyed '{key}', not by its id"
        with pytest.raises(ValueError, match=f": {problem}; refusing to write it$"):
            store.save(store.KnowledgeStore(units), tmp_path)
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("meta", [None, [1], "x"])
def test_save_refuses_a_meta_that_is_not_an_object(tmp_path, meta):
    odd = replace(make_unit("pool resets run before reuse"), meta=meta)
    units = [make_unit("the cache must be warmed first"), odd]
    knowledge_store = store.KnowledgeStore({unit.id: unit for unit in units})
    position = sorted(knowledge_store.units).index(odd.id)
    with pytest.raises(ValueError, match=f": unit {position} has a non-object meta; refusing to write it$"):
        store.save(knowledge_store, tmp_path)
    assert not any(tmp_path.iterdir())


def test_to_dict_copies_a_dict_meta_and_passes_any_other_through():
    unit = make_unit("pool resets run before reuse")
    entry = unit.to_dict()
    assert entry["meta"] == unit.meta
    entry["meta"]["commit"] = "edited"
    assert unit.meta["commit"] == "0123abcd"
    for meta in (None, [1], "x"):  # for save to refuse, as the test above pins
        assert replace(unit, meta=meta).to_dict()["meta"] is meta


def test_load_refuses_a_repeated_id(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    first = payload["units"][0]
    payload["units"].append({**first, "content": first["content"] + " again"})
    path.write_text(json.dumps(payload), encoding="utf-8")
    last = len(payload["units"]) - 1
    with pytest.raises(ValueError, match=f"unit {last} repeats the id '{first['id']}' of unit 0$"):
        store.load(tmp_path)


def _load_outcome(load, root):
    """The loaded units in dict order, each with its weight's type, or the
    error's type and line."""
    try:
        units = load(root).units
    except (FileNotFoundError, ValueError) as exc:
        return type(exc), str(exc)
    return [(uid, unit, type(unit.weight)) for uid, unit in units.items()]


@pytest.mark.parametrize(
    "fixture", ["oracle_repo", "calibration_repo", "timetravel_repo", "skewed_dates_repo", "shared_unit_repo"]
)
def test_load_matches_the_oracle_on_fixture_stores(request, tmp_path, fixture):
    repo, _ = request.getfixturevalue(fixture)
    units = extraction.extract_repository(repo, max_count=5000)
    store.save(store.merge(store.KnowledgeStore(), units), tmp_path)
    loaded = _load_outcome(store.load, tmp_path)
    assert len(loaded) == len({unit.id for unit in units})
    assert loaded == _load_outcome(load_oracle, tmp_path)


_meta_value = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _field_text),
    lambda inner: st.one_of(st.lists(inner, max_size=2), st.dictionaries(_field_text, inner, max_size=2)),
    max_leaves=4,
)
# Ids from a small alphabet, so that a list of units often repeats one.
_stored_unit = st.fixed_dictionaries(
    {
        "id": st.one_of(st.sampled_from(["a", "b", "é", "中"]), _field_text),
        "type": st.sampled_from(store.UNIT_TYPES),
        "title": _field_text,
        "content": _field_text,
        "context": _field_text,
        "weight": st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
        "meta": st.dictionaries(_field_text, _meta_value, max_size=3),
    }
)
_odd_value = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([math.nan, math.inf, -math.inf, 10**400, "bogus"]),
    st.lists(_field_text, max_size=1), st.dictionaries(_field_text, _field_text, max_size=1),
)
_bad_unit = st.one_of(
    st.builds(lambda entry, name: {k: v for k, v in entry.items() if k != name},
              _stored_unit, st.sampled_from(sorted(store.UNIT_FIELDS))),
    st.builds(lambda entry, name, value: {**entry, name: value},
              _stored_unit, st.sampled_from(sorted(store.UNIT_FIELDS)), _odd_value),
    st.sampled_from([None, 1, "unit", []]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_stored_unit, max_size=6), st.one_of(st.none(), _bad_unit), st.integers(0, 6), st.booleans())
@example([], None, 0, False)
@example([{"id": "a", "type": "fact", "title": "t", "content": "c", "context": "x", "weight": 1,
           "meta": {"n": 1, "list": [1, "é"], "nested": {"k": None}}}], None, 0, False)
def test_load_matches_the_oracle_on_generated_stores(entries, bad_unit, position, ensure_ascii):
    if bad_unit is not None:
        entries.insert(position, bad_unit)
    with tempfile.TemporaryDirectory() as root:
        path = store.store_path(root)
        path.parent.mkdir()
        path.write_text(
            json.dumps({"schema_version": store.SCHEMA_VERSION, "units": entries}, ensure_ascii=ensure_ascii),
            encoding="utf-8",
        )
        assert _load_outcome(store.load, root) == _load_outcome(load_oracle, root)


_UNIT = {"id": "a", "type": "fact", "title": "t", "content": "c", "context": "x", "weight": 0.5, "meta": {}}
_LOAD_CASES = {
    "ok": json.dumps({"schema_version": 1, "units": [_UNIT, {**_UNIT, "id": "b"}]}),
    "missing": None,
    "not-json": "{not json",
    "too-deep": '{"schema_version": 1, "units": ' + "[" * 100_000 + "]" * 100_000 + "}",
    "not-an-object": "[]",
    "old-schema": '{"schema_version": 99, "units": []}',
    "no-units": '{"schema_version": 1}',
    "bad-unit": json.dumps({"schema_version": 1, "units": [_UNIT, {**_UNIT, "id": "b", "weight": "high"}]}),
    "repeated-id": json.dumps({"schema_version": 1, "units": [_UNIT, _UNIT]}),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", list(_LOAD_CASES))
def test_load_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, case, enabled):
    text = _LOAD_CASES[case]
    if text is not None:
        path = store.store_path(tmp_path)
        path.parent.mkdir()
        path.write_text(text, encoding="utf-8")
    built_with_gc = set()

    def unit(*fields):
        built_with_gc.add(gc.isenabled())
        return KnowledgeUnit(*fields)

    monkeypatch.setattr(store, "KnowledgeUnit", unit)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            store.load(tmp_path)
        except (FileNotFoundError, ValueError):
            assert case != "ok"
        else:
            assert case == "ok"
            assert built_with_gc == {False}
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
