from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from commitdistill import retrieval, store
from commitdistill.extraction import KnowledgeUnit, unit_id

from oracles import store_bytes_oracle


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
def test_save_writes_the_oracle_bytes(units):
    knowledge_store = store.KnowledgeStore({unit.id: unit for unit in units})
    with tempfile.TemporaryDirectory() as root:
        assert store.save(knowledge_store, root).read_bytes() == store_bytes_oracle(knowledge_store)


def test_load_refuses_a_repeated_id(tmp_path, sample_store):
    path = store.save(sample_store, tmp_path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    first = payload["units"][0]
    payload["units"].append({**first, "content": first["content"] + " again"})
    path.write_text(json.dumps(payload), encoding="utf-8")
    last = len(payload["units"]) - 1
    with pytest.raises(ValueError, match=f"unit {last} repeats the id '{first['id']}' of unit 0$"):
        store.load(tmp_path)
