"""Unit tests for the declarative payload checker (:mod:`repro.schema`)."""

from repro.schema import NUM, Also, Opt, check, each, nullable, one_of, where

SPEC = {
    "name": str,
    "size": NUM,
    "tags": [str],
    "meta": {"owner": str, "note": Opt(str)},
    "stats": each({"calls": int}),
    "extra": nullable({"x": int}),
    "any": None,
}


def _doc(**overrides):
    doc = {
        "name": "a",
        "size": 1.5,
        "tags": ["x", "y"],
        "meta": {"owner": "me"},
        "stats": {"parse": {"calls": 2}},
        "extra": None,
        "any": [1, "two"],
    }
    doc.update(overrides)
    return doc


def test_conforming_document_has_no_problems():
    assert check(_doc(), SPEC) == []
    assert check(_doc(extra={"x": 3}), SPEC) == []


def test_non_object_document():
    assert check([], SPEC) == ["payload is not an object"]
    assert check(None, SPEC) == ["payload is not an object"]


def test_type_mismatches_name_the_path():
    problems = check(
        _doc(size="big", tags=["x", 3], stats={"parse": {"calls": 1.0}}),
        SPEC,
    )
    assert problems == [
        "$.size: expected int or float, got str",
        "$.tags[1]: expected str, got int",
        "$.stats['parse'].calls: expected int, got float",
    ]


def test_missing_keys_unless_optional():
    doc = _doc(meta={})
    del doc["any"]
    assert check(doc, SPEC) == [
        "$.meta.owner: missing key 'owner'",
        "$.any: missing key 'any'",
    ]


def test_containers_must_have_the_right_kind():
    problems = check(_doc(tags="x", meta=[], stats=[]), SPEC)
    assert problems == [
        "$.tags: expected list, got str",
        "$.meta: expected dict, got list",
        "$.stats: expected dict, got list",
    ]


def test_hooks_run_only_on_a_well_shaped_value():
    seen = []

    def hook(value, path):
        seen.append(value)
        return [f"{path}: hooked"]

    spec = {"v": Also({"n": int}, hook)}
    assert check({"v": {"n": "1"}}, spec) == ["$.v.n: expected int, got str"]
    assert seen == []
    assert check({"v": {"n": 1}}, spec) == ["$.v: hooked"]


def test_where_and_one_of():
    spec = {
        "n": where(int, lambda v: v >= 0, "expected >= 0"),
        "mode": one_of("a", "b"),
    }
    assert check({"n": 0, "mode": "b"}, spec) == []
    assert check({"n": -1, "mode": "c"}, spec) == [
        "$.n: expected >= 0, got -1",
        "$.mode: expected 'a' or 'b', got 'c'",
    ]
