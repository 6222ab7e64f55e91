import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpstable import fixtures
from gpstable.algebra import (
    InputError,
    MonomialAlgebra,
    NonAdmissibleError,
    Path,
    Quiver,
    enumerate_nonzero_paths,
    parse_algebra,
    parse_path_string,
)


def brute_basis(alg, cap=40):
    """Independent enumeration: grow all paths, filter by a full subpath
    scan against the relation list, never using the suffix-window pruning."""

    def zero(p):
        return any(r.subpath_of(p) for r in alg.relations)

    layer = [alg.quiver.trivial(v) for v in alg.quiver.vertices]
    out = set(layer)
    for _ in range(cap):
        nxt = []
        for p in layer:
            for arrow in alg.quiver.arrows_from[p.target]:
                ext = p * alg.quiver.arrow_path(arrow.id)
                if not zero(ext):
                    nxt.append(ext)
        if not nxt:
            return out
        out.update(nxt)
        layer = nxt
    raise AssertionError("cap exceeded; algebra looks non-admissible")


class TestParsing:
    def test_lambda_star_parses(self):
        alg = fixtures.lambda_star()
        assert len(alg.quiver.vertices) == 5
        assert len(alg.quiver.arrows) == 6
        assert len(alg.relations) == 3
        assert alg.dim == len(alg.basis)

    def test_a2_basis(self):
        alg = fixtures.a2()
        assert {str(p) for p in alg.basis} == {"e(1)", "e(2)", "a"}

    def test_relation_normalization_warns(self):
        doc = {
            "vertices": ["1"],
            "arrows": [{"id": "x", "from": "1", "to": "1"}],
            "relations": [["x", "x"], ["x", "x", "x"]],
        }
        alg = parse_algebra(doc)
        assert [str(r) for r in alg.relations] == ["x.x"]
        assert any("x.x.x" in w for w in alg.warnings)

    def test_short_relation_rejected(self):
        doc = fixtures.loop_document(1)
        doc["relations"] = [["x"]]
        with pytest.raises(InputError, match="length"):
            parse_algebra(doc)

    def test_bad_relation_path_rejected(self):
        doc = fixtures.a2_document()
        doc["relations"] = [["a", "a"]]
        with pytest.raises(InputError, match="relation #0"):
            parse_algebra(doc)

    def test_malformed_document(self):
        with pytest.raises(InputError, match="JSON"):
            parse_algebra("{not json")
        with pytest.raises(InputError, match="vertices"):
            parse_algebra({"arrows": [], "relations": []})

    def test_non_admissible_witness(self):
        doc = {
            "vertices": ["1"],
            "arrows": [{"id": "x", "from": "1", "to": "1"}],
            "relations": [],
        }
        with pytest.raises(NonAdmissibleError) as exc:
            parse_algebra(doc)
        assert str(exc.value.witness) == "x"

    def test_boolean_arrow_degree_rejected(self):
        # bool is a subclass of int; true must not pass as degree 1
        doc = fixtures.a2_document()
        doc["arrow_degrees"] = {"a": True}
        with pytest.raises(InputError, match="positive integer"):
            parse_algebra(doc)
        doc["arrow_degrees"] = {"a": 2}
        assert parse_algebra(doc).arrow_degrees == {"a": 2}

    def test_relation_index_groups_by_length(self):
        alg = fixtures.lambda_star()
        assert alg.relation_index == {
            7: {("a3", "a1", "a2", "a3", "a1", "a2", "a3")},
            8: {
                ("a1", "a2", "a3", "a1", "a2", "a3", "a1", "a2"),
                ("a4", "a5", "a4", "a5", "a4", "a5", "a4", "a5"),
            },
        }

    def test_json_text_roundtrip(self):
        alg = parse_algebra(json.dumps(fixtures.nakayama_document(2, 2)))
        assert alg.dim == 2 * 3


class TestBasis:
    def test_loop_counts(self):
        for m in range(1, 5):
            alg = fixtures.loop(m)
            assert alg.dim == m + 1
            assert alg.nilpotency == m + 1

    def test_nakayama_counts(self):
        for n in range(1, 4):
            for m in range(1, 4):
                assert fixtures.nakayama(n, m).dim == n * (m + 1)

    def test_lambda_star_enumeration_matches_brute_force(self):
        alg = fixtures.lambda_star()
        assert alg.basis == frozenset(brute_basis(alg))
        assert alg.dim == 104
        assert max(p.length for p in alg.basis) == 15
        assert alg.nilpotency == 16

    def test_lambda_star_zero_paths(self):
        alg = fixtures.lambda_star()
        q = alg.quiver
        assert alg.is_zero(q.path(["a1", "a2", "a3", "a1", "a2", "a3", "a1", "a2"]))
        assert not alg.is_zero(q.trivial("1"))
        assert not alg.is_zero(q.path(["a1", "a2", "a3", "a1", "a2", "a3", "a1"]))

    def test_basis_subpath_closed(self):
        alg = fixtures.lambda_star()
        for p in alg.basis:
            for i in range(p.length + 1):
                for j in range(i, p.length + 1):
                    assert p.window(i, j) in alg.basis

    def test_one_step_closure(self):
        alg = fixtures.nakayama(2, 2)
        for p in alg.basis:
            for arrow in alg.quiver.arrows_from[p.target]:
                ext = p * alg.quiver.arrow_path(arrow.id)
                assert (ext in alg.basis) == (not alg.is_zero(ext))

    def test_concat_zero_agrees_with_full_scan(self):
        alg = fixtures.lambda_star()
        pieces = [p for p in alg.basis_sorted if p.length <= 4]
        for p in pieces:
            for q in pieces:
                if p.target != q.source or p.is_trivial or q.is_trivial:
                    continue
                assert alg.concat_zero(p, q) == alg.is_zero(p * q)


class TestPathOps:
    def test_relate_left_divisor(self):
        q = fixtures.lambda_star().quiver
        p = q.path(["a1", "a2"])
        whole = q.path(["a1", "a2", "a3"])
        assert p.left_divides(whole) and p != whole and not p.right_divides(whole)
        occ = next(iter(p.occurrences_in(whole)))
        left = whole.window(0, occ)
        right = whole.window(occ + p.length, whole.length)
        assert str(right) == "a3"
        assert left * p * right == whole

    def test_relate_right_divisor(self):
        q = fixtures.lambda_star().quiver
        part, whole = q.path(["a3"]), q.path(["a1", "a2", "a3"])
        assert part.right_divides(whole) and not part.left_divides(whole)

    def test_relate_disjoint(self):
        q = fixtures.lambda_star().quiver
        part, whole = q.path(["a2"]), q.path(["a4", "a5"])
        assert list(part.occurrences_in(whole)) == list(part.occurrences_in(whole))
        assert not part.subpath_of(whole)

    def test_trivial_path_relations(self):
        q = fixtures.lambda_star().quiver
        e2 = q.trivial("2")
        p = q.path(["a1", "a2"])
        assert e2.subpath_of(p) and not e2.right_divides(p)
        occ = next(iter(e2.occurrences_in(p)))
        assert p.window(0, occ) * e2 * p.window(occ, p.length) == p

    def test_compose_mismatch_raises(self):
        q = fixtures.lambda_star().quiver
        with pytest.raises(InputError):
            q.path(["a1", "a1"])
        with pytest.raises(InputError):
            _ = q.path(["a1"]) * q.path(["a1"])

    def test_parse_path_string(self):
        q = fixtures.lambda_star().quiver
        assert parse_path_string(q, "a1.a2.a3").arrows == ("a1", "a2", "a3")
        with pytest.raises(InputError):
            parse_path_string(q, "a1.zzz")

    def test_global_order(self):
        q = fixtures.lambda_star().quiver
        paths = [q.path(["a3"]), q.path(["a1", "a2"]), q.trivial("1")]
        assert sorted(paths, key=Path.sort_key) == [
            q.trivial("1"),
            q.path(["a3"]),
            q.path(["a1", "a2"]),
        ]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), cut=st.integers(0, 20))
def test_window_closure_property(n, m, cut):
    alg = fixtures.nakayama(n, m)
    basis = alg.basis_sorted
    p = basis[cut % len(basis)]
    for i in range(p.length + 1):
        for j in range(i, p.length + 1):
            w = p.window(i, j)
            assert w in alg.basis
            assert not alg.is_zero(w)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_algebra_basis_consistency(seed):
    import random

    from gpstable.oracle import random_algebra

    alg = random_algebra(random.Random(seed))
    assert alg.basis == frozenset(brute_basis(alg, cap=60))
    quiver = alg.quiver
    again = enumerate_nonzero_paths(quiver, alg.relations)
    assert again == alg.basis
