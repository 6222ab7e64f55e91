import json
import re
from pathlib import Path as FilePath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpstable import fixtures
from gpstable.algebra import (
    Arrow,
    InputError,
    NonAdmissibleError,
    Path,
    Quiver,
    admissibility_witness,
    enumerate_nonzero_paths,
    parse_algebra,
    parse_path_string,
    relation_automaton,
)
from gpstable.analysis import analyze
from gpstable.stable import classify

from reference_scan import (
    equivalence_algebras,
    trie_algebras,
    word_set_automaton,
    word_set_opposite_automaton,
)


def occurrences_in(part, whole):
    """Arrow positions (or vertex positions for trivial paths) where
    ``part`` occurs as a consecutive factor of ``whole``."""
    if part.is_trivial:
        for k, v in enumerate(whole.vertices):
            if v == part.source:
                yield k
        return
    n = part.length
    for s in range(whole.length - n + 1):
        if (
            whole.arrows[s : s + n] == part.arrows
            and whole.vertices[s : s + n + 1] == part.vertices
        ):
            yield s


def subpath_of(part, whole):
    return next(iter(occurrences_in(part, whole)), None) is not None


def brute_basis(alg, cap=40):
    """Independent enumeration: grow all paths, filter by a full subpath
    scan against the relation list, never using the relation automaton."""

    def zero(p):
        return any(subpath_of(r, p) for r in alg.relations)

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

    def test_relation_cover_named_in_input_order(self):
        # x.y.x.y contains y.x.y, y.x and x.y; the warning names the first of
        # them in input order, a non-minimal relation included
        doc = {
            "vertices": ["1"],
            "arrows": [
                {"id": "x", "from": "1", "to": "1"},
                {"id": "y", "from": "1", "to": "1"},
            ],
            "relations": [
                ["x", "y", "x", "y"], ["y", "x", "y"], ["y", "x"], ["y", "x"],
                ["x", "x"], ["x", "y"], ["y", "y"],
            ],
        }
        alg = parse_algebra(doc)
        assert [str(r) for r in alg.relations] == ["x.x", "x.y", "y.x", "y.y"]
        assert alg.warnings == (
            "duplicate relation y.x dropped",
            "relation x.y.x.y dropped: contains y.x.y as a subpath",
            "relation y.x.y dropped: contains y.x as a subpath",
        )

    def test_minimality_reads_words_not_subpath_scans(self):
        # one vertex, 40 loops and all 1600 quadratic relations: a pairwise
        # subpath scan made this quadratic in the number of relations
        loops = [f"x{k}" for k in range(40)]
        doc = {
            "vertices": ["1"],
            "arrows": [{"id": a, "from": "1", "to": "1"} for a in loops],
            "relations": [[a, b] for a in loops for b in loops],
        }
        alg = parse_algebra(doc)
        assert len(alg.relations) == 1600 and not alg.warnings

    @pytest.mark.parametrize(
        "arrow_id", ["a.b", "", " x", "x\t", "x\\", "a\nb", "a\tb", "a\x00b", "a\u2028b"]
    )
    def test_arrow_id_must_survive_path_strings(self, arrow_id):
        # path strings join arrow ids with '.', so "a.b" would read as two
        # arrows and "" would print as an empty path; they are stripped, so
        # " x" could be printed but never named; DOT reads a backslash in a
        # quoted id as an escape, so "x\" would never close; a line break
        # inside an id split an error message and every text line naming it
        doc = fixtures.a2_document()
        doc["arrows"][0]["id"] = arrow_id
        message = re.escape(f"arrow id {arrow_id!r} must be non-empty")
        with pytest.raises(InputError, match=message):
            parse_algebra(doc)

    @pytest.mark.parametrize(
        "vertices, arrows, message",
        [
            ((), (), "a quiver needs at least one vertex"),
            (("1", "1"), (), "duplicate vertex ids"),
            (("1",), (Arrow("x", "1", "1"),) * 2, "duplicate arrow id 'x'"),
            (
                ("1",), (Arrow("x", "1", "2"),),
                "arrow 'x' has undeclared endpoint ('1' -> '2')",
            ),
        ],
    )
    def test_quiver_validates_when_built_or_replaced(self, vertices, arrows, message):
        exact = f"^{re.escape(message)}$"
        with pytest.raises(InputError, match=exact):
            Quiver(vertices, arrows)
        with pytest.raises(InputError, match=exact):
            Quiver(("1",), ())._replace(vertices=vertices, arrows=arrows)

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

    def test_admissibility_checked_once(self, monkeypatch):
        # parse runs the check; the basis enumeration does not run it again
        import gpstable.algebra as algebra

        calls = []

        def counted(*args):
            calls.append(args)
            return admissibility_witness(*args)

        monkeypatch.setattr(algebra, "admissibility_witness", counted)
        alg = parse_algebra(fixtures.lambda_star_document())
        assert len(alg.basis) == 104
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "relations", [[], [["a", "b", "a", "b", "a", "b"]], [["x", "y", "x"]]]
    )
    def test_enumeration_raises_on_non_admissible(self, relations):
        # two loops at 1 beside a 2-cycle: the language grows exponentially,
        # so only a walk that stops at its first repeated state returns
        quiver = Quiver(
            ("1", "2", "3"),
            (
                Arrow("x", "1", "1"),
                Arrow("y", "1", "1"),
                Arrow("a", "2", "3"),
                Arrow("b", "3", "2"),
            ),
        )
        rels = [quiver.path(r) for r in relations]
        with pytest.raises(NonAdmissibleError) as exc:
            enumerate_nonzero_paths(
                quiver, relation_automaton(quiver.vertices, quiver.arrows_from, rels)
            )
        witness = exc.value.witness
        assert witness.source == witness.target and not witness.is_trivial
        pumped = witness.arrows * 8
        assert not any(
            r.arrows == pumped[s : s + r.length]
            for r in rels
            for s in range(len(pumped) - r.length + 1)
        )

    @pytest.mark.parametrize("degrees", [{"a": True}, {"a": 2}, {"a": 1}, {}])
    def test_declared_arrow_degrees_rejected(self, degrees):
        # every graded closed form shifts by arrow length; a declared degree,
        # even the default 1, must not be read as if it were not there
        doc = fixtures.a2_document()
        doc["arrow_degrees"] = degrees
        with pytest.raises(InputError, match="shifts by arrow length"):
            parse_algebra(doc)

    def test_deeply_nested_json_is_input_error(self):
        with pytest.raises(InputError, match="malformed JSON document"):
            parse_algebra("[" * 100000)

    def test_json_text_roundtrip(self):
        alg = parse_algebra(json.dumps(fixtures.nakayama_document(2, 2)))
        assert alg.dim == 2 * 3


FIXTURE_FILES = sorted(
    (FilePath(__file__).resolve().parent.parent / "fixtures").glob("*.json")
)


def walk_count_algebras():
    """``(algebra, drawn)``: every fixture, N(n, m) for n, m <= 6, and 320
    draws of ``random_algebra`` (``drawn`` true), 80 for each of two seeds
    and two shapes."""
    import random

    from gpstable.oracle import random_algebra

    for f in FIXTURE_FILES:
        yield parse_algebra(f.read_text()), False
    for n in range(1, 7):
        for m in range(1, 7):
            yield fixtures.nakayama(n, m), False
    for seed in (2027, 2028):
        rng = random.Random(seed)
        for shape in ({}, {"max_vertices": 5, "max_arrows": 8, "max_relations": 6}):
            for _ in range(80):
                yield random_algebra(rng, **shape), True


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

    def test_walk_counts_equal_the_enumerated_basis(self):
        draws = 0
        for alg, drawn in walk_count_algebras():
            basis = alg.basis
            assert alg.dim == len(basis), alg.relations
            assert alg.nilpotency == 1 + max(p.length for p in basis), alg.relations
            draws += drawn
        assert draws >= 300

    @pytest.mark.parametrize(
        "make, dim, nilpotency",
        [
            # walks 240 states deep; the loop's 3000 pass the default
            # recursion limit, so only an iterative count gets through
            (lambda: fixtures.nakayama(240, 240), 240 * 241, 241),
            (lambda: fixtures.loop(3000), 3001, 3001),
        ],
        ids=["N(240,240)", "loop(3000)"],
    )
    def test_deep_automata_are_counted(self, monkeypatch, make, dim, nilpotency):
        import gpstable.algebra as algebra

        def refuse(*args):
            raise AssertionError("the path basis was enumerated")

        monkeypatch.setattr(algebra, "enumerate_nonzero_paths", refuse)
        alg = make()
        assert (alg.dim, alg.nilpotency) == (dim, nilpotency)

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


def chain_document(n, width, rel):
    """A chain 0 -> 1 -> ... -> n-1 with ``width`` parallel arrows per step
    and one relation: the first ``rel`` arrows of copy 0."""
    arrows = [
        {"id": f"a{i}_{c}", "from": str(i), "to": str(i + 1)}
        for i in range(n - 1)
        for c in range(width)
    ]
    return {
        "vertices": [str(i) for i in range(n)],
        "arrows": arrows,
        "relations": [[f"a{i}_0" for i in range(rel)]],
    }


def test_automaton_state_bound_on_a_long_relation(monkeypatch):
    # states (vertex, last d-1 arrows) would number about 3^11 here
    import gpstable.algebra as algebra

    def refuse(*args):
        raise AssertionError("the path basis was enumerated")

    monkeypatch.setattr(algebra, "enumerate_nonzero_paths", refuse)
    alg = parse_algebra(chain_document(13, 3, 12))
    bound = len(alg.quiver.vertices) + sum(r.length - 1 for r in alg.relations)
    assert len(alg.automaton.vertex) <= bound == 24
    an = analyze(alg)
    assert an.perfect.cm_free and an.decompositions == ()
    assert classify(an).cm_free


def scan_zero(alg, p):
    """The zero test read off the definition, without the automaton."""
    return any(subpath_of(r, p) for r in alg.relations)


def zero_test_algebras():
    import random

    from gpstable.oracle import random_algebra

    yield from equivalence_algebras()
    for seed in range(300):
        yield random_algebra(random.Random(seed))


def test_trie_automata_match_word_set_builder():
    # NamedTuple equality: every field, state ids included
    algs = list(trie_algebras())
    algs += [fixtures.nakayama(n, m) for n in range(1, 9) for m in range(1, 9)]
    for alg in algs:
        assert alg.automaton == word_set_automaton(alg.quiver, alg.relations), (
            alg.relations
        )
        assert alg.opposite_automaton == word_set_opposite_automaton(alg), (
            alg.relations
        )


def test_zero_tests_agree_with_subpath_scan():
    extensions = 0
    for alg in zero_test_algebras():
        for p in alg.basis_sorted:
            assert not alg.is_zero(p)
            for arrow in alg.quiver.arrows_from[p.target]:
                a = alg.quiver.arrow_path(arrow.id)
                expected = scan_zero(alg, p * a)
                assert alg.is_zero(p * a) == expected
                assert alg.concat_zero(p, a) == expected
                extensions += 1
            for arrow in alg.quiver.arrows:
                if arrow.target == p.source:
                    a = alg.quiver.arrow_path(arrow.id)
                    assert alg.concat_zero(a, p) == scan_zero(alg, a * p)
    assert extensions > 3000


def test_divisor_index_lists_every_cut():
    entries = 0
    for alg in equivalence_algebras():
        starts, ends = alg.divisor_index
        basis = alg.basis_sorted
        # a key is present exactly when its divisor is a non-zero path, so
        # a zero path such as a relation has no key and module dimension 0
        assert set(starts) == {(u.source, u.arrows) for u in basis}
        assert set(ends) == {(u.arrows, u.target) for u in basis}
        order = {u: k for k, u in enumerate(basis)}
        for table in (starts, ends):
            for paths in table.values():
                positions = [order[u] for u in paths]
                assert positions == sorted(set(positions))
            total = sum(map(len, table.values()))
            assert total == sum(u.length + 1 for u in basis)
            entries += total
        start_sets = {key: set(paths) for key, paths in starts.items()}
        end_sets = {key: set(paths) for key, paths in ends.items()}
        for u in basis:
            for k in range(u.length + 1):
                assert u in start_sets[u.source, u.arrows[:k]]
                assert u in end_sets[u.arrows[k:], u.target]
        assert all(alg.module_dim(r) == 0 for r in alg.relations)
    assert entries >= 13_000  # measured: 13 838, both tables


class TestPathOps:
    def test_relate_left_divisor(self):
        q = fixtures.lambda_star().quiver
        p = q.path(["a1", "a2"])
        whole = q.path(["a1", "a2", "a3"])
        assert p.left_divides(whole) and p != whole and not p.right_divides(whole)
        occ = next(iter(occurrences_in(p, whole)))
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
        assert list(occurrences_in(part, whole)) == list(occurrences_in(part, whole))
        assert not subpath_of(part, whole)

    def test_trivial_path_relations(self):
        q = fixtures.lambda_star().quiver
        e2 = q.trivial("2")
        p = q.path(["a1", "a2"])
        assert subpath_of(e2, p) and not e2.right_divides(p)
        occ = next(iter(occurrences_in(e2, p)))
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

    @pytest.mark.parametrize(
        "make",
        [fixtures.lambda_star, fixtures.a2, fixtures.quadratic,
         lambda: fixtures.loop(3), lambda: fixtures.nakayama(3, 3)],
        ids=["lambda_star", "a2", "quadratic", "loop_3", "N(3,3)"],
    )
    def test_value_semantics_follow_sort_key(self, make):
        """All four comparisons, and so ``sorted``, ``max`` and ``min``,
        read ``sort_key`` (a3 before a1.a2, not the tuple order of the
        fields); the hash is that of ``(arrows, vertices)``; a field cannot
        be set; ``str`` and ``repr`` keep their forms."""
        alg = make()
        paths = [*alg.basis_sorted[::-1], *analyze(alg).perfect.paths]
        key = Path.sort_key
        for a in paths:
            for b in paths:
                ka, kb = key(a), key(b)
                assert (a < b, a > b, a <= b, a >= b) == (
                    ka < kb, ka > kb, ka <= kb, ka >= kb
                )
        assert sorted(paths) == sorted(paths, key=key)
        assert max(paths) == max(paths, key=key)
        assert min(paths) == min(paths, key=key)
        for p in paths:
            assert hash(p) == hash((p.arrows, p.vertices))
            with pytest.raises(AttributeError):
                p.arrows = ()
            text = f"e({p.source})" if p.is_trivial else ".".join(p.arrows)
            assert (str(p), repr(p)) == (text, f"Path({text})")
        q = fixtures.lambda_star().quiver
        short, long = q.path(["a3"]), q.path(["a1", "a2"])
        assert short < long and long > short and (long.arrows, long.vertices) < (
            short.arrows, short.vertices
        )


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
    again = enumerate_nonzero_paths(quiver, alg.automaton)
    assert again == alg.basis
