import json
import random
from itertools import islice

import pytest

import gpstable.stable as stable
import reference_stable
from gpstable import fixtures
from gpstable.algebra import InputError, parse_algebra, parse_path_string
from gpstable.analysis import Analysis
from gpstable.arquiver import (
    ar_quiver,
    emit,
    full_ungraded_ar_quiver,
    graded_ar_window,
    ungraded_ar_quiver,
)
from gpstable.oracle import random_algebra
from gpstable.orders import CycleDecomposition
from gpstable.stable import (
    StableObject,
    ar_translate,
    ar_translate_inverse,
    ar_triangle,
)
from reference_scan import planted_multi_class_document, trie_algebras


@pytest.fixture(scope="module")
def star_an():
    return Analysis(fixtures.lambda_star())


def pp(an, text):
    return parse_path_string(an.algebra.quiver, text)


# Frozen edge sets live in reference_ar so the acceptance suite shares them.
from reference_ar import (
    THREE_CYCLE_ARROWS,
    THREE_CYCLE_TAU,
    TWO_CYCLE_ARROWS,
    dot_from_pairs,
    hasse_from_dict,
    json_from_pairs,
    quiver_from_triangles,
    vertex_pairs,
)


def arrow_paths(tq):
    return {(str(a.path), str(b.path)) for a, b in vertex_pairs(tq, tq.arrows)}


def tau_paths(tq):
    return {(str(a.path), str(b.path)) for a, b in vertex_pairs(tq, tq.tau)}


class TestUngraded:
    def test_three_cycle_component(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        tq = ungraded_ar_quiver(star_an, dec)
        assert len(tq.vertices) == 8
        assert arrow_paths(tq) == THREE_CYCLE_ARROWS
        assert tau_paths(tq) == THREE_CYCLE_TAU

    def test_two_cycle_component(self, star_an):
        dec = star_an.locate(pp(star_an, "a4.a5"))[0]
        tq = ungraded_ar_quiver(star_an, dec)
        assert len(tq.vertices) == 3
        assert arrow_paths(tq) == TWO_CYCLE_ARROWS
        # translation period one: every vertex is fixed
        assert tau_paths(tq) == {(str(p), str(p)) for p in dec.members}

    def test_tau_orbit_lengths(self, star_an):
        for dec in star_an.decompositions:
            tq = ungraded_ar_quiver(star_an, dec)
            tau_map = dict(tq.tau)
            for start in range(len(tq.vertices)):
                orbit = {start}
                cur = tau_map[start]
                while cur != start:
                    orbit.add(cur)
                    cur = tau_map[cur]
                assert len(orbit) == dec.size

    def test_mesh_companions(self, star_an):
        for dec in star_an.decompositions:
            tq = ungraded_ar_quiver(star_an, dec)
            tau_map = dict(tq.tau)
            arrows = set(tq.arrows)
            for b, c in arrows:
                assert (tau_map[c], b) in arrows

    def test_tau_is_the_translate(self, star_an):
        # N(3, 2) has |c| = 3, so a reversed tau edge shows
        for an in (star_an, Analysis(fixtures.nakayama(3, 2))):
            tq = full_ungraded_ar_quiver(an)
            pairs = vertex_pairs(tq, tq.tau)
            assert len(pairs) == len(an.perfect.paths)
            for a, b in pairs:
                assert ar_translate(an, StableObject(a.path, 0)).path == b.path

    def test_loop_one_single_vertex(self):
        an = Analysis(fixtures.loop(1))
        tq = ungraded_ar_quiver(an, an.decompositions[0])
        assert len(tq.vertices) == 1
        assert not tq.arrows
        assert tq.tau == ((0, 0),)

    def test_full_quiver_counts(self, star_an):
        tq = full_ungraded_ar_quiver(star_an)
        assert len(tq.vertices) == 11
        total = sum(d.m * d.size for d in star_an.decompositions)
        assert total == len(tq.vertices)

    def test_nakayama_2_2(self):
        an = Analysis(fixtures.nakayama(2, 2))
        tq = full_ungraded_ar_quiver(an)
        assert len(tq.vertices) == 4
        (dec,) = an.decompositions
        assert dec.size == 2


class TestGradedWindow:
    def test_empty_window_rejected(self, star_an):
        dec = star_an.decompositions[0]
        with pytest.raises(InputError):
            graded_ar_window(star_an, dec, 2, 1)

    def test_single_shift_is_incomplete(self):
        an = Analysis(fixtures.loop(1))
        tq = graded_ar_window(an, an.decompositions[0], 0, 0)
        assert len(tq.vertices) == 1
        assert tq.vertices[0].incomplete

    def test_components_count_is_period(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        tq = graded_ar_window(star_an, dec, -3, 3)
        import collections

        adj = collections.defaultdict(set)
        for a, b in list(tq.arrows) + list(tq.tau):
            adj[a].add(b)
            adj[b].add(a)
        seen, comps = set(), 0
        for v in range(len(tq.vertices)):
            if v in seen:
                continue
            comps += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u in seen:
                    continue
                seen.add(u)
                stack.extend(adj[u])
        assert comps == dec.arrow_length

    def test_projection_is_ungraded_quiver(self, star_an):
        for dec in star_an.decompositions:
            graded = graded_ar_window(star_an, dec, -4, 4)
            ungraded = ungraded_ar_quiver(star_an, dec)
            assert arrow_paths(graded) == arrow_paths(ungraded)

    def test_window_has_one_vertex_per_member_and_shift(self, star_an):
        for dec in star_an.decompositions:
            tq = graded_ar_window(star_an, dec, -3, 3)
            assert len(tq.vertices) == 7 * len(dec.members)

    def test_no_inverse_translate_calls(self, star_an, monkeypatch):
        # incomplete means: tau, tau^-1 or a middle term leaves the window;
        # the window reads tau^-1 off the translates it names, never calls it
        import gpstable.arquiver as arquiver

        ans = [star_an, Analysis(fixtures.nakayama(3, 4)), Analysis(fixtures.loop(2))]
        windows = [
            (an, dec, lo, hi)
            for an in ans
            for dec in an.decompositions
            for lo, hi in ((-3, 3), (0, 0), (-7, 2), (1, 9))
        ]
        expected = []
        for an, dec, lo, hi in windows:
            for p in dec.members:
                for s in range(lo, hi + 1):
                    obj = StableObject(p, s)
                    tri = ar_triangle(an, obj)
                    inverse = ar_translate_inverse(an, obj)
                    named = (tri.tau_object, inverse, *tri.middles)
                    expected.append(any(not lo <= r.shift <= hi for r in named))
        assert any(expected) and not all(expected)

        def refuse(*args):
            raise AssertionError("ar_translate_inverse was called")

        monkeypatch.setattr(stable, "ar_translate_inverse", refuse)
        monkeypatch.setattr(arquiver, "ar_translate_inverse", refuse, raising=False)
        got = []
        for an, dec, lo, hi in windows:
            tq = graded_ar_window(an, dec, lo, hi)
            flags = {(v.path, v.shift): v.incomplete for v in tq.vertices}
            got += [flags[(p, s)] for p in dec.members for s in range(lo, hi + 1)]
        assert got == expected

    def test_interior_vertices_complete(self, star_an):
        dec = star_an.locate(pp(star_an, "a4.a5"))[0]
        tq = graded_ar_window(star_an, dec, -6, 6)
        inner = [v for v in tq.vertices if abs(v.shift) <= 2]
        assert inner and all(not v.incomplete for v in inner)
        frontier = [v for v in tq.vertices if abs(v.shift) == 6]
        assert any(v.incomplete for v in frontier)


class TestEmission:
    def test_dot_deterministic(self, star_an):
        tq = full_ungraded_ar_quiver(star_an)
        assert emit(tq, "dot") == emit(full_ungraded_ar_quiver(star_an), "dot")

    def test_dot_contents(self, star_an):
        text = emit(full_ungraded_ar_quiver(star_an), "dot")
        assert text.startswith("digraph")
        assert text.count("style=dashed") == 11
        assert '"a4.a5" [label="[1,1]"' in text
        assert "rank=same" in text

    def test_json_structure(self, star_an):
        tq = full_ungraded_ar_quiver(star_an)
        data = json.loads(emit(tq, "json"))
        assert data["kind"] == "ar_quiver"
        assert data["valuation"] == "(1,1)"
        assert len(data["vertices"]) == 11
        assert len(data["arrows"]) == 16
        assert all(not v["incomplete"] for v in data["vertices"])

    def test_empty_quiver_valid(self):
        an = Analysis(fixtures.a2())
        tq = full_ungraded_ar_quiver(an)
        assert len(tq.vertices) == 0
        text = emit(tq, "dot")
        assert text.startswith("digraph") and text.rstrip().endswith("}")

    def test_hasse_emission(self, star_an):
        dot = emit(star_an.hasse_prec, "dot")
        assert '"a1.a2.a3.a1.a2.a3" -> "a1.a2.a3.a1.a2"' in dot
        data = json.loads(emit(star_an.hasse_leq, "json"))
        assert data["kind"] == "hasse" and data["order"] == "leq"
        assert len(data["components"]) == 3

    def test_unknown_format(self, star_an):
        with pytest.raises(InputError):
            emit(star_an.hasse_prec, "svg")


# --- the coordinate builder against the triangles --------------------------------


def coordinate_algebras():
    """``trie_algebras()`` (the fixtures, loop(2) and N(1, 3) among them),
    the planted multi-class document and 200 further draws of
    ``random_algebra`` at larger sizes."""
    yield from trie_algebras()
    yield parse_algebra(planted_multi_class_document())
    rng = random.Random(20)
    for _ in range(200):
        yield random_algebra(rng, max_vertices=5, max_arrows=8, max_relations=6)


def analyses_with_classes():
    """Fresh analyses of the ``coordinate_algebras()`` with perfect paths,
    built lazily."""
    return (an for an in map(Analysis, coordinate_algebras()) if an.decompositions)


@pytest.fixture(scope="module")
def coordinate_family():
    """``analyses_with_classes()``, built once for the tests that only
    read them."""
    return list(analyses_with_classes())


def piece_lists(an):
    """The ungraded quiver of every class and of each one, the graded windows
    [-3, 3], [0, 0] and [-l(c), l(c)] of each class, and the CLI's graded
    call over every class (its default window and ``--window 2``)."""
    decs = an.decompositions
    out = [[(dec, None) for dec in decs]]
    for dec in decs:
        out.append([(dec, None)])
        for lo, hi in ((-3, 3), (0, 0), (-dec.arrow_length, dec.arrow_length)):
            out.append([(dec, range(lo, hi + 1))])
    out.append([(dec, range(-dec.arrow_length, dec.arrow_length + 1)) for dec in decs])
    out.append([(dec, range(-2, 3)) for dec in decs])
    return out


def build(an, pieces):
    """The library's quiver of ``pieces``: ``ar_quiver`` for graded windows,
    else ``full_ungraded_ar_quiver`` for every class and
    ``ungraded_ar_quiver`` for one."""
    if pieces[0][1] is not None:
        return ar_quiver(pieces)
    assert all(shifts is None for _, shifts in pieces)
    decs = [dec for dec, _ in pieces]
    if decs == list(an.decompositions):
        return full_ungraded_ar_quiver(an)
    (dec,) = decs
    return ungraded_ar_quiver(an, dec)


class TestCoordinateBuilder:
    """``ar_quiver`` and the ungraded builder read each vertex's translate
    and middle terms off its bracket coordinates;
    ``reference_ar.quiver_from_triangles`` builds the same quiver from every
    vertex's ``ar_triangle``."""

    def test_equals_the_triangle_builder(self, coordinate_family):
        quivers = period_one = multi = 0
        for an in coordinate_family:
            for pieces in piece_lists(an):
                got = build(an, pieces)
                assert got == quiver_from_triangles(an, pieces), (
                    an.algebra.relations,
                    [(dec.cycle_class.cycle, shifts) for dec, shifts in pieces],
                )
                quivers += 1
            period_one += any(dec.size == 1 for dec in an.decompositions)
            multi += len(an.decompositions) >= 2
        assert len(coordinate_family) >= 1000 and quivers >= 7000
        assert period_one >= 500 and multi >= 50

    @pytest.mark.parametrize(
        "make", [lambda: fixtures.loop(2), lambda: fixtures.nakayama(1, 3)],
        ids=["loop2", "nakayama1_3"],
    )
    def test_period_one_class(self, make):
        # with |c| = 1 the translate of a vertex is the vertex itself at
        # shift j - l(c), and arrows into and out of a middle term coincide
        an = Analysis(make())
        (dec,) = an.decompositions
        for shifts in (None, range(-3, 4)):
            tq = build(an, [(dec, shifts)])
            assert tq == quiver_from_triangles(an, [(dec, shifts)])
        tq = ungraded_ar_quiver(an, dec)
        assert tq.tau == tuple((n, n) for n in range(dec.m))
        assert len(tq.arrows) == 2 * (dec.m - 1)

    def test_ungraded_vertex_numbering(self, coordinate_family):
        # vertex n of the full quiver is perfect path n, that of one class
        # its n-th member; every vertex is complete and tau permutes them
        for an in coordinate_family:
            full = full_ungraded_ar_quiver(an)
            assert len(full.vertices) == len(an.perfect.paths)
            assert all(v.path is p for v, p in zip(full.vertices, an.perfect.paths))
            ones = [ungraded_ar_quiver(an, dec) for dec in an.decompositions]
            for dec, one in zip(an.decompositions, ones):
                assert [v.path for v in one.vertices] == list(dec.members)
            for quiver in (full, *ones):
                ids = range(len(quiver.vertices))
                assert not any(v.incomplete for v in quiver.vertices)
                assert [a for a, _ in quiver.tau] == list(ids)
                assert sorted(b for _, b in quiver.tau) == list(ids)

    @pytest.fixture
    def no_stable_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the AR quiver built a stable object")

        monkeypatch.setattr(stable, "ar_triangle", refuse)
        monkeypatch.setattr(StableObject, "__init__", refuse)
        monkeypatch.setattr(Analysis, "locate", refuse)

    def test_patch_takes_effect(self, star_an, no_stable_objects):
        p = star_an.perfect.paths[0]
        for call in (
            lambda: StableObject(p, 0),
            lambda: stable.ar_triangle(star_an, None),
            lambda: star_an.locate(p),
        ):
            with pytest.raises(AssertionError, match="built a stable object"):
                call()

    def test_no_triangle_object_or_locate(self, no_stable_objects):
        # fresh analyses: no earlier test has filled their caches
        fresh = islice(analyses_with_classes(), 60)
        for an in [*fresh, Analysis(fixtures.lambda_star())]:
            assert len(full_ungraded_ar_quiver(an).vertices) == len(an.perfect.paths)
            for dec in an.decompositions:
                for lo, hi in ((-3, 3), (0, 0)):
                    tq = graded_ar_window(an, dec, lo, hi)
                    assert len(tq.vertices) == (hi - lo + 1) * len(dec.members)


class TestDotWriter:
    """``translation_quiver_dot`` quotes each vertex id once and ranks the
    vertices in one pass; ``reference_ar.dot_from_pairs`` is the writer it
    replaced, and the bytes must not change."""

    def test_same_bytes_as_the_pair_writer(self, coordinate_family):
        quivers = 0
        for an in coordinate_family:
            tqs = [full_ungraded_ar_quiver(an)]
            tqs += [graded_ar_window(an, dec, -3, 3) for dec in an.decompositions]
            for tq in tqs:
                assert emit(tq, "dot") == dot_from_pairs(tq), an.algebra.relations
                quivers += 1
        assert quivers >= 2000


def window_quivers(an):
    """The full ungraded quiver and each class's graded windows at the
    CLI's ``--window`` 0, l(c) and l(c) + 3; the last reaches shift -3."""
    tqs = [full_ungraded_ar_quiver(an)]
    for dec in an.decompositions:
        for w in (0, dec.arrow_length, dec.arrow_length + 3):
            tqs.append(graded_ar_window(an, dec, -w, w))
    return tqs


def relabelled_lambda_star():
    """``lambda_star`` with arrow ids that hold a quote, an ``@`` and
    non-ASCII characters, so every id goes through the string escaper."""
    names = {"a1": 'a"1', "a2": "a@2", "a3": "α₃", "a4": "\U0001d44e4"}
    doc = fixtures.lambda_star_document()
    for arrow in doc["arrows"]:
        arrow["id"] = names.get(arrow["id"], arrow["id"])
    doc["relations"] = [[names.get(a, a) for a in rel] for rel in doc["relations"]]
    return parse_algebra(doc)


class TestJsonRowWriter:
    """``translation_quiver_json`` writes the fixed document row by row;
    ``reference_ar.json_from_pairs`` builds the whole dict and writes it with
    ``json.dumps``, as the writer it replaced did, and the bytes must not
    change."""

    def test_same_bytes_as_the_dict_writer(self, coordinate_family):
        quivers = negative = incomplete = 0
        for an in coordinate_family:
            for tq in window_quivers(an):
                text = emit(tq, "json")
                assert text == json_from_pairs(tq), an.algebra.relations
                quivers += 1
                negative += '@-3"' in text
                incomplete += '"incomplete": true' in text
        assert quivers >= 4000 and negative >= 1000 and incomplete >= 1000

    def test_cm_free_document(self):
        tq = full_ungraded_ar_quiver(Analysis(fixtures.a2()))
        text = emit(tq, "json")
        assert text == json_from_pairs(tq)
        assert '"arrows": [],' in text and '"identification": null,' in text

    def test_escaped_ids(self):
        an = Analysis(relabelled_lambda_star())
        texts = []
        for tq in window_quivers(an):
            texts.append(emit(tq, "json"))
            assert texts[-1] == json_from_pairs(tq)
        joined = "".join(texts)
        # ensure_ascii: the astral character is a surrogate pair
        for escaped in (r'"a\"1.', ".a@2@-3", r"\u03b1\u2083", r"\ud835\udc4e4"):
            assert escaped in joined

    def test_random_draws(self):
        # most draws are CM-free; 76 of these 200 have a cycle class
        rng = random.Random(2026)
        quivers = 0
        for _ in range(200):
            for tq in window_quivers(Analysis(random_algebra(rng))):
                assert emit(tq, "json") == json_from_pairs(tq)
                quivers += 1
        assert quivers >= 400


class TestHasseRowWriter:
    """``hasse_json`` writes the Hasse document row by row;
    ``reference_ar.hasse_from_dict`` builds the whole dict and writes it
    with ``json.dumps``, as the writer it replaced did, and the bytes must
    not change."""

    @staticmethod
    def assert_same_bytes(an):
        for h in (an.hasse_prec, an.hasse_leq):
            assert emit(h, "json") == hasse_from_dict(h), an.algebra.relations

    def test_same_bytes_as_the_dict_writer(self, coordinate_family):
        with_arrows = chains = 0
        for an in coordinate_family:
            self.assert_same_bytes(an)
            for h in (an.hasse_prec, an.hasse_leq):
                with_arrows += bool(h.arrows)
                chains += len(h.components) >= 2
        assert with_arrows >= 1000 and chains >= 300

    def test_cm_free_document(self):
        an = Analysis(fixtures.a2())
        self.assert_same_bytes(an)
        text = emit(an.hasse_leq, "json")
        assert '"arrows": [],' in text and '"vertices": []\n' in text

    def test_escaped_ids(self):
        an = Analysis(relabelled_lambda_star())
        self.assert_same_bytes(an)
        text = emit(an.hasse_prec, "json")
        for escaped in (r'"a\"1.', r"\u03b1\u2083", r"\ud835\udc4e4"):
            assert escaped in text

    def test_random_draws(self):
        # 72 of these 200 draws have a perfect path
        rng = random.Random(2027)
        for _ in range(200):
            self.assert_same_bytes(Analysis(random_algebra(rng)))


# --- mutants of the one AR rule ---------------------------------------------------

_MESH = CycleDecomposition.mesh


def _middle_from_i(dec, i, span):
    """The middle term [i, span-1] in place of [i+1, span-1]."""
    translate, middles = _MESH(dec, i, span)
    return translate, tuple(
        (i, s, d) if s < span else (j, s, d) for j, s, d in middles
    )


def _drop_of_next(dec, i, span):
    """The drop l(r_{i+1}) in place of l(r_i)."""
    (j, s, _), middles = _MESH(dec, i, span)
    drop = dec.factor(i + 1).length
    return (j, s, drop), tuple(
        (jm, sm, drop if sm < span else dm) for jm, sm, dm in middles
    )


def _translate_at_i(dec, i, span):
    """The translate index i in place of i+1."""
    (_, s, d), middles = _MESH(dec, i, span)
    return (i, s, d), middles


class TestOneRule:
    """``CycleDecomposition.mesh`` is the one statement of the AR rule: a
    mutant of it changes the triangles and both AR quiver builders, and
    each then disagrees with the path-keyed references.  The ungraded
    quiver has no shifts, so a mutant of the drop alone leaves it as it is."""

    @pytest.mark.parametrize(
        "mutant, moves_ungraded",
        [(_middle_from_i, True), (_drop_of_next, False), (_translate_at_i, True)],
        ids=["middle-index", "drop", "translate-index"],
    )
    def test_mutant_changes_both(self, star_an, monkeypatch, mutant, moves_ungraded):
        objs = [StableObject(p, s) for p in star_an.perfect.paths for s in (-1, 0, 2)]
        pieces = [(dec, range(-3, 4)) for dec in star_an.decompositions]
        ungraded_pieces = [(dec, None) for dec in star_an.decompositions]
        triangles = [ar_triangle(star_an, x) for x in objs]
        quiver = ar_quiver(pieces)
        ungraded = full_ungraded_ar_quiver(star_an)
        monkeypatch.setattr(CycleDecomposition, "mesh", mutant)
        mutated = [ar_triangle(star_an, x) for x in objs]
        assert mutated != triangles
        assert mutated != [reference_stable.ar_triangle(star_an, x) for x in objs]
        mutated_quiver = ar_quiver(pieces)
        assert mutated_quiver != quiver
        assert mutated_quiver != quiver_from_triangles(star_an, pieces)
        mutated_ungraded = full_ungraded_ar_quiver(star_an)
        if moves_ungraded:
            assert mutated_ungraded != ungraded
            assert mutated_ungraded != quiver_from_triangles(star_an, ungraded_pieces)
        else:
            assert mutated_ungraded == ungraded

    def test_translates_read_the_mesh(self, star_an, monkeypatch):
        x = StableObject(star_an.perfect.paths[0], 0)
        before = (ar_translate(star_an, x), ar_translate_inverse(star_an, x))
        monkeypatch.setattr(CycleDecomposition, "mesh", _drop_of_next)
        after = (ar_translate(star_an, x), ar_translate_inverse(star_an, x))
        assert all(a != b for a, b in zip(before, after))
