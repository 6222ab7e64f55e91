import pytest

from gpstable import fixtures, stable
from gpstable.algebra import InputError, parse_algebra, parse_path_string
from gpstable.analysis import Analysis
from gpstable.oracle import bf_ordinary_hom, bf_stable_hom
from gpstable.stable import (
    HomDescription,
    StableObject,
    ar_translate,
    ar_triangle,
    classify,
    end_algebra,
    graded_stable_hom,
    suspend,
    suspension_closed_form,
    tau_periodicity_check,
    tilting_object,
    ungraded_stable_hom,
)
from reference_scan import FIXTURES


@pytest.fixture(scope="module")
def star_an():
    return Analysis(fixtures.lambda_star())


def pp(an, text):
    return parse_path_string(an.algebra.quiver, text)


def obj(an, text, shift=0):
    return StableObject(pp(an, text), shift)


class TestValueSemantics:
    """StableObject and HomDescription are immutable values: compared and
    hashed by their fields, printed as before."""

    def test_equal_fields_equal_objects(self, star_an):
        p = pp(star_an, "a1.a2.a3")
        a, b = StableObject(p, 2), StableObject(pp(star_an, "a1.a2.a3"), 2)
        assert a == b and hash(a) == hash(b)
        assert StableObject(p) == StableObject(p, 0)
        assert a != StableObject(p, 3)
        assert len({a, b, StableObject(p, 3)}) == 2

    def test_unpacks_and_equals_its_tuple(self, star_an):
        p = pp(star_an, "a1.a2.a3")
        path, shift = StableObject(p, 2)
        assert (path, shift) == (p, 2) == StableObject(p, 2)
        h = HomDescription(1, witness=p)
        assert h == (1, p, None)

    @pytest.mark.parametrize("field", ["path", "shift"])
    def test_object_fields_are_read_only(self, star_an, field):
        x = obj(star_an, "a1.a2.a3", 2)
        with pytest.raises(AttributeError):
            setattr(x, field, None)

    @pytest.mark.parametrize("field", ["dimension", "witness", "by_shift"])
    def test_hom_fields_are_read_only(self, field):
        with pytest.raises(AttributeError):
            setattr(HomDescription(0), field, None)

    def test_repr_and_str(self, star_an):
        p = pp(star_an, "a1.a2.a3")
        assert repr(StableObject(p, 2)) == f"StableObject(path={p!r}, shift=2)"
        assert repr(p).startswith("Path(")
        assert str(StableObject(p, 2)) == "a1.a2.a3(2)"
        assert str(StableObject(p, -1)) == "a1.a2.a3(-1)"
        assert str(StableObject(p)) == "a1.a2.a3"

    def test_hom_defaults(self):
        h = HomDescription(0)
        assert (h.dimension, h.witness, h.by_shift) == (0, None, None)
        assert repr(h) == "HomDescription(dimension=0, witness=None, by_shift=None)"

    def test_empty_homs_are_shared(self, star_an):
        a, b = pp(star_an, "a1.a2"), pp(star_an, "a4.a5")
        # across classes, and inside one class at a shift no translate fits
        for h in (
            graded_stable_hom(star_an, StableObject(a), StableObject(b)),
            graded_stable_hom(star_an, StableObject(a), StableObject(a, 1)),
        ):
            assert h is stable._NO_HOM
        for p, q in ((a, b), (a, pp(star_an, "a3"))):
            assert ungraded_stable_hom(star_an, p, q) is stable._NO_UNGRADED_HOM
        assert stable._NO_HOM == HomDescription(0)
        assert stable._NO_UNGRADED_HOM == HomDescription(0, by_shift=())


class TestGradedHom:
    def test_up_the_chain(self, star_an):
        h = graded_stable_hom(
            star_an, obj(star_an, "a1.a2.a3"), obj(star_an, "a1.a2.a3.a1.a2", 3)
        )
        assert h.dimension == 1
        assert str(h.witness) == "a1.a2.a3.a1.a2.a3"

    def test_canonical_inclusion(self, star_an):
        h = graded_stable_hom(
            star_an, obj(star_an, "a1.a2.a3.a1.a2"), obj(star_an, "a1.a2.a3")
        )
        assert h.dimension == 1
        assert str(h.witness) == "a1.a2.a3.a1.a2"

    def test_cross_class_vanishes(self, star_an):
        for k in range(-4, 8):
            h = graded_stable_hom(
                star_an, obj(star_an, "a1.a2"), obj(star_an, "a4.a5", k)
            )
            assert h.dimension == 0

    def test_shift_normalisation(self, star_an):
        a = obj(star_an, "a1.a2.a3", 5)
        b = obj(star_an, "a1.a2.a3.a1.a2", 8)
        assert graded_stable_hom(star_an, a, b).dimension == 1

    def test_zero_object_rejected(self, star_an):
        with pytest.raises(InputError):
            graded_stable_hom(star_an, StableObject(None), obj(star_an, "a3"))

    def test_matches_oracle_everywhere(self, star_an):
        alg = star_an.algebra
        for p in star_an.perfect.paths:
            for q in star_an.perfect.paths:
                _, by_shift = bf_stable_hom(alg, p, q)
                for k in range(-2, q.length + 2):
                    wit = by_shift.get(k, ())
                    h = graded_stable_hom(
                        star_an, StableObject(p, 0), StableObject(q, k)
                    )
                    assert h.dimension == len(wit) <= 1
                    if wit:
                        assert h.witness == wit[0]


class TestUngradedHom:
    def test_chain_pair(self, star_an):
        h = ungraded_stable_hom(
            star_an, pp(star_an, "a1.a2.a3"), pp(star_an, "a1.a2.a3.a1.a2")
        )
        assert h.dimension == 1
        assert h.by_shift == ((3, pp(star_an, "a1.a2.a3.a1.a2.a3")),)

    def test_identity_only_endomorphism(self, star_an):
        h = ungraded_stable_hom(star_an, pp(star_an, "a1.a2"), pp(star_an, "a1.a2"))
        assert h.dimension == 1
        assert h.by_shift[0][0] == 0

    def test_cross_class_zero(self, star_an):
        h = ungraded_stable_hom(star_an, pp(star_an, "a3"), pp(star_an, "a4.a5"))
        assert h.dimension == 0

    def test_ordinary_hom_can_cross_classes(self, star_an):
        # The ordinary (unstable) Hom between the two elementary modules of
        # different classes is non-zero thanks to the bridge arrow.
        dim, witnesses = bf_ordinary_hom(
            star_an.algebra,
            pp(star_an, "a4.a5.a4.a5.a4.a5"),
            pp(star_an, "a1.a2.a3.a1.a2.a3"),
        )
        assert dim > 0
        assert all(w.arrows[:6] == ("a1", "a2", "a3") * 2 for w in witnesses)


class TestSuspension:
    def test_pair_rule(self, star_an):
        got = suspend(star_an, obj(star_an, "a3.a1.a2.a3.a1.a2"), 1)
        assert got == obj(star_an, "a1.a2", 2)

    def test_round_trip(self, star_an):
        for p in star_an.perfect.paths:
            o = StableObject(p, 7)
            assert suspend(star_an, suspend(star_an, o, 1), -1) == o
            assert suspend(star_an, suspend(star_an, o, -3), 3) == o

    def test_loop_one(self):
        an = Analysis(fixtures.loop(1))
        x = an.perfect.paths[0]
        assert suspend(an, StableObject(x, 0), 1) == StableObject(x, 1)

    def test_closed_form_agrees(self, star_an):
        for dec in star_an.decompositions:
            for i_prime in range(1, dec.m + 1):
                start = StableObject(dec.chain[i_prime - 1], 0)
                for power in range(-2 * (dec.m + 1), 2 * (dec.m + 1) + 1):
                    assert suspension_closed_form(
                        star_an, dec, i_prime, power
                    ) == suspend(star_an, start, power)


class TestAuslanderReiten:
    def test_translate(self, star_an):
        assert ar_translate(star_an, obj(star_an, "a1.a2.a3")) == obj(
            star_an, "a3.a1.a2", -2
        )

    def test_triangle_bottom_row(self, star_an):
        tri = ar_triangle(star_an, obj(star_an, "a1.a2"))
        assert [str(m) for m in tri.middles] == ["a1.a2.a3"]

    def test_triangle_top_row(self, star_an):
        tri = ar_triangle(star_an, obj(star_an, "a1.a2.a3.a1.a2.a3"))
        assert [str(m) for m in tri.middles] == ["a3.a1.a2.a3(-2)"]

    def test_connecting_witness_nonzero(self, star_an):
        for p in star_an.perfect.paths:
            tri = ar_triangle(star_an, StableObject(p, 0))
            assert not star_an.algebra.is_zero(tri.connecting_witness)
            assert tri.connecting_witness in set(star_an.perfect.paths)

    def test_tau_squared_is_shift(self, star_an):
        twice = ar_translate(star_an, ar_translate(star_an, obj(star_an, "a1.a2.a3")))
        assert twice == obj(star_an, "a1.a2.a3", -3)

    def test_tau_two_cycle_class(self, star_an):
        assert ar_translate(star_an, obj(star_an, "a4.a5")) == obj(
            star_an, "a4.a5", -2
        )

    def test_loop_translation(self):
        for m in (1, 2, 3):
            an = Analysis(fixtures.loop(m))
            for p in an.perfect.paths:
                assert ar_translate(an, StableObject(p, 0)) == StableObject(p, -1)

    def test_periodicity_all_classes(self, star_an):
        for dec in star_an.decompositions:
            assert tau_periodicity_check(star_an, dec)

    def test_dimension_identity(self, star_an):
        alg = star_an.algebra
        for p in star_an.perfect.paths:
            dec, _, span = star_an.locate(p)
            if not 1 < span < dec.m:
                continue
            tri = ar_triangle(star_an, StableObject(p, 0))
            left = alg.module_dim(tri.tau_object.path) + alg.module_dim(p)
            right = sum(alg.module_dim(m.path) for m in tri.middles)
            assert left == right


class TestTilting:
    def test_summand_count(self, star_an):
        assert len(tilting_object(star_an)) == 4 * 3 + 3 * 2

    def test_end_blocks(self, star_an):
        blocks = end_algebra(star_an)
        by_cycle = {str(b.cycle): b for b in blocks}
        assert by_cycle["a1.a2.a3"].size == 4
        assert by_cycle["a1.a2.a3"].multiplicity == 3
        assert by_cycle["a4.a5"].size == 3
        assert by_cycle["a4.a5"].multiplicity == 2
        for b in blocks:
            for a in range(b.size):
                for c in range(b.size):
                    assert b.pattern[a][c] == (1 if c <= a else 0)

    @pytest.mark.parametrize(
        "fixture", sorted(f.name for f in FIXTURES.glob("*.json"))
    )
    def test_end_blocks_call_no_hom(self, fixture, monkeypatch):
        def refuse(*args):
            raise AssertionError("End(T) asked for a Hom space")

        monkeypatch.setattr(stable, "graded_stable_hom", refuse)
        an = Analysis(parse_algebra((FIXTURES / fixture).read_text()))
        blocks = end_algebra(an)
        assert [(b.cycle, b.size, b.multiplicity) for b in blocks] == [
            (dec.cycle_class.cycle, dec.m, dec.arrow_length)
            for dec in an.decompositions
        ]
        for b in blocks:
            assert b.pattern == tuple(
                tuple(1 if c <= a else 0 for c in range(b.size))
                for a in range(b.size)
            )

    def test_orthogonality_window(self, star_an):
        for dec in star_an.decompositions:
            window = dec.m + 1
            summands = [
                StableObject(p, s)
                for p in dec.chain
                for s in range(dec.arrow_length)
            ]
            for x in summands:
                for y in summands:
                    for power in range(-window, window + 1):
                        if power == 0:
                            continue
                        assert (
                            graded_stable_hom(
                                star_an, x, suspend(star_an, y, power)
                            ).dimension
                            == 0
                        )

    def test_shift_block_separation(self, star_an):
        for dec in star_an.decompositions:
            for a in dec.chain:
                for b in dec.chain:
                    for k in range(-2 * dec.arrow_length, 2 * dec.arrow_length + 1):
                        dim = graded_stable_hom(
                            star_an, StableObject(a, 0), StableObject(b, k)
                        ).dimension
                        if k % dec.arrow_length:
                            assert dim == 0


class TestClassification:
    def test_star(self, star_an):
        rep = classify(star_an)
        assert rep.to_json_dict() == {
            "graded": [
                {"cycle": "a4.a5", "typeA_size": 3, "multiplicity": 2},
                {"cycle": "a1.a2.a3", "typeA_size": 4, "multiplicity": 3},
            ],
            "ungraded": [
                {"vertices": 1, "radical_exponent": 4},
                {"vertices": 2, "radical_exponent": 5},
            ],
            "cm_free": False,
        }

    def test_a2_cm_free(self):
        rep = classify(Analysis(fixtures.a2()))
        assert rep.cm_free and not rep.graded and not rep.ungraded

    def test_nakayama_self_description(self):
        for n in (1, 2, 3, 4):
            for m in (1, 2, 3, 4):
                rep = classify(Analysis(fixtures.nakayama(n, m)))
                assert len(rep.graded) == 1
                assert rep.graded[0].typeA_size == m
                assert rep.graded[0].multiplicity == n
                assert rep.ungraded[0].vertices == n
                assert rep.ungraded[0].radical_exponent == m + 1

    def test_declared_degrees_rejected(self):
        # every graded closed form shifts by arrow length, so no query may
        # run on an algebra whose input declared other degrees
        doc = fixtures.lambda_star_document()
        doc["arrow_degrees"] = {"a1": 2, "a4": 3}
        with pytest.raises(InputError, match="shifts by arrow length"):
            parse_algebra(doc)

    def test_quadratic_all_a1(self):
        rep = classify(Analysis(fixtures.quadratic()))
        assert all(f.typeA_size == 1 for f in rep.graded)
        assert all(f.radical_exponent == 2 for f in rep.ungraded)
