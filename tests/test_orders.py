import operator
from functools import reduce

import pytest

from gpstable import fixtures
from gpstable.algebra import InternalConsistencyError, parse_path_string
from gpstable.analysis import Analysis
from gpstable.oracle import bf_factorizations
from gpstable.orders import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LEQ,
    LESS,
    PREC,
    coelementary_factorization,
    cycle_predicates,
    hasse_quiver,
    order_compare,
)


@pytest.fixture(scope="module")
def star_an():
    return Analysis(fixtures.lambda_star())


def pp(an, text):
    return parse_path_string(an.algebra.quiver, text)


class TestOrderCompare:
    def test_prefix_order(self, star_an):
        a12 = pp(star_an, "a1.a2")
        a123 = pp(star_an, "a1.a2.a3")
        assert order_compare(a12, a123, PREC) == LESS
        assert order_compare(a123, a12, PREC) == GREATER
        assert order_compare(a12, a12, PREC) == EQUAL

    def test_suffix_order(self, star_an):
        # a3.a1.a2 is a right divisor of a1.a2.a3.a1.a2, which places the
        # longer path strictly below the shorter one.
        long = pp(star_an, "a1.a2.a3.a1.a2")
        short = pp(star_an, "a3.a1.a2")
        assert order_compare(long, short, LEQ) == LESS
        assert order_compare(short, long, LEQ) == GREATER

    def test_incomparable(self, star_an):
        assert (
            order_compare(pp(star_an, "a3"), pp(star_an, "a4.a5"), PREC)
            == INCOMPARABLE
        )

    def test_reflexive(self, star_an):
        for p in star_an.perfect.paths:
            assert order_compare(p, p, PREC) == EQUAL
            assert order_compare(p, p, LEQ) == EQUAL


PREC_COMPONENTS = [
    ("a1.a2.a3.a1.a2.a3", "a1.a2.a3.a1.a2", "a1.a2.a3", "a1.a2"),
    ("a3.a1.a2.a3.a1.a2", "a3.a1.a2.a3", "a3.a1.a2", "a3"),
    ("a4.a5.a4.a5.a4.a5", "a4.a5.a4.a5", "a4.a5"),
]

LEQ_COMPONENTS = [
    ("a1.a2", "a3.a1.a2", "a1.a2.a3.a1.a2", "a3.a1.a2.a3.a1.a2"),
    ("a3", "a1.a2.a3", "a3.a1.a2.a3", "a1.a2.a3.a1.a2.a3"),
    ("a4.a5", "a4.a5.a4.a5", "a4.a5.a4.a5.a4.a5"),
]


class TestHasse:
    def test_star_prec_components(self, star_an):
        h = star_an.hasse_prec
        assert {tuple(map(str, c)) for c in h.components} == set(PREC_COMPONENTS)

    def test_star_leq_components(self, star_an):
        h = star_an.hasse_leq
        assert {tuple(map(str, c)) for c in h.components} == set(LEQ_COMPONENTS)

    def test_degree_bounds(self, star_an):
        for h in (star_an.hasse_prec, star_an.hasse_leq):
            heads = [a for a, _ in h.arrows]
            tails = [b for _, b in h.arrows]
            assert len(set(heads)) == len(heads)
            assert len(set(tails)) == len(tails)

    def test_loop_one_isolated(self):
        an = Analysis(fixtures.loop(1))
        h = an.hasse_prec
        assert len(h.vertices) == 1 and not h.arrows

    def test_arrow_complement_is_coelementary(self, star_an):
        coel = set(star_an.coelementary)
        for q, p in star_an.hasse_prec.arrows:
            assert p.left_divides(q)
            assert q.window(p.length, q.length) in coel


class TestFiltrationView:
    def test_chain_above(self, star_an):
        h = star_an.hasse_prec
        p = pp(star_an, "a1.a2.a3")
        assert [str(x) for x in h.chain_above(p)] == [
            "a1.a2.a3.a1.a2.a3",
            "a1.a2.a3.a1.a2",
            "a1.a2.a3",
        ]
        # successive quotients along the chain are elementary perfect paths:
        # each covering complement recombines with the predecessor pair.
        chain = h.chain_above(p)
        for above, below in zip(chain, chain[1:]):
            assert below.left_divides(above)
            complement = above.window(below.length, above.length)
            assert complement in set(star_an.coelementary)

    def test_top_of_chain_is_elementary(self, star_an):
        h = star_an.hasse_prec
        for p in star_an.perfect.paths:
            assert h.chain_above(p)[0] in set(star_an.elementary)


class TestElementary:
    def test_star_sets(self, star_an):
        assert {str(p) for p in star_an.elementary} == {
            "a1.a2.a3.a1.a2.a3",
            "a3.a1.a2.a3.a1.a2",
            "a4.a5.a4.a5.a4.a5",
        }
        assert {str(p) for p in star_an.coelementary} == {"a1.a2", "a3", "a4.a5"}

    def test_loop_sets(self):
        for m in (1, 2, 3, 4):
            an = Analysis(fixtures.loop(m))
            assert [str(p) for p in an.elementary] == ["x" + ".x" * (m - 1)]
            assert [str(p) for p in an.coelementary] == ["x"]

    def test_quadratic_everything_both(self):
        an = Analysis(fixtures.quadratic())
        assert set(an.elementary) == set(an.perfect.paths) == set(an.coelementary)

    def test_counts_match(self, star_an):
        assert len(star_an.elementary) == len(star_an.coelementary)


class TestFactorization:
    def test_star_long_elementary(self, star_an):
        p = pp(star_an, "a1.a2.a3.a1.a2.a3")
        facs = coelementary_factorization(p, star_an.coelementary)
        assert [str(f) for f in facs] == ["a1.a2", "a3", "a1.a2", "a3"]

    def test_already_coelementary(self, star_an):
        p = pp(star_an, "a3")
        assert coelementary_factorization(p, star_an.coelementary) == (p,)

    def test_loop3_cube(self):
        an = Analysis(fixtures.loop(3))
        x = pp(an, "x")
        assert coelementary_factorization(pp(an, "x.x.x"), an.coelementary) == (
            x,
            x,
            x,
        )

    def test_unique_by_exhaustion(self, star_an):
        for p in star_an.perfect.paths:
            facs = bf_factorizations(p, star_an.coelementary)
            assert len(facs) == 1
            assert facs[0] == coelementary_factorization(p, star_an.coelementary)

    def test_recomposition(self, star_an):
        for p in star_an.perfect.paths:
            factors = coelementary_factorization(p, star_an.coelementary)
            assert reduce(operator.mul, factors) == p


class TestDecomposition:
    def test_star_three_cycle(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        assert [str(f) for f in dec.factors] == ["a1.a2", "a3"]
        assert (dec.size, dec.arrow_length, dec.m) == (2, 3, 4)
        assert [str(p) for p in dec.chain] == [
            "a1.a2",
            "a1.a2.a3",
            "a1.a2.a3.a1.a2",
            "a1.a2.a3.a1.a2.a3",
        ]

    def test_star_two_cycle(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a4.a5"))
        assert (dec.size, dec.arrow_length, dec.m) == (1, 2, 3)

    def test_nakayama_invariants(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                an = Analysis(fixtures.nakayama(n, m))
                (dec,) = an.decompositions
                assert (dec.size, dec.arrow_length, dec.m) == (n, n, m)

    def test_count_identity(self, star_an):
        total = sum(d.m * d.size for d in star_an.decompositions)
        assert total == len(star_an.perfect.paths) == 11

    def test_elementary_windows(self, star_an):
        for dec in star_an.decompositions:
            assert set(dec.elementary) == {
                dec.realize(i, i + dec.m - 1) for i in range(1, dec.size + 1)
            }
            assert len(dec.elementary) == len(dec.coelementary) == dec.size

    def test_phi_bijection(self, star_an):
        for dec in star_an.decompositions:
            assert sorted(dec.phi.values(), key=lambda p: p.sort_key()) == sorted(
                dec.factors, key=lambda p: p.sort_key()
            )


class TestBracket:
    def test_realize_chain(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        path = dec.realize(1, 4)
        assert str(path) == "a1.a2.a3.a1.a2.a3" and not star_an.algebra.is_zero(path)

    def test_index_reduction(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        assert dec.realize(7, 7) == dec.factors[0]

    def test_zero_marker(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        path = dec.realize(1, 5)
        assert star_an.algebra.is_zero(path)
        assert path in set(star_an.algebra.relations)

    def test_empty_window_trivial(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        path = dec.realize(3, 2)
        assert path.is_trivial and not star_an.algebra.is_zero(path)

    def test_length_between(self, star_an):
        dec = star_an.decomposition_for(pp(star_an, "a1.a2"))
        assert dec.length_between(1, 2) == 3
        assert dec.length_between(1, 4) == 6
        assert dec.length_between(2, 1) == 0
        assert dec.length_between(-1, 0) == 3


class TestCyclePredicates:
    def test_nakayama(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                an = Analysis(fixtures.nakayama(n, m))
                (dec,) = an.decompositions
                preds = cycle_predicates(an.algebra, dec, an.perfect.paths)
                assert preds.all_arrows_perfect
                assert preds.repetition_free
                assert preds.relation_length == m + 1

    def test_star(self, star_an):
        dec3 = star_an.decomposition_for(pp(star_an, "a1.a2"))
        preds = cycle_predicates(star_an.algebra, dec3, star_an.perfect.paths)
        assert not preds.all_arrows_perfect
        assert not preds.repetition_free

    def test_loop(self):
        for m in (1, 2, 3):
            an = Analysis(fixtures.loop(m))
            (dec,) = an.decompositions
            preds = cycle_predicates(an.algebra, dec, an.perfect.paths)
            assert preds.all_arrows_perfect
            assert preds.relation_length == m + 1


def test_hasse_rejects_non_chain_posets():
    # Two parallel arrows extending the same trivial path give it
    # in-degree 2 in the prefix-order Hasse quiver; the builder must
    # refuse such inputs loudly.
    from gpstable.algebra import Arrow, Quiver

    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    fake = [q.trivial("1"), q.path(["a"]), q.path(["b"])]
    with pytest.raises(InternalConsistencyError):
        hasse_quiver(fake, PREC)
