import operator
import random
from functools import reduce

import pytest

from gpstable import fixtures
from gpstable.algebra import (
    InputError,
    InternalConsistencyError,
    Path,
    parse_algebra,
    parse_path_string,
)
from gpstable.analysis import Analysis
from gpstable.oracle import bf_factorizations
from gpstable.orders import (
    LEQ,
    PREC,
    classify_elementary,
    cycle_predicates,
    decompose_cycle,
    hasse_quiver,
)
from gpstable.perfect import enumerate_perfect_paths
from reference_scan import (
    FIXTURES,
    equivalence_algebras,
    reduction_hasse_arrows,
    rotation,
    trie_algebras,
)


@pytest.fixture(scope="module")
def star_an():
    return Analysis(fixtures.lambda_star())


def pp(an, text):
    return parse_path_string(an.algebra.quiver, text)


def factorization(an, p):
    """The co-elementary factors of a perfect path, read off its coordinates."""
    dec, i, span = an.locate(p)
    return tuple(dec.factor(t) for t in range(i, i + span))


class TestDivisibilityOrders:
    """p is below q in the prefix order when p left-divides q, and in the
    suffix order when q right-divides p."""

    def test_prefix_order(self, star_an):
        a12 = pp(star_an, "a1.a2")
        a123 = pp(star_an, "a1.a2.a3")
        assert a12.left_divides(a123) and not a123.left_divides(a12)

    def test_suffix_order(self, star_an):
        # a3.a1.a2 is a right divisor of a1.a2.a3.a1.a2, which places the
        # longer path strictly below the shorter one.
        long = pp(star_an, "a1.a2.a3.a1.a2")
        short = pp(star_an, "a3.a1.a2")
        assert short.right_divides(long) and not long.right_divides(short)

    def test_incomparable(self, star_an):
        a3, a45 = pp(star_an, "a3"), pp(star_an, "a4.a5")
        assert not a3.left_divides(a45) and not a45.left_divides(a3)

    def test_reflexive(self, star_an):
        for p in star_an.perfect.paths:
            assert p.left_divides(p) and p.right_divides(p)


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


class TestLinearHasseEquivalence:
    """Longest-proper-prefix/suffix covers agree with the transitive
    reduction of the order."""

    def test_perfect_paths_match_reduction(self):
        for alg in equivalence_algebras():
            paths = enumerate_perfect_paths(alg).paths
            for order in (PREC, LEQ):
                assert hasse_quiver(paths, order).arrows == reduction_hasse_arrows(
                    paths, order
                ), (alg.relations, order)

    def test_arbitrary_path_sets_match_reduction(self):
        # Random sets of non-zero paths, trivial ones included: wherever the
        # reduction is a union of chains the arrows agree, and wherever it
        # is not hasse_quiver refuses.
        rng = random.Random(3)
        refused = 0
        for alg in equivalence_algebras():
            pool = alg.basis_sorted
            paths = rng.sample(pool, min(len(pool), 10))
            for order in (PREC, LEQ):
                ref = reduction_hasse_arrows(paths, order)
                heads = [a for a, _ in ref]
                tails = [b for _, b in ref]
                if len(set(heads)) < len(heads) or len(set(tails)) < len(tails):
                    refused += 1
                    with pytest.raises(InternalConsistencyError):
                        hasse_quiver(paths, order)
                else:
                    assert hasse_quiver(paths, order).arrows == ref
        assert refused >= 100


class TestFiltrationView:
    """The bracket grid is read off the relations the perfect pairs cut; the
    prefix-order chain above p, read from the top down, is the end of p's
    window row: [i, i+m-1] down to [i, i+span-1]."""

    @pytest.fixture(
        scope="class",
        params=[*sorted(f.name for f in FIXTURES.glob("*.json")), "trie_algebras"],
    )
    def analyses(self, request):
        """One fixture document, or ``trie_algebras()``, the ``reference_scan``
        family that contains ``equivalence_algebras()``."""
        if request.param == "trie_algebras":
            algs = trie_algebras()
        else:
            algs = (parse_algebra((FIXTURES / request.param).read_text()),)
        return tuple(Analysis(alg) for alg in algs)

    @staticmethod
    def chain_above(an, p):
        dec, i, span = an.locate(p)
        return dec.windows[i - 1][span - 1 :][::-1]

    def test_chain_above(self, star_an):
        p = pp(star_an, "a1.a2.a3")
        chain = self.chain_above(star_an, p)
        assert [str(x) for x in chain] == [
            "a1.a2.a3.a1.a2.a3",
            "a1.a2.a3.a1.a2",
            "a1.a2.a3",
        ]
        # successive quotients along the chain are elementary perfect paths:
        # each covering complement recombines with the predecessor pair.
        for above, below in zip(chain, chain[1:]):
            assert below.left_divides(above)
            complement = above.window(below.length, above.length)
            assert complement in set(star_an.coelementary)

    def test_rows_are_the_hasse_chains(self, analyses):
        # every row of the grid is the reversed prefix-order Hasse
        # component that starts at its factor, and every component is a row
        for an in analyses:
            by_bottom = {c[-1]: c[::-1] for c in an.hasse_prec.components}
            rows = [row for dec in an.decompositions for row in dec.windows]
            assert len(rows) == len(by_bottom)
            for row in rows:
                assert row == by_bottom[row[0]], an.algebra.relations

    def test_class_sets_are_the_hasse_sources_and_sinks(self, analyses):
        # the grid's row tops and factors, in the order the Hasse quivers
        # list their sources and sinks
        for an in analyses:
            hasse_pair = classify_elementary(an.hasse_prec, an.hasse_leq)
            assert (an.elementary, an.coelementary) == hasse_pair

    def test_top_of_chain_is_elementary(self, analyses):
        for an in analyses:
            elementary = set(an.elementary)
            for p in an.perfect.paths:
                assert self.chain_above(an, p)[0] in elementary


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
        facs = factorization(star_an, p)
        assert [str(f) for f in facs] == ["a1.a2", "a3", "a1.a2", "a3"]

    def test_already_coelementary(self, star_an):
        p = pp(star_an, "a3")
        assert factorization(star_an, p) == (p,)

    def test_loop3_cube(self):
        an = Analysis(fixtures.loop(3))
        x = pp(an, "x")
        assert factorization(an, pp(an, "x.x.x")) == (x, x, x)

    def test_unique_by_exhaustion(self, star_an):
        for p in star_an.perfect.paths:
            facs = bf_factorizations(p, star_an.coelementary)
            assert facs == (factorization(star_an, p),)

    def test_recomposition(self, star_an):
        for p in star_an.perfect.paths:
            assert reduce(operator.mul, factorization(star_an, p)) == p


def winding_twice():
    return parse_algebra(
        {
            "vertices": ["v1", "v2", "v3"],
            "arrows": [
                {"id": "a1", "from": "v3", "to": "v1"},
                {"id": "a2", "from": "v2", "to": "v1"},
                {"id": "a3", "from": "v1", "to": "v3"},
            ],
            "relations": [
                ["a2", "a3", "a1"],
                ["a1", "a3", "a1", "a3"],
                ["a3", "a1", "a3", "a1"],
            ],
        }
    )


def off_boundary_minimum():
    # factors a2.a1 and a3: the anchor a2.a1.a3 is the least rotation at a
    # factor boundary, while the least rotation a1.a3.a2 starts inside a2.a1
    return parse_algebra(
        {
            "vertices": ["v1", "v2", "v3", "v4"],
            "arrows": [
                {"id": "a1", "from": "v4", "to": "v3"},
                {"id": "a2", "from": "v1", "to": "v4"},
                {"id": "a3", "from": "v3", "to": "v1"},
            ],
            "relations": [["a3", "a2", "a1", "a3"], ["a2", "a1", "a3", "a2", "a1"]],
        }
    )


class TestDecomposition:
    def test_star_three_cycle(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        assert [str(f) for f in dec.factors] == ["a1.a2", "a3"]
        assert (dec.size, dec.arrow_length, dec.m) == (2, 3, 4)
        assert [str(p) for p in dec.chain] == [
            "a1.a2",
            "a1.a2.a3",
            "a1.a2.a3.a1.a2",
            "a1.a2.a3.a1.a2.a3",
        ]

    def test_star_two_cycle(self, star_an):
        dec = star_an.locate(pp(star_an, "a4.a5"))[0]
        assert (dec.size, dec.arrow_length, dec.m) == (1, 2, 3)

    def test_factors_wind_twice(self):
        # the perfect paths a3 and a1.a3.a1 only tile the square of the
        # 2-cycle a1.a3: a2.a3.a1 = 0 spoils the pair (a3.a1, a3.a1)
        (dec,) = Analysis(winding_twice()).decompositions
        assert str(dec.cycle_class.cycle) == "a1.a3"
        assert str(dec.anchored_cycle) == "a1.a3.a1.a3"
        assert [str(f) for f in dec.factors] == ["a1.a3.a1", "a3"]
        assert (dec.size, dec.arrow_length, dec.m) == (2, 4, 1)

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
        # phi: elementary -> co-elementary is the successor map
        successor = star_an.perfect.successor
        for dec in star_an.decompositions:
            phi = sorted((successor[x] for x in dec.elementary), key=Path.sort_key)
            assert phi == sorted(dec.factors, key=Path.sort_key)


class TestDecompositionByCutSearch:
    """The decompositions against the exhaustive factorization search of the
    oracle, with the co-elementary paths read off the definition (perfect
    paths with no proper perfect prefix) rather than the Hasse chains."""

    @staticmethod
    def decompositions():
        for alg in (*equivalence_algebras(), winding_twice(), off_boundary_minimum()):
            an = Analysis(alg)
            paths = an.perfect.paths
            coel = [p for p in paths if not any(q != p and q.left_divides(p) for q in paths)]
            for dec in an.decompositions:
                yield coel, dec

    def test_decompositions_match_cut_search(self):
        seen = []
        for coel, dec in self.decompositions():
            anchored, root, n = dec.anchored_cycle, dec.cycle_class.cycle, dec.size
            assert bf_factorizations(anchored, coel) == (dec.factors,)
            # anchored = c^d up to rotation, d the least power with a
            # rotation that factors
            d, rest = divmod(anchored.length, root.length)
            assert rest == 0 and anchored.source == anchored.target
            word = root.arrows * d
            assert anchored.arrows in {word[s:] + word[:s] for s in range(root.length)}
            for e in range(1, d):
                power = reduce(operator.mul, [root] * e)
                assert not any(
                    bf_factorizations(rotation(power, s), coel) for s in range(root.length)
                )
            # the anchor is the least rotation at a factor boundary
            for cut in dec.prefix_lengths[1:-1]:
                assert anchored.arrows < rotation(anchored, cut).arrows
            for i, row in enumerate(dec.windows, 1):
                assert len(row) == dec.m
                for span, p in enumerate(row, 1):
                    factors = [dec.factors[(t - 1) % n] for t in range(i, i + span)]
                    assert p == reduce(operator.mul, factors)
            seen.append((dec.m, n, d))
        # 155 classes here: 91 with m > 1, 28 of them with several factors
        assert sum(m > 1 for m, _, _ in seen) >= 80
        assert sum(m > 1 and n > 1 for m, n, _ in seen) >= 20
        assert max(m for m, _, _ in seen) >= 6
        assert any(d > 1 for _, _, d in seen)


class TestBracket:
    def test_realize_chain(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        path = dec.realize(1, 4)
        assert str(path) == "a1.a2.a3.a1.a2.a3" and not star_an.algebra.is_zero(path)

    def test_index_reduction(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        assert dec.realize(7, 7) == dec.factors[0]

    def test_zero_marker(self, star_an):
        # m + 1 factors make a relation, which no window realizes
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        path = reduce(operator.mul, [dec.factor(t) for t in range(1, dec.m + 2)])
        assert star_an.algebra.is_zero(path)
        assert path in set(star_an.algebra.relations)
        with pytest.raises(InputError, match=r"window \[1,5\] spans 5 factors"):
            dec.realize(1, dec.m + 1)

    def test_empty_window_rejected(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
        with pytest.raises(InputError, match=r"perfect windows span 1\.\.4"):
            dec.realize(3, 2)

    def test_length_between(self, star_an):
        dec = star_an.locate(pp(star_an, "a1.a2"))[0]
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
        dec3 = star_an.locate(pp(star_an, "a1.a2"))[0]
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


def test_decompose_names_a_closing_window_that_is_no_relation():
    an = Analysis(fixtures.loop(2))
    (cls,), successor = an.classes, an.perfect.successor
    alg = an.algebra
    alg.relation_words = frozenset()  # no relation left to close a row
    with pytest.raises(InternalConsistencyError, match=r"= x\.x\.x is not a minimal"):
        decompose_cycle(alg, cls, successor)


def test_decompose_names_a_member_without_successor():
    # a broken pair map is an internal error that names the member, never
    # a KeyError traceback
    an = Analysis(fixtures.loop(2))
    (cls,) = an.classes
    successor = dict(an.perfect.successor)
    del successor[pp(an, "x.x")]
    with pytest.raises(InternalConsistencyError, match=r"x\.x of class .* no successor"):
        decompose_cycle(an.algebra, cls, successor)


def test_decompose_names_rows_of_unequal_length():
    # pair x with x, no perfect pair of loop(3): x alone cuts x.x, while
    # x.x and x.x.x still cut x.x.x.x
    an = Analysis(fixtures.loop(3))
    (cls,) = an.classes
    successor = {**an.perfect.successor, pp(an, "x"): pp(an, "x")}
    with pytest.raises(
        InternalConsistencyError,
        match=r"rows of class x \(a row: the members that cut one relation\) differ",
    ):
        decompose_cycle(an.algebra, cls, successor)


def test_decompose_names_a_successor_that_tops_no_row():
    # pair x with x.x.x, no member of loop(2): no row of the class has it
    # as its top
    an = Analysis(fixtures.loop(2))
    (cls,) = an.classes
    x_cubed = an.algebra.quiver.path(["x"] * 3)
    successor = {**an.perfect.successor, pp(an, "x"): x_cubed}
    with pytest.raises(
        InternalConsistencyError, match=r"successor of x(\.x)? tops no row of class x"
    ):
        decompose_cycle(an.algebra, cls, successor)


def test_hasse_rejects_non_chain_posets():
    # Two parallel arrows extending the same trivial path give it
    # in-degree 2 in the prefix-order Hasse quiver; the builder must
    # refuse such inputs loudly.
    from gpstable.algebra import Arrow, Quiver

    q = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")))
    fake = [q.trivial("1"), q.path(["a"]), q.path(["b"])]
    with pytest.raises(InternalConsistencyError):
        hasse_quiver(fake, PREC)
