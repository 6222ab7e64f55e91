from pathlib import Path as FilePath

import pytest

from gpstable import fixtures
from gpstable.algebra import InputError, parse_algebra, parse_path_string
from gpstable.analysis import Analysis
from gpstable.oracle import bf_verify_perfect
from gpstable.perfect import (
    _cycles_of_partial_injection,
    _least_rotation,
    _root_length,
    _successor_words,
    _unique_cuts,
    detect_overlap,
    enumerate_perfect_paths,
    is_perfect_pair,
    left_annihilators,
    right_annihilators,
    underlying_cycle_classes,
)
from reference_scan import (
    chain_walk_unique_cuts,
    equivalence_algebras,
    long_relation_algebras,
    path_cycle_classes,
    scan_left_annihilators,
    scan_right_annihilators,
    scan_successor_map,
    split_successor_map,
    trie_algebras,
    word_perfect_paths,
)


@pytest.fixture(scope="module")
def star():
    return fixtures.lambda_star()


def pp(alg, text):
    return parse_path_string(alg.quiver, text)


class TestAnnihilators:
    def test_loop_one(self):
        alg = fixtures.loop(1)
        x = pp(alg, "x")
        assert right_annihilators(alg, x) == (x,)
        assert left_annihilators(alg, x) == (x,)

    def test_loop_two(self):
        # With x^3 = 0 the minimal killer of x is x^2, not x.
        alg = fixtures.loop(2)
        x, xx = pp(alg, "x"), pp(alg, "x.x")
        assert right_annihilators(alg, x) == (xx,)
        assert right_annihilators(alg, xx) == (x,)

    def test_star_r_of_a12(self, star):
        assert right_annihilators(star, pp(star, "a1.a2")) == (
            pp(star, "a3.a1.a2.a3.a1.a2"),
        )

    def test_star_r_of_bridge_empty(self, star):
        assert right_annihilators(star, pp(star, "b2")) == ()

    def test_trivial_and_zero_rejected(self, star):
        with pytest.raises(InputError):
            right_annihilators(star, star.quiver.trivial("1"))
        with pytest.raises(InputError):
            left_annihilators(
                star, star.quiver.path(["a1", "a2", "a3"] * 2 + ["a1", "a2"])
            )


class TestRelationDrivenEquivalence:
    """The trie annihilators and successor map agree with scans over the
    whole basis, and with the relation-split index the trie replaced, on
    every non-zero path of every algebra of a shared family.  The oracle
    battery only checks that enumerated pairs are perfect; this also shows
    that none is missed."""

    def test_annihilators_match_scan(self):
        for alg in trie_algebras():
            for p in alg.nontrivial_basis:
                assert right_annihilators(alg, p) == scan_right_annihilators(
                    alg, p
                ), (alg.relations, p)
                assert left_annihilators(alg, p) == scan_left_annihilators(
                    alg, p
                ), (alg.relations, p)

    def test_successor_map_matches_split_reference(self):
        algs = trie_algebras()
        assert len(algs) >= len(equivalence_algebras()) + 13 + 2000
        for alg in algs:
            assert _successor_words(alg) == split_successor_map(alg), alg.relations

    def test_unique_cuts_match_chain_walk(self):
        # the bad-interval test against the per-cut walk down both chains,
        # on both automata; the long draws run deeper failure chains
        cuts = 0
        for alg in (*trie_algebras(), *long_relation_algebras()):
            for auto in (alg.automaton, alg.opposite_automaton):
                expected = chain_walk_unique_cuts(auto)
                assert _unique_cuts(auto) == expected, alg.relations
                cuts += sum(map(len, expected))
        assert len(long_relation_algebras()) >= 2000
        assert cuts >= 15000

    def test_successor_map_matches_scan(self):
        for alg in equivalence_algebras():
            sigma = {
                alg.quiver.path(p): alg.quiver.path(q)
                for p, q in _successor_words(alg).items()
            }
            assert sigma == scan_successor_map(alg), alg.relations

    def test_family_reaches_perfect_pairs(self):
        for family, algebras, pairs in (
            (equivalence_algebras(), 150, 600),
            (trie_algebras(), 1100, 3900),
        ):
            maps = [_successor_words(alg) for alg in family]
            assert sum(1 for sigma in maps if sigma) >= algebras
            assert sum(len(sigma) for sigma in maps) >= pairs

    def test_successor_walk_is_linear_in_relation_data(self):
        # Count every failure link and every move the cut tests read on
        # N(40, 40): 40 relations of length L = 41, so Σ|r| = 1640.
        class Counted(tuple):
            steps = 0

            def __getitem__(self, k):
                Counted.steps += 1
                return tuple.__getitem__(self, k)

        alg = fixtures.nakayama(40, 40)
        for name in ("automaton", "opposite_automaton"):
            auto = getattr(alg, name)
            counted = auto._replace(fail=Counted(auto.fail), moves=Counted(auto.moves))
            setattr(alg, name, counted)
        sigma = _successor_words(alg)
        assert len(sigma) == 40 * 40
        budget = sum(len(r.arrows) for r in alg.relations)
        # per relation and automaton, one walk down the chain of the whole
        # relation and one trie step per start; the per-cut walk down both
        # chains followed up to 4·Σ|r|·L links
        assert 0 < Counted.steps <= 4 * budget


class TestPerfectPairs:
    def test_star_pair(self, star):
        assert is_perfect_pair(star, pp(star, "a1.a2"), pp(star, "a3.a1.a2.a3.a1.a2"))

    def test_loop3_pairs(self):
        alg = fixtures.loop(3)
        x = pp(alg, "x")
        x3 = pp(alg, "x.x.x")
        assert not is_perfect_pair(alg, x, x)
        assert is_perfect_pair(alg, x, x3)
        assert right_annihilators(alg, x) == (x3,)

    def test_star_nonpair_bridge(self, star):
        assert not is_perfect_pair(star, pp(star, "b2"), pp(star, "a4.a5"))

    def test_pair_agrees_with_bruteforce(self):
        pairs = perfect = 0
        for alg in equivalence_algebras():
            basis = alg.nontrivial_basis
            for p in basis:
                for q in basis:
                    if p.target != q.source:
                        continue
                    verdict = is_perfect_pair(alg, p, q)
                    assert verdict == bf_verify_perfect(alg, p, q), (p, q)
                    pairs += 1
                    perfect += verdict
        # measured: 5302 composable pairs, 728 of them perfect
        assert pairs >= 5000 and perfect >= 700


EXPECTED_SEQUENCES = [
    ("a1.a2", "a3.a1.a2.a3.a1.a2", "a3", "a1.a2.a3.a1.a2.a3"),
    ("a1.a2.a3.a1.a2", "a3.a1.a2", "a3.a1.a2.a3", "a1.a2.a3"),
    ("a4.a5", "a4.a5.a4.a5.a4.a5"),
    ("a4.a5.a4.a5",),
]


def rotations(seq):
    return {tuple(seq[k:] + seq[:k]) for k in range(len(seq))}


class TestEnumeration:
    def test_star_sequences(self, star):
        pset = enumerate_perfect_paths(star)
        assert len(pset.paths) == 11
        assert not pset.cm_free
        got = {tuple(map(str, seq)) for seq in pset.sequences}
        for expected in EXPECTED_SEQUENCES:
            assert rotations(list(expected)) & got
        assert len(got) == 4

    def test_a2_cm_free(self):
        pset = enumerate_perfect_paths(fixtures.a2())
        assert pset.cm_free and not pset.paths

    def test_nakayama_all_nontrivial_perfect(self):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                alg = fixtures.nakayama(n, m)
                pset = enumerate_perfect_paths(alg)
                assert set(pset.paths) == set(alg.nontrivial_basis)
                assert len(pset.paths) == n * m

    def test_cycles_of_partial_injection(self):
        # two fixed points, a 2-cycle, a 3-cycle and two chains that end,
        # one of them starting below every cycle member; listed scrambled
        links = "kl gi hj bb ff ce id ec ah dg"
        sigma = {(u,): (v,) for u, v in links.split()}
        cycles = _cycles_of_partial_injection(sigma, key=lambda w: w)
        assert [["".join(w) for w in c] for c in cycles] == [
            ["b"],
            ["c", "e"],
            ["d", "g", "i"],
            ["f"],
        ]

    def test_matches_word_keyed_reference(self):
        # the state-keyed map against the word-keyed one it replaced: the
        # same paths, sequences and successor items in the same order, and
        # one shared object per perfect path
        algs = (*trie_algebras(), *long_relation_algebras())
        assert len(long_relation_algebras()) >= 2000
        perfect = 0
        for alg in algs:
            got, expected = enumerate_perfect_paths(alg), word_perfect_paths(alg)
            assert got.paths == expected.paths, alg.relations
            assert got.sequences == expected.sequences, alg.relations
            assert list(got.successor.items()) == list(expected.successor.items())
            assert got.cm_free == expected.cm_free
            shared = {id(p) for p in got.paths}
            assert len(shared) == len(got.paths)
            members = [p for seq in got.sequences for p in seq]
            assert len(members) == len(got.paths)
            for p in (*members, *got.successor, *got.successor.values()):
                assert id(p) in shared, alg.relations
            perfect += len(got.paths)
        assert perfect >= 5000

    def test_paths_are_the_validated_paths(self):
        # perfect words and class cycles are built from the arrows' ends,
        # with no Quiver.path check; they equal the checked paths
        root = FilePath(__file__).resolve().parent.parent / "fixtures"
        algs = [parse_algebra(f.read_text()) for f in sorted(root.glob("*.json"))]
        built = 0
        for alg in algs + list(trie_algebras()):
            pset = enumerate_perfect_paths(alg)
            classes = underlying_cycle_classes(alg, pset)
            for p in (*pset.paths, *(c.cycle for c in classes)):
                assert p == alg.quiver.path(p.arrows), alg.relations
                built += 1
        assert built >= 4000

    def test_sigma_injective(self, star):
        pset = enumerate_perfect_paths(star)
        values = list(pset.successor.values())
        assert len(set(values)) == len(values)

    def test_pair_member_not_necessarily_perfect(self, star):
        # (a1, a2.a3.a1.a2.a3.a1.a2) is a perfect pair whose members sit on
        # no successor cycle, hence are not perfect paths.
        p = pp(star, "a1")
        q = pp(star, "a2.a3.a1.a2.a3.a1.a2")
        assert is_perfect_pair(star, p, q)
        pset = enumerate_perfect_paths(star)
        assert p not in pset.successor and q not in pset.successor

    def test_perfect_product_in_relations(self, star):
        pset = enumerate_perfect_paths(star)
        for p, q in pset.successor.items():
            assert (p * q) in set(star.relations)


class TestCycleClasses:
    def test_root_length(self, star):
        assert _root_length(pp(star, "a4.a5.a4.a5").arrows) == 2
        assert _root_length(pp(star, "a1.a2.a3").arrows) == 3
        assert _root_length(("x",) * 4) == 1
        # a word that starts and ends alike is no proper power
        assert _root_length(("a", "b", "a")) == 3

    def test_least_rotation(self, star):
        assert _least_rotation(pp(star, "a3.a1.a2").arrows) == 1
        assert _least_rotation(pp(star, "a1.a2.a3").arrows) == 0
        assert _least_rotation(pp(star, "a2.a3.a1").arrows) == 2
        # the first of equal rotations of a proper power
        assert _least_rotation(("b", "a", "b", "a")) == 1

    def test_star_classes(self, star):
        pset = enumerate_perfect_paths(star)
        classes = underlying_cycle_classes(star, pset)
        assert [str(c.cycle) for c in classes] == ["a4.a5", "a1.a2.a3"]
        by_cycle = {str(c.cycle): c for c in classes}
        assert len(by_cycle["a1.a2.a3"].members) == 8
        assert len(by_cycle["a4.a5"].members) == 3
        # both 3-cycle sequences land in the same class
        members = set(by_cycle["a1.a2.a3"].members)
        assert sum(seq[0] in members for seq in pset.sequences) == 2

    def test_classes_match_path_grouping(self):
        classes = powers = rotated = shared = 0
        for alg in equivalence_algebras():
            pset = enumerate_perfect_paths(alg)
            got = underlying_cycle_classes(alg, pset)
            assert [(c.cycle, c.members) for c in got] == list(
                path_cycle_classes(pset)
            ), alg.relations
            classes += len(got)
            for c in got:
                members = set(c.members)
                seqs = [seq for seq in pset.sequences if seq[0] in members]
                # a class is the disjoint union of whole successor cycles
                assert sum(map(len, seqs)) == len(members)
                shared += len(seqs) > 1
                for seq in seqs:
                    word = tuple(a for p in seq for a in p.arrows)
                    powers += len(word) > c.cycle.length
                    rotated += word[: c.cycle.length] != c.cycle.arrows
        # the family reaches proper powers, rotations off the first arrow
        # and classes shared by several successor cycles
        assert classes >= 150 and powers >= 100 and rotated >= 40
        assert shared >= 40

    def test_loop_single_class(self):
        alg = fixtures.loop(3)
        pset = enumerate_perfect_paths(alg)
        classes = underlying_cycle_classes(alg, pset)
        assert len(classes) == 1
        assert classes[0].cycle.length == 1


class TestOverlaps:
    def test_star_o2(self, star):
        ov = detect_overlap(star, pp(star, "a1.a2.a3.a1.a2"), pp(star, "a3.a1.a2"))
        assert ov is not None and ov.kind == "O2"
        assert str(ov.left) == "a1.a2"
        assert str(ov.middle) == "a3.a1.a2"
        assert ov.right.is_trivial
        assert not star.is_zero(ov.left * ov.middle * ov.right)

    def test_loop3_o1(self):
        alg = fixtures.loop(3)
        xx = pp(alg, "x.x")
        ov = detect_overlap(alg, xx, xx)
        assert ov is not None and ov.kind == "O1"
        assert str(ov.left) == str(ov.middle) == str(ov.right) == "x"

    def test_quadratic_no_overlaps(self):
        alg = fixtures.quadratic()
        an = Analysis(alg)
        for p in an.perfect.paths:
            for q in an.perfect.paths:
                assert detect_overlap(alg, p, q) is None

    def test_overlap_implies_same_class(self, star):
        an = Analysis(star)
        for p in an.perfect.paths:
            for q in an.perfect.paths:
                if detect_overlap(star, p, q) is not None:
                    assert an.locate(p)[0] is an.locate(q)[0]

    def test_overlap_window_paths_perfect(self, star):
        an = Analysis(star)
        perfect = set(an.perfect.paths)
        for p in perfect:
            for q in perfect:
                if detect_overlap(star, p, q) is None:
                    continue
                for u in star.basis:
                    if (
                        p.left_divides(u)
                        and q.right_divides(u)
                        and u.length < p.length + q.length
                    ):
                        assert u in perfect
