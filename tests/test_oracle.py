import random
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpstable import fixtures, oracle
from gpstable.algebra import MonomialAlgebra, Path, parse_algebra, parse_path_string
from gpstable.analysis import Analysis
from gpstable.oracle import (
    bf_factorizations,
    bf_ordinary_hom,
    bf_ses_dims,
    bf_stable_hom,
    bf_verify_perfect,
    random_algebra,
    verify_algebra,
    verify_suite,
)
from gpstable.perfect import detect_overlap
from gpstable.stable import StableObject

from reference_scan import (
    FIXTURES,
    equivalence_algebras,
    scan_module_dim,
    scan_ordinary_hom,
    scan_overlap,
    scan_stable_hom,
    scan_subpath_closed,
    scan_verify_perfect,
)


def pp(alg, text):
    return parse_path_string(alg.quiver, text)


class TestBruteForceHom:
    def test_chain_pair(self):
        alg = fixtures.lambda_star()
        dim, by_shift = bf_stable_hom(
            alg, pp(alg, "a1.a2.a3"), pp(alg, "a1.a2.a3.a1.a2")
        )
        assert dim == 1
        assert set(by_shift) == {3}
        assert [str(w) for w in by_shift[3]] == ["a1.a2.a3.a1.a2.a3"]

    def test_cross_class_stable_zero(self):
        alg = fixtures.lambda_star()
        dim, _ = bf_stable_hom(alg, pp(alg, "a1.a2"), pp(alg, "a4.a5"))
        assert dim == 0

    def test_ordinary_hom_nonzero_across_classes(self):
        alg = fixtures.lambda_star()
        dim, _ = bf_ordinary_hom(
            alg, pp(alg, "a4.a5.a4.a5.a4.a5"), pp(alg, "a1.a2.a3.a1.a2.a3")
        )
        assert dim > 0


class TestBruteForcePerfect:
    def test_star_sequence_pairs(self):
        alg = fixtures.lambda_star()
        an = Analysis(alg)
        for p, q in an.perfect.successor.items():
            assert bf_verify_perfect(alg, p, q)

    def test_star_non_pair(self):
        alg = fixtures.lambda_star()
        assert not bf_verify_perfect(alg, pp(alg, "a1.a2"), pp(alg, "a3"))

    def test_loop_pairs(self):
        for m in (1, 2, 3, 4):
            alg = fixtures.loop(m)
            for i in range(1, m + 1):
                p = alg.quiver.path(["x"] * i)
                q = alg.quiver.path(["x"] * (m + 1 - i))
                assert bf_verify_perfect(alg, p, q)


class TestSesDims:
    def test_loop_two(self):
        alg = fixtures.loop(2)
        assert alg.module_dim(pp(alg, "x.x")) == 1
        assert alg.module_dim(pp(alg, "x")) == 2
        assert alg.module_dim(alg.quiver.trivial("1")) == 3
        assert bf_ses_dims(alg, pp(alg, "x"), pp(alg, "x.x"))

    def test_star_pairs(self):
        alg = fixtures.lambda_star()
        an = Analysis(alg)
        for p, q in an.perfect.successor.items():
            assert bf_ses_dims(alg, p, q)


class TestFactorizations:
    def test_exactly_one(self):
        an = Analysis(fixtures.lambda_star())
        facs = bf_factorizations(
            pp(an.algebra, "a1.a2.a3.a1.a2.a3"), an.coelementary
        )
        assert len(facs) == 1
        assert [str(f) for f in facs[0]] == ["a1.a2", "a3", "a1.a2", "a3"]

    def test_minimal_member(self):
        an = Analysis(fixtures.lambda_star())
        facs = bf_factorizations(pp(an.algebra, "a4.a5"), an.coelementary)
        assert facs == ((pp(an.algebra, "a4.a5"),),)


class TestVerifySuite:
    def test_fixtures_pass(self):
        for alg in (
            fixtures.lambda_star(),
            fixtures.a2(),
            fixtures.loop(2),
            fixtures.nakayama(2, 3),
            fixtures.quadratic(),
        ):
            results = verify_algebra(alg)
            assert results
            failures = [c for c in results if not c.ok]
            assert not failures, failures

    def test_suite_with_randoms(self):
        tables = verify_suite(fixtures.loop(2), random_count=5, seed=11)
        assert len(tables) == 6
        for _, checks in tables:
            assert all(c.ok for c in checks)


STAR, NAK33 = fixtures.lambda_star, lambda: fixtures.nakayama(3, 3)


def composable_pairs(alg):
    """Every (p, q) of non-trivial basis paths with t(p) = s(q)."""
    basis = alg.nontrivial_basis
    return {(p, q) for p in basis for q in basis if p.target == q.source}


class TestBatteryWork:
    """One verify_algebra call computes each brute-force table once."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_each_table_once(self, make, monkeypatch):
        alg = make()
        calls = Counter()
        for name in ("detect_overlap", "ungraded_stable_hom", "bf_stable_hom"):

            def counted(*args, _name=name, _real=getattr(oracle, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(oracle, name, counted)
        checked, inside, products = [], [], []
        real_perfect, real_mul = oracle.bf_verify_perfect, Path.__mul__

        def perfect(alg, p, q):
            checked.append((p, q))
            inside.append(True)
            try:
                return real_perfect(alg, p, q)
            finally:
                inside.pop()

        def mul(self, other):
            if inside:
                products.append((self, other))
            return real_mul(self, other)

        monkeypatch.setattr(oracle, "bf_verify_perfect", perfect)
        monkeypatch.setattr(Path, "__mul__", mul)
        assert all(c.ok for c in verify_algebra(alg))

        n = len(Analysis(alg).perfect.paths) ** 2
        assert calls == Counter(
            detect_overlap=n, ungraded_stable_hom=n, bf_stable_hom=n
        )
        assert len(checked) == len(set(checked)) and not products
        assert set(checked) == composable_pairs(alg)

    def test_zero_tests_only_on_composable_pairs(self, monkeypatch):
        alg = NAK33()
        basis = alg.nontrivial_basis
        callers, real = Counter(), MonomialAlgebra.is_zero

        def is_zero(self, p):
            callers[sys._getframe(1).f_code.co_name] += 1
            return real(self, p)

        monkeypatch.setattr(MonomialAlgebra, "is_zero", is_zero)
        assert all(c.ok for c in verify_algebra(alg))
        composable = len(composable_pairs(alg))
        assert 0 < composable < len(basis) ** 2
        # the scan meets only composable pairs, whose paths are both non-zero
        assert callers["bf_verify_perfect"] == 2 * composable

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_rng_untouched_when_scanning(self, make):
        rng = random.Random(5)
        verify_algebra(make(), rng)
        assert rng.getstate() == random.Random(5).getstate()


class TestPerfectPairsRow:
    """perfect-pairs-match-bruteforce compares the literal definition on
    every composable pair with every pair of the pipeline's pair map."""

    ROW = "perfect-pairs-match-bruteforce"

    def test_fails_on_a_dropped_pair(self, monkeypatch):
        real = oracle._successor_words
        dropped = min(real(STAR()).items())

        def without(alg):
            sigma = real(alg)
            del sigma[dropped[0]]
            return sigma

        monkeypatch.setattr(oracle, "_successor_words", without)
        row = _row(verify_algebra(STAR()), self.ROW)
        p, q = map(".".join, dropped)
        assert not row.ok and f"bf only: ['({p}, {q})']" in row.detail

    def test_fails_on_an_added_pair(self, monkeypatch):
        alg, real = STAR(), oracle._successor_words
        sigma = real(alg)
        # a composable pair that is not perfect, with p outside the map
        p, q = min((p, q) for p, q in composable_pairs(alg) if p.arrows not in sigma)
        assert not bf_verify_perfect(alg, p, q)

        def with_extra(alg):
            return {**real(alg), p.arrows: q.arrows}

        monkeypatch.setattr(oracle, "_successor_words", with_extra)
        rows = verify_algebra(STAR())
        row = _row(rows, self.ROW)
        assert not row.ok and f"pair map only: ['({p}, {q})']" in row.detail
        # the pipeline's own pair map is untouched, so every other row passes
        assert [c.name for c in rows if not c.ok] == [self.ROW]

    def test_passes_on_index_algebras(self):
        composable = perfect = 0
        for alg in index_algebras():
            assert _row(verify_algebra(alg), self.ROW).ok
            composable += len(composable_pairs(alg))
            perfect += len(oracle._successor_words(alg))
        # measured: 7297 composable pairs, 996 perfect pairs
        assert composable >= 7000 and perfect >= 950


def index_algebras():
    """``equivalence_algebras()`` plus 300 draws of ``random_algebra`` at
    its default sizes."""
    rng = random.Random(14)
    return (*equivalence_algebras(), *(random_algebra(rng) for _ in range(300)))


class TestIndexReadsMatchScans:
    """The divisor-index reads return what the whole-basis scans did."""

    def test_perfect_pairs(self):
        pairs, homs, verdicts = 0, 0, 0
        for alg in index_algebras():
            paths = Analysis(alg).perfect.paths
            for p in paths:
                assert alg.module_dim(p) == scan_module_dim(alg, p)
                for q in paths:
                    total, by_shift = bf_stable_hom(alg, p, q)
                    ref_total, ref_by_shift = scan_stable_hom(alg, p, q)
                    assert total == ref_total
                    assert list(by_shift.items()) == list(ref_by_shift.items())
                    ordinary = bf_ordinary_hom(alg, p, q)
                    assert ordinary == scan_ordinary_hom(alg, p, q)
                    verdict = bf_verify_perfect(alg, p, q)
                    assert verdict == scan_verify_perfect(alg, p, q)
                    pairs += 1
                    homs += total > 0
                    verdicts += verdict
        # measured: 9653 pairs, 3677 non-zero Homs, 887 perfect pairs
        assert pairs >= 9000 and homs >= 3400 and verdicts >= 800

    def test_basis_pairs_on_small_bases(self):
        algebras, pairs, verdicts = 0, 0, 0
        for alg in index_algebras():
            basis = alg.nontrivial_basis
            if len(basis) > 40:
                continue
            algebras += 1
            for p in alg.basis_sorted:
                assert alg.module_dim(p) == scan_module_dim(alg, p)
            for p in basis:
                for q in basis:
                    verdict = bf_verify_perfect(alg, p, q)
                    assert verdict == scan_verify_perfect(alg, p, q)
                    pairs += 1
                    verdicts += verdict
        # measured: 644 algebras, 26504 pairs, 976 perfect pairs
        assert algebras >= 600 and pairs >= 25000 and verdicts >= 900


def _row(results, name):
    (row,) = [c for c in results if c.name == name]
    return row


class TestWordScansMatchPathScans:
    """The one-step closure row and the word-level overlap scan return what
    the all-windows and Path-window scans did."""

    def test_subpath_closure_row(self):
        for alg in index_algebras():
            row = _row(verify_algebra(alg), "basis-subpath-closed")
            assert row.ok == scan_subpath_closed(alg)

    @pytest.mark.parametrize("side", ["prefix", "suffix"])
    def test_subpath_closure_sees_a_missing_divisor(self, side):
        # the missing path extends to a basis path on one side only, so
        # only the one-step check on that side can see it
        doc = (FIXTURES / "lambda_star.json").read_text()
        intact = parse_algebra(doc)
        real, perfect = intact.basis, set(Analysis(intact).perfect.paths)
        prefixes = {u.prefix(u.length - 1) for u in real if u.length > 1}
        suffixes = {u.suffix(u.length - 1) for u in real if u.length > 1}
        one_sided = prefixes - suffixes if side == "prefix" else suffixes - prefixes
        missing = min(one_sided - perfect, key=Path.sort_key)
        alg = parse_algebra(doc)
        alg.basis = real - {missing}  # before any property built on it is read
        assert not _row(verify_algebra(alg), "basis-subpath-closed").ok
        assert not scan_subpath_closed(alg)

    def test_detect_overlap(self):
        kinds = Counter()
        for alg in index_algebras():
            paths = Analysis(alg).perfect.paths
            for p in paths:
                for q in paths:
                    found = detect_overlap(alg, p, q)
                    assert found == scan_overlap(alg, p, q)
                    kinds[found and found.kind] += 1
        # measured: 87 O1 and 2790 O2 overlaps among 9653 pairs
        assert kinds["O1"] >= 80 and kinds["O2"] >= 2500


class TestTiltingRow:
    """tilting-orthogonality suspends each summand once per power and reads
    every Hom(x, Sigma^i y) off the brute-force table, not the closed form."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_calls_per_class(self, make, monkeypatch):
        events = []
        watched = ("tau_periodicity_check", "suspend", "graded_stable_hom", "end_algebra")
        for name in watched:

            def counted(*args, _name=name, _real=getattr(oracle, name)):
                events.append((_name, args))
                return _real(*args)

            monkeypatch.setattr(oracle, name, counted)
        alg = make()
        assert _row(verify_algebra(alg), "tilting-orthogonality").ok
        # the row runs after the last tau-periodicity check, before end_algebra
        names = [name for name, _ in events]
        start = len(names) - names[::-1].index("tau_periodicity_check")
        row = events[start : names.index("end_algebra")]
        suspended = [args[1:] for name, args in row if name == "suspend"]
        assert len(suspended) == len(set(suspended))

        an = Analysis(alg)
        calls = Counter(
            (name, an.locate(args[1].path)[0].cycle_class.cycle) for name, args in row
        )
        expected = Counter()
        for dec in an.decompositions:
            n, powers = dec.m * dec.arrow_length, 2 * (dec.m + 1)
            expected["suspend", dec.cycle_class.cycle] = n * powers
        # no graded_stable_hom call: the row checks suspend against bf_hom
        assert calls == expected

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_fails_on_a_shifted_suspension(self, make, monkeypatch):
        real = oracle.suspend

        def shifted(an, obj, power):
            out = real(an, obj, power)
            return StableObject(out.path, out.shift + 1)

        monkeypatch.setattr(oracle, "suspend", shifted)
        assert not _row(verify_algebra(make()), "tilting-orthogonality").ok


class TestGridRowsAgainstBruteForce:
    """end-pattern-triangular and chain-shift-separation compare the closed
    forms with the brute-force Hom table, so a wrong entry on either side
    fails them."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_flipped_end_entry_is_named(self, make, monkeypatch):
        real = oracle.end_algebra

        def flipped(an):
            first, *rest = real(an)
            pattern = [list(row) for row in first.pattern]
            pattern[0][1] = 1 - pattern[0][1]
            rows = tuple(tuple(row) for row in pattern)
            return (replace(first, pattern=rows), *rest)

        monkeypatch.setattr(oracle, "end_algebra", flipped)
        alg = make()
        row = _row(verify_algebra(alg), "end-pattern-triangular")
        cycle = Analysis(alg).decompositions[0].cycle_class.cycle
        assert not row.ok
        assert row.detail.startswith(f"End(T) entry (1,2) of class {cycle} is 1")

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_witness_off_the_period_fails_shift_separation(self, make, monkeypatch):
        real = oracle.bf_stable_hom

        def off_period(alg, p, q):
            total, by_shift = real(alg, p, q)
            return total + 1, {**by_shift, 1: (q,)}

        monkeypatch.setattr(oracle, "bf_stable_hom", off_period)
        alg = make()
        assert all(dec.arrow_length > 1 for dec in Analysis(alg).decompositions)
        assert not _row(verify_algebra(alg), "chain-shift-separation").ok


class TestFailureDetails:
    def test_overlap_across_classes_names_a_pair(self, monkeypatch):
        # every pair of perfect paths overlaps, across both classes too
        monkeypatch.setattr(oracle, "detect_overlap", lambda alg, p, q: object())
        row = _row(verify_algebra(fixtures.lambda_star()), "overlap-implies-same-class")
        assert not row.ok and "overlap" in row.detail

    def test_shift_sum_names_a_pair(self, monkeypatch):
        real = oracle.ungraded_stable_hom
        monkeypatch.setattr(
            oracle,
            "ungraded_stable_hom",
            lambda an, p, q: SimpleNamespace(dimension=real(an, p, q).dimension + 1),
        )
        row = _row(verify_algebra(fixtures.lambda_star()), "ungraded-hom-shift-sum")
        assert not row.ok and row.detail.startswith("Hom(")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_random_algebra_battery(seed):
    alg = random_algebra(random.Random(seed))
    failures = [c for c in verify_algebra(alg) if not c.ok]
    assert not failures, (alg, [str(r) for r in alg.relations], failures)


def test_random_algebra_factors_winding_twice():
    # seed 3684 plants perfect paths that tile the square of their cycle
    alg = random_algebra(random.Random(3684))
    failures = [c for c in verify_algebra(alg) if not c.ok]
    assert not failures, failures


def test_random_generator_is_seeded():
    a = random_algebra(random.Random(42))
    b = random_algebra(random.Random(42))
    assert a.quiver == b.quiver and a.relations == b.relations
