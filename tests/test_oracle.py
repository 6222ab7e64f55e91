import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpstable import analysis, fixtures, oracle, perfect
from gpstable.algebra import (
    MonomialAlgebra,
    Path,
    RelationAutomaton,
    parse_algebra,
    parse_path_string,
)
from gpstable.analysis import Analysis
from gpstable.oracle import (
    bf_factorizations,
    bf_ordinary_hom,
    bf_overlap_table,
    bf_perfect_pairs,
    bf_ses_dims,
    bf_stable_hom,
    bf_stable_hom_table,
    bf_verify_perfect,
    random_algebra,
    verify_algebra,
    verify_suite,
)
from gpstable.orders import PREC, CycleDecomposition, hasse_quiver
from gpstable.perfect import detect_overlap
from gpstable.stable import StableObject, suspend, tilting_object

from reference_scan import (
    FIXTURES,
    equivalence_algebras,
    path_overlap_table,
    reference_rows,
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


def watch_scan(monkeypatch):
    """Count, by name, the Path products, ``is_zero`` calls and automaton
    reads made inside the battery's perfect-pair scan."""
    inside, counts, real_scan = [], Counter(), oracle.bf_perfect_pairs

    def scan(alg):
        inside.append(True)
        try:
            return real_scan(alg)
        finally:
            inside.pop()

    monkeypatch.setattr(oracle, "bf_perfect_pairs", scan)
    for owner, name in (
        (Path, "__mul__"), (MonomialAlgebra, "is_zero"), (RelationAutomaton, "read")
    ):

        def counted(*args, _name=name, _real=getattr(owner, name)):
            if inside:
                counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


class TestBatteryWork:
    """One verify_algebra call computes each brute-force table once."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_each_table_once(self, make, monkeypatch):
        alg = make()
        calls = Counter()
        for module, name in (
            (perfect, "detect_overlap"),
            (oracle, "ungraded_stable_hom"),
            (oracle, "bf_stable_hom"),
            (oracle, "bf_verify_perfect"),
            (oracle, "bf_stable_hom_table"),
            (oracle, "bf_overlap_table"),
        ):

            def counted(*args, _name=name, _real=getattr(module, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        assert all(c.ok for c in verify_algebra(alg))

        n = len(Analysis(alg).perfect.paths) ** 2
        # no per-pair judge is called: the perfect pairs come from the zero
        # rows, the overlaps and the brute-force Homs from one table each
        assert calls == Counter(
            bf_overlap_table=1, bf_stable_hom_table=1, ungraded_stable_hom=n
        )

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_every_graded_piece_is_asked(self, make, monkeypatch):
        alg = make()
        asked = Counter()
        real = oracle.graded_stable_hom

        def counted(an, source, target):
            asked[source.path, target.path, target.shift] += 1
            return real(an, source, target)

        monkeypatch.setattr(oracle, "graded_stable_hom", counted)
        assert all(c.ok for c in verify_algebra(alg))
        paths = Analysis(alg).perfect.paths
        # shifts -2 ... l(q)+1 of every pair, each once, whatever the pieces
        # are: skipping a comparison must never skip a closed-form call
        assert sum(asked.values()) == len(paths) * sum(q.length + 4 for q in paths)
        assert asked == Counter(
            (p, q, k) for p in paths for q in paths for k in range(-2, q.length + 2)
        )

    def test_zero_tests_only_on_composable_pairs(self, monkeypatch):
        scan = watch_scan(monkeypatch)
        for make in (STAR, NAK33):
            alg = make()
            basis = alg.nontrivial_basis
            scan.clear()
            assert all(c.ok for c in verify_algebra(alg))
            composable = len(composable_pairs(alg))
            assert 0 < composable < len(basis) ** 2
            # each non-trivial path ends at one vertex and is read once
            # there, then each composable pair once from the first's state;
            # no is_zero call and no Path product
            assert scan == Counter(read=len(basis) + composable)

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


class TestPerfectPairsScan:
    """bf_perfect_pairs, the zero-row scan, returns exactly the pairs that
    the per-pair definition bf_verify_perfect accepts."""

    def test_matches_the_definition_on_index_algebras(self):
        composable = perfect = 0
        for alg in index_algebras():
            pairs = composable_pairs(alg)
            want = {
                (p.arrows, q.arrows) for p, q in pairs if bf_verify_perfect(alg, p, q)
            }
            assert bf_perfect_pairs(alg) == want, alg.relations
            composable += len(pairs)
            perfect += len(want)
        # measured: 7297 composable pairs, 996 perfect pairs
        assert composable >= 7000 and perfect >= 950


class TestBatchedTables:
    """bf_stable_hom_table and bf_overlap_table return, for every pair of
    perfect paths, exactly what the per-pair judges bf_stable_hom and
    detect_overlap return, in the same order."""

    def test_match_the_per_pair_judges_on_index_algebras(self):
        algebras = pairs = pieces = 0
        kinds = Counter()
        for alg in index_algebras():
            paths = Analysis(alg).perfect.paths
            homs = bf_stable_hom_table(alg, paths)
            overlaps = bf_overlap_table(alg, paths)
            order = [(p, q) for p in paths for q in paths]
            assert list(homs) == order and list(overlaps) == order
            for p, q in order:
                want = bf_stable_hom(alg, p, q)[1]
                assert list(homs[p, q].items()) == list(want.items()), (p, q)
                found = detect_overlap(alg, p, q)
                assert overlaps[p, q] == found, (p, q)
                pieces += len(want)
                kinds[found and found.kind] += 1
            algebras += 1
            pairs += len(order)
        # measured: 645 algebras, 9653 pairs, 3837 non-zero pieces, 87 O1
        # and 2790 O2 overlaps
        assert algebras >= 645 and pairs >= 9653 and pieces >= 3837
        assert kinds["O1"] >= 87 and kinds["O2"] >= 2790


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
            accepted = set()
            for p in basis:
                for q in basis:
                    verdict = bf_verify_perfect(alg, p, q)
                    assert verdict == scan_verify_perfect(alg, p, q)
                    pairs += 1
                    verdicts += verdict
                    if verdict:
                        accepted.add((p.arrows, q.arrows))
            assert bf_perfect_pairs(alg) == accepted
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
        fails_as_reference(alg, "basis-subpath-closed")
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


def matches_reference(alg):
    """The battery's verdicts on the rows that ``reference_rows`` judges,
    after asserting that they equal the reference verdicts."""
    want = reference_rows(alg)
    rows = {c.name: c.ok for c in verify_algebra(alg) if c.name in want}
    assert rows == want, alg.relations
    return rows


def fails_as_reference(alg, row):
    """Every row with a reference form has that form's verdict, and
    ``row`` fails."""
    assert not matches_reference(alg)[row]


def drop_a_maximal_path(monkeypatch):
    """lambda_star without a non-perfect basis path that is no one-step
    prefix or suffix of another: only the extension check can miss it."""
    doc = (FIXTURES / "lambda_star.json").read_text()
    intact = parse_algebra(doc)
    real, nontrivial = intact.basis, set(intact.nontrivial_basis)
    inner = {w for u in nontrivial for w in (u.prefix(u.length - 1), u.suffix(u.length - 1))}
    alg = parse_algebra(doc)
    alg.basis = real - {min(nontrivial - inner - set(Analysis(intact).perfect.paths))}
    return alg


def drop_a_prec_arrow(monkeypatch):
    """The prefix-order Hasse quiver loses its first covering arrow; the
    (co-)elementary paths are still classified on the whole quiver."""
    real_hasse, classify = Analysis.hasse_prec.func, oracle.classify_elementary

    def dropped(an):
        h = real_hasse(an)
        return h._replace(arrows=h.arrows[1:])

    monkeypatch.setattr(Analysis, "hasse_prec", property(dropped))
    monkeypatch.setattr(
        oracle,
        "classify_elementary",
        lambda prec, leq: classify(hasse_quiver(prec.vertices, PREC), leq),
    )
    return STAR()


def add_a_coelementary_path(monkeypatch):
    """The least perfect path that is not co-elementary is called one."""
    classify = oracle.classify_elementary

    def one_more(prec, leq):
        elementary, coelementary = classify(prec, leq)
        return elementary, (*coelementary, min(set(prec.vertices) - set(coelementary)))

    monkeypatch.setattr(oracle, "classify_elementary", one_more)
    return STAR()


def forget_an_intersection_path(monkeypatch):
    """The successor map answers ``in`` False for the least basis path that
    starts with one perfect path and ends, overlapping it, with another."""
    alg = STAR()
    paths = Analysis(alg).perfect.paths
    forgotten = min(
        u
        for p in paths
        for q in paths
        if detect_overlap(alg, p, q)
        for u in alg.divisor_index.starts[p.source, p.arrows]
        if q.right_divides(u) and u.length < p.length + q.length
    )

    class Forgets(dict):
        def __contains__(self, key):
            return key != forgotten and dict.__contains__(self, key)

    real = analysis.enumerate_perfect_paths

    def forgetful(alg):
        pset = real(alg)
        return pset._replace(successor=Forgets(pset.successor))

    monkeypatch.setattr(analysis, "enumerate_perfect_paths", forgetful)
    return STAR()


class TestRowsMatchReferences:
    """The rows that read per-algebra indexes give the verdicts of their
    per-path reference forms in reference_scan, on the index algebras and
    on planted failures, and each planted failure fails its row."""

    def test_on_index_algebras(self):
        algebras = prefix_pairs = overlapping = classes = 0
        for alg in index_algebras():
            algebras += 1
            an = Analysis(alg)
            paths = an.perfect.paths
            overlaps = bf_overlap_table(alg, paths)
            assert list(overlaps.items()) == list(path_overlap_table(alg, paths).items())
            assert all(matches_reference(alg).values())
            prefix_pairs += sum(p != q and p.left_divides(q) for p in paths for q in paths)
            overlapping += sum(ov is not None for ov in overlaps.values())
            classes += len(an.decompositions)
        # measured: 645 algebras, 1042 pairs of perfect paths where one is a
        # proper prefix of the other, 2877 overlapping pairs, 272 classes
        assert algebras >= 645 and prefix_pairs >= 1000
        assert overlapping >= 2800 and classes >= 270

    @pytest.mark.parametrize(
        "plant, row",
        [
            (drop_a_maximal_path, "basis-one-step-complete"),
            (drop_a_prec_arrow, "hasse-arrow-complement-coelementary"),
            (add_a_coelementary_path, "unique-coelementary-factorization"),
            (forget_an_intersection_path, "overlap-intersection-paths-perfect"),
        ],
        ids=["maximal-path", "prec-arrow", "extra-coelementary", "intersection-path"],
    )
    def test_planted_failure(self, plant, row, monkeypatch):
        fails_as_reference(plant(monkeypatch), row)


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
        fails_as_reference(make(), "tilting-orthogonality")

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_sees_a_piece_only_a_later_shift_reads(self, make, monkeypatch):
        # The row reads Hom(x, Sigma^i y) at shift z.shift - x.shift of the
        # row bf_hom[x.path, z.path], z = Sigma^i y.  Plant a piece at every
        # shift that no summand at shift 0 reads, so only a summand x with
        # x.shift >= 1 can see one.
        an = Analysis(make())
        summands = tilting_object(an)
        read_at_zero = {}  # z path -> the shifts a shift-0 summand reads
        for y in summands:
            m = an.locate(y.path)[0].m
            for i in range(-m - 1, m + 2):
                if i:
                    z = suspend(an, y, i)
                    read_at_zero.setdefault(z.path, set()).add(z.shift)
        assert max(x.shift for x in summands) >= 1
        reach = 1 + max(abs(k) for ks in read_at_zero.values() for k in ks)
        reach += max(x.shift for x in summands)
        real = oracle.bf_stable_hom_table

        def planted(alg, paths):
            return {
                (p, q): {
                    **{
                        k: (q,) for k in range(-reach, reach + 1)
                        if k not in read_at_zero.get(q, ())
                    },
                    **by_shift,
                }
                for (p, q), by_shift in real(alg, paths).items()
            }

        monkeypatch.setattr(oracle, "bf_stable_hom_table", planted)
        fails_as_reference(make(), "tilting-orthogonality")

    @pytest.mark.parametrize(
        "make",
        [STAR, NAK33, lambda: fixtures.nakayama(2, 2), lambda: fixtures.loop(3)],
        ids=["lambda_star", "N(3,3)", "N(2,2)", "loop(3)"],
    )
    def test_judges_the_library_tilting_object(self, make, monkeypatch):
        # one summand too many per chain object: shifts 0 .. l(c) inclusive
        def one_shift_more(an):
            return tuple([
                StableObject(p, s)
                for dec in an.decompositions
                for s in range(dec.arrow_length + 1)
                for p in dec.chain
            ])

        assert _row(verify_algebra(make()), "tilting-orthogonality").ok
        monkeypatch.setattr(oracle, "tilting_object", one_shift_more)
        fails_as_reference(make(), "tilting-orthogonality")


class TestSerreDualityRow:
    """ar-serre-duality requires Hom(X, Sigma tau X) to be one-dimensional at
    the shift ar_translate names, read off the brute-force Hom table."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_passes(self, make):
        assert _row(verify_algebra(make()), "ar-serre-duality").ok

    def test_fails_on_a_drop_of_the_next_factor(self, monkeypatch):
        real = CycleDecomposition.mesh

        def drop_of_next(dec, i, span):
            # drop = l(r_{i+1}) in place of l(r_i), on the translate and the
            # middle term that shares it
            (nxt, s, _), middles = real(dec, i, span)
            drop = dec.factor_length(nxt)
            return (nxt, s, drop), tuple(
                (j, sm, drop if sm < span else dm) for j, sm, dm in middles
            )

        monkeypatch.setattr(CycleDecomposition, "mesh", drop_of_next)
        results = verify_algebra(fixtures.lambda_star())
        row = _row(results, "ar-serre-duality")
        assert not row.ok
        assert row.detail.startswith("Hom(") and "witnesses at shift" in row.detail
        # the other AR rows miss this mutant
        assert _row(results, "ar-dimension-identity").ok
        assert _row(results, "tau-periodicity").ok


class TestGridElementaryRow:
    """grid-elementary-matches-hasse compares the grid's (co-)elementary
    tuples, which ``analyze`` prints, with the Hasse sources and sinks."""

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_passes(self, make):
        assert _row(verify_algebra(make()), "grid-elementary-matches-hasse").ok

    @pytest.mark.parametrize("attr", ["elementary", "coelementary"])
    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_fails_on_a_dropped_path(self, make, attr, monkeypatch):
        real = getattr(Analysis, attr)
        dropped = []

        def first_dropped(an):
            paths = real.fget(an)
            dropped.append(str(paths[0]))
            return paths[1:]

        monkeypatch.setattr(Analysis, attr, property(first_dropped))
        results = verify_algebra(make())
        row = _row(results, "grid-elementary-matches-hasse")
        assert not row.ok
        assert f"Hasse only ['{dropped[0]}']" in row.detail
        assert [c.name for c in results if not c.ok] == [row.name]


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
            return (first._replace(pattern=rows), *rest)

        monkeypatch.setattr(oracle, "end_algebra", flipped)
        alg = make()
        row = _row(verify_algebra(alg), "end-pattern-triangular")
        cycle = Analysis(alg).decompositions[0].cycle_class.cycle
        assert not row.ok
        assert row.detail.startswith(f"End(T) entry (1,2) of class {cycle} is 1")

    @pytest.mark.parametrize("make", [STAR, NAK33], ids=["lambda_star", "N(3,3)"])
    def test_witness_off_the_period_fails_shift_separation(self, make, monkeypatch):
        real = oracle.bf_stable_hom_table

        def off_period(alg, paths):
            return {
                (p, q): {**by_shift, 1: (q,)}
                for (p, q), by_shift in real(alg, paths).items()
            }

        monkeypatch.setattr(oracle, "bf_stable_hom_table", off_period)
        alg = make()
        assert all(dec.arrow_length > 1 for dec in Analysis(alg).decompositions)
        assert not _row(verify_algebra(alg), "chain-shift-separation").ok


class TestFailureDetails:
    def test_overlap_across_classes_names_a_pair(self, monkeypatch):
        # every pair of perfect paths overlaps, across both classes too
        monkeypatch.setattr(
            oracle,
            "bf_overlap_table",
            lambda alg, paths: {(p, q): object() for p in paths for q in paths},
        )
        row = _row(verify_algebra(fixtures.lambda_star()), "overlap-implies-same-class")
        assert not row.ok and "overlap" in row.detail
        # the reference rows read their own overlap table, so they disagree
        assert reference_rows(fixtures.lambda_star())["overlap-implies-same-class"]

    def test_shift_sum_names_a_pair(self, monkeypatch):
        real = oracle.ungraded_stable_hom
        monkeypatch.setattr(
            oracle,
            "ungraded_stable_hom",
            lambda an, p, q: SimpleNamespace(dimension=real(an, p, q).dimension + 1),
        )
        row = _row(verify_algebra(fixtures.lambda_star()), "ungraded-hom-shift-sum")
        assert not row.ok and row.detail.startswith("Hom(")

    def test_graded_hom_names_the_first_piece(self, monkeypatch):
        real = oracle.graded_stable_hom

        def one_more(an, src, dst):
            h = real(an, src, dst)
            return SimpleNamespace(dimension=h.dimension + 1, witness=h.witness)

        monkeypatch.setattr(oracle, "graded_stable_hom", one_more)
        alg = fixtures.lambda_star()
        results = verify_algebra(alg)
        row = _row(results, "graded-hom-closed-form-vs-oracle")
        # the first piece asked about: the first perfect path to itself at
        # shift -2, where both sides are zero before the patch
        p = Analysis(alg).perfect.paths[0]
        assert not row.ok
        assert row.detail == (
            f"Hom({p}, {p}(-2)) has dimension 1 (witness None), "
            "the basis quotient gives []"
        ), row.detail
        # the ungraded rows do not read graded_stable_hom
        assert _row(results, "ungraded-hom-shift-sum").ok

    def test_overlap_hom_criterion_names_a_pair(self, monkeypatch):
        real = oracle.ungraded_stable_hom
        monkeypatch.setattr(
            oracle,
            "ungraded_stable_hom",
            lambda an, p, q: SimpleNamespace(dimension=real(an, p, q).dimension + 1),
        )
        alg = fixtures.lambda_star()
        an = Analysis(alg)
        # the first pair, in table order, whose overlap disagrees with the
        # inflated Hom(q, p)
        p, q = next(
            (p, q)
            for p in an.perfect.paths
            for q in an.perfect.paths
            if (real(an, q, p).dimension + 1 > (1 if p == q else 0))
            != (detect_overlap(alg, p, q) is not None)
        )
        row = _row(verify_algebra(alg), "overlap-hom-criterion")
        assert not row.ok and row.detail.startswith(f"{p} and {q} "), row.detail


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
