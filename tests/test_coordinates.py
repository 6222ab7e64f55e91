"""The coordinate index behind the stable closed forms, and the lazy basis.

Suspension and the AR data read one ``Analysis.locate`` per object; graded
Hom reads both objects' coordinates by identity, calls ``locate`` only for
a path built elsewhere, and solves for its one translate with a floor
``divmod``.  Here they are checked against the Path-keyed versions kept in
``reference_stable`` on every algebra of the shared family that has perfect
paths, both with the path objects the analysis hands out and with equal
paths parsed afresh, graded Hom also at shifts several periods away and
with ``locate`` calls counted.  Graded and ungraded Hom share the one pair
row an ``Analysis`` remembers, so a sweep over shifts solves each period
once; it is checked in random order over two analyses of one algebra and
from four threads at once.  The laziness tests make the basis
enumeration, or the Hasse quiver construction, raise and run the whole
closed-form pipeline anyway.
"""

import json
import math
import random
import sys
import threading
from functools import lru_cache
from pathlib import Path as FilePath

import pytest

import gpstable.algebra as algebra
import gpstable.analysis as analysis
import gpstable.cli as cli
import reference_stable as ref
from gpstable.algebra import (
    InputError,
    enumerate_nonzero_paths,
    parse_algebra,
    parse_path_string,
)
from gpstable.analysis import Analysis
from gpstable.arquiver import emit, full_ungraded_ar_quiver, graded_ar_window
from gpstable.fixtures import wide_tail_document
from gpstable.stable import (
    StableObject,
    ar_translate,
    ar_translate_inverse,
    ar_triangle,
    classify,
    graded_stable_hom,
    suspend,
    ungraded_stable_hom,
)
from reference_scan import equivalence_algebras, planted_multi_class_document

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


@lru_cache(maxsize=None)
def analyses_with_perfect_paths():
    ans = (Analysis(alg) for alg in equivalence_algebras())
    return tuple(an for an in ans if an.perfect.paths)


def fresh(an, p):
    """An equal path that is not the object the analysis holds."""
    q = parse_path_string(an.algebra.quiver, str(p))
    assert q == p and q is not p
    return q


def assert_same_stable_data(an, paths):
    """Every closed form agrees with the reference on ``paths`` (objects
    equal to the perfect paths, in the order of ``an.perfect.paths``)."""
    for p, x in zip(an.perfect.paths, paths):
        for q, y in zip(an.perfect.paths, paths):
            for k in range(-2, q.length + 2):
                got = graded_stable_hom(an, StableObject(x, 0), StableObject(y, k))
                want = ref.graded_stable_hom(an, StableObject(p, 0), StableObject(q, k))
                assert got == want, (an.algebra.relations, p, q, k)
            assert ungraded_stable_hom(an, x, y) == ref.ungraded_stable_hom(an, p, q)
        dec = an.locate(p)[0]
        for shift in (0, 5):
            obj, want_obj = StableObject(x, shift), StableObject(p, shift)
            for power in range(-2 * (dec.m + 1), 2 * (dec.m + 1) + 1):
                assert suspend(an, obj, power) == ref.suspend(an, want_obj, power)
            assert ar_translate(an, obj) == ref.ar_translate(an, want_obj)
            assert ar_translate_inverse(an, obj) == ref.ar_translate_inverse(
                an, want_obj
            )
            assert ar_triangle(an, obj) == ref.ar_triangle(an, want_obj)


class TestEquivalence:
    def test_family_is_covered(self):
        ans = analyses_with_perfect_paths()
        assert len(ans) >= 100
        assert any(len(an.decompositions) >= 2 for an in ans)
        assert max(dec.m for an in ans for dec in an.decompositions) >= 6

    def test_matches_reference(self):
        for an in analyses_with_perfect_paths():
            assert_same_stable_data(an, an.perfect.paths)

    def test_matches_reference_on_equal_distinct_paths(self):
        for an in analyses_with_perfect_paths():
            assert_same_stable_data(an, [fresh(an, p) for p in an.perfect.paths])

    def test_outputs_are_the_held_objects(self):
        # What the closed forms hand back hits the index on identity.
        for an in analyses_with_perfect_paths():
            held = {id(p) for p in an.perfect.paths}
            for p in an.perfect.paths:
                obj = StableObject(fresh(an, p), 0)
                tri = ar_triangle(an, obj)
                outs = [suspend(an, obj, 3), tri.tau_object, *tri.middles]
                outs.append(ar_translate_inverse(an, obj))
                assert all(id(o.path) in held for o in outs)
                assert id(tri.connecting_witness) in held
            for h in (an.hasse_prec, an.hasse_leq):
                assert all(id(p) in held for c in h.components for p in c)
                assert all(id(p) in held for arrow in h.arrows for p in arrow)
            for dec in an.decompositions:
                rows = (dec.chain, dec.factors, *dec.windows)
                assert all(id(p) in held for row in rows for p in row)


class TestErrors:
    CALLS = {
        "graded_stable_hom": lambda m, an, x, y: m.graded_stable_hom(
            an, StableObject(x, 0), StableObject(y, 1)
        ),
        "graded_stable_hom (target)": lambda m, an, x, y: m.graded_stable_hom(
            an, StableObject(y, 0), StableObject(x, 1)
        ),
        "ungraded_stable_hom": lambda m, an, x, y: m.ungraded_stable_hom(an, x, y),
        "suspend": lambda m, an, x, y: m.suspend(an, StableObject(x, 0), 2),
        "ar_translate": lambda m, an, x, y: m.ar_translate(an, StableObject(x, 0)),
        "ar_translate_inverse": lambda m, an, x, y: m.ar_translate_inverse(
            an, StableObject(x, 0)
        ),
        "ar_triangle": lambda m, an, x, y: m.ar_triangle(an, StableObject(x, 0)),
    }

    def error(self, module, name, an, x, y):
        with pytest.raises(InputError) as exc:
            self.CALLS[name](module, an, x, y)
        return str(exc.value)

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_non_perfect_path_same_error(self, name):
        import gpstable.stable as stable

        for an in analyses_with_perfect_paths()[:40]:
            y = an.perfect.paths[0]
            for x in (an.algebra.relations[0], an.algebra.quiver.trivial(y.source)):
                got = self.error(stable, name, an, x, y)
                assert got == self.error(ref, name, an, x, y)
                assert got == f"{x} is not a perfect path of this algebra"

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_zero_object_same_error(self, name):
        import gpstable.stable as stable

        an = Analysis(parse_algebra((FIXTURES / "lambda_star.json").read_text()))
        y = an.perfect.paths[0]
        got = self.error(stable, name, an, None, y)
        assert got == self.error(ref, name, an, None, y)


# --- graded Hom as one solve ----------------------------------------------------


class TestGradedSolve:
    """graded_stable_hom solves for the one translate with a floor ``divmod``,
    reads both objects' coordinates by identity, and remembers the last
    pair's row of non-zero pieces."""

    def test_far_shifts_match_reference(self):
        # several periods l(c) away on both sides, negative shifts included
        calls = 0
        for an in analyses_with_perfect_paths():
            for p in an.perfect.paths:
                period = an.locate(p)[0].arrow_length
                x = StableObject(p, 0)
                for q in an.perfect.paths:
                    for k in range(-2 * period - 2, q.length + 2 * period + 2):
                        y = StableObject(q, k)
                        want = ref.graded_stable_hom(an, x, y)
                        assert graded_stable_hom(an, x, y) == want, (p, q, k)
                        calls += 1
        assert calls >= 100_000

    @pytest.fixture
    def locate_calls(self, monkeypatch):
        calls = []
        real = Analysis.locate

        def counted(self, p):
            calls.append(p)
            return real(self, p)

        monkeypatch.setattr(Analysis, "locate", counted)
        return calls

    def test_held_paths_make_no_locate_call(self, locate_calls):
        for an in analyses_with_perfect_paths()[:40]:
            for p in an.perfect.paths:
                for q in an.perfect.paths:
                    for k in range(-1, q.length + 1):
                        graded_stable_hom(an, StableObject(p), StableObject(q, k))
        assert locate_calls == []

    def test_equal_paths_locate_once_each(self, locate_calls):
        for an in analyses_with_perfect_paths()[:40]:
            for p in an.perfect.paths:
                for q in an.perfect.paths:
                    want = graded_stable_hom(an, StableObject(p), StableObject(q))
                    assert locate_calls == []
                    pairs = ((fresh(an, p), q), (p, fresh(an, q)))
                    for x, y in pairs:
                        got = graded_stable_hom(an, StableObject(x), StableObject(y))
                        assert got == want
                        assert len(locate_calls) == 1
                        locate_calls.clear()
                    got = graded_stable_hom(
                        an, StableObject(fresh(an, p)), StableObject(fresh(an, q))
                    )
                    assert got == want and len(locate_calls) == 2
                    locate_calls.clear()

    def test_non_perfect_path_raises(self, locate_calls):
        for an in analyses_with_perfect_paths()[:40]:
            y = StableObject(an.perfect.paths[0])
            x = an.algebra.relations[0]
            for src, dst in ((StableObject(x), y), (y, StableObject(x))):
                with pytest.raises(InputError) as exc:
                    graded_stable_hom(an, src, dst)
                assert str(exc.value) == f"{x} is not a perfect path of this algebra"
        assert locate_calls

    def test_interleaved_sweep_matches_reference(self):
        # pairs in a seeded random order, each asked for a run of shifts over
        # two analyses of one algebra, with either one's path objects or
        # equal ones parsed afresh, and now and then a non-perfect path
        rng = random.Random(39)
        algebras = [an.algebra for an in analyses_with_perfect_paths()[:60]]
        algebras.append(parse_algebra(planted_multi_class_document()))
        errors = 0
        for alg in algebras:
            ans = (Analysis(alg), Analysis(alg))
            paths = ans[0].perfect.paths
            bad = StableObject(alg.relations[0])
            message = f"{bad.path} is not a perfect path of this algebra"

            def pick(i):
                return rng.choice(
                    (paths[i], ans[1].perfect.paths[i], fresh(ans[0], paths[i]))
                )

            for _ in range(150):
                a, b = rng.randrange(len(paths)), rng.randrange(len(paths))
                p, q, x, y = paths[a], paths[b], pick(a), pick(b)
                for _ in range(rng.randint(1, 4)):
                    an = rng.choice(ans)
                    if rng.random() < 0.2:
                        got = ungraded_stable_hom(an, x, y)
                        assert got == ref.ungraded_stable_hom(ans[0], p, q), (p, q)
                    else:
                        k = rng.randrange(-3, q.length + 3)
                        got = graded_stable_hom(an, StableObject(x), StableObject(y, k))
                        want = ref.graded_stable_hom(
                            ans[0], StableObject(p), StableObject(q, k)
                        )
                        assert got == want, (p, q, k)
                if rng.random() < 0.05:
                    ends = [StableObject(x), bad]
                    rng.shuffle(ends)
                    with pytest.raises(InputError) as exc:
                        graded_stable_hom(rng.choice(ans), *ends)
                    assert str(exc.value) == message
                    errors += 1
        assert errors >= 100

    @pytest.fixture
    def solve_calls(self, monkeypatch):
        import gpstable.stable as stable

        calls = []
        real = stable._solve

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stable, "_solve", counted)
        return calls

    def test_held_pair_solves_once_per_period(self, locate_calls, solve_calls):
        # a fresh analysis, so no pair row is remembered from another test
        algebras = [an.algebra for an in analyses_with_perfect_paths()[:40]]
        algebras.append(parse_algebra(planted_multi_class_document()))
        cross = 0
        for an in map(Analysis, algebras):
            coordinates = an.coordinates
            for p in an.perfect.paths:
                x = StableObject(p)
                for q in an.perfect.paths:
                    solve_calls.clear()
                    for k in range(-20, q.length + 21):
                        graded_stable_hom(an, x, StableObject(q, k))
                    ungraded_stable_hom(an, p, q)
                    dec = coordinates[p][0]
                    if dec is coordinates[q][0]:
                        assert len(solve_calls) <= math.ceil(q.length / dec.arrow_length)
                    else:
                        assert solve_calls == []
                        cross += 1
        assert locate_calls == []
        assert cross >= 100

    def test_row_is_remembered_only_when_whole(self, monkeypatch):
        # while a row is being solved, a reader of the slot still finds the
        # pair before it, so no reader can see a part of the row
        import gpstable.stable as stable

        an = Analysis(parse_algebra(planted_multi_class_document()))
        seen = []
        real = stable._solve

        def peek(*args):
            seen.append(an._hom_pair)
            return real(*args)

        monkeypatch.setattr(stable, "_solve", peek)
        for p in an.perfect.paths:
            for q in an.perfect.paths:
                seen.clear()
                before = an._hom_pair
                ungraded_stable_hom(an, p, q)
                assert all(slot is before for slot in seen)
                assert an._hom_pair[:2] == (p, q)

    def test_threads_share_one_analysis(self):
        # four sources, one per thread, each swept over every target and
        # shift on one Analysis; its cached stages are built first, so the
        # threads share only the remembered pair
        import gpstable.stable as stable

        an = Analysis(parse_algebra(planted_multi_class_document()))
        an.locate(an.perfect.paths[0])
        paths = an.perfect.paths
        # one source in each of the three classes, and a second in the first
        sources = [dec.members[0] for dec in an.decompositions]
        sources.append(an.decompositions[0].members[1])

        def sweep(module, p):
            out = []
            for q in paths:
                for k in range(-3, q.length + 3):
                    out.append(module.graded_stable_hom(an, StableObject(p), StableObject(q, k)))
                out.append(module.ungraded_stable_hom(an, p, q))
            return out

        want = {p: sweep(ref, p) * 20 for p in sources}
        got = {}
        start = threading.Barrier(len(sources))

        def run(p):
            start.wait()
            got[p] = [h for _ in range(20) for h in sweep(stable, p)]

        threads = [threading.Thread(target=run, args=(p,)) for p in sources]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == want


# --- no path hashing in the AR quiver -------------------------------------------


@pytest.mark.parametrize(
    "name", sorted(f.name for f in FIXTURES.glob("*.json")) + ["planted"]
)
def test_ar_quiver_without_path_hashing(monkeypatch, name):
    if name == "planted":
        alg = parse_algebra(planted_multi_class_document())
    else:
        alg = parse_algebra((FIXTURES / name).read_text())

    def quivers(an):
        windows = [graded_ar_window(an, dec, -4, 4) for dec in an.decompositions]
        return [emit(tq, "json") for tq in (full_ungraded_ar_quiver(an), *windows)]

    want = quivers(Analysis(alg))
    an = Analysis(alg)
    an.coordinates  # noqa: B018 - the pipeline up to the coordinate index

    def refuse(self):
        raise AssertionError(f"{self!r} was hashed")

    monkeypatch.setattr(algebra.Path, "__hash__", refuse)
    with pytest.raises(AssertionError, match="was hashed"):
        hash(alg.quiver.trivial(alg.quiver.vertices[0]))
    assert quivers(an) == want
    if name == "planted":
        assert sorted(dec.m for dec in an.decompositions) == [2, 3, 4]


# --- the lazy basis ------------------------------------------------------------


def wide_tail_basis_size(k, w, n, m):
    return sum((k + 1 - d) * w**d for d in range(k + 1)) + n * (m + 1)


@pytest.fixture
def no_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the path basis was enumerated")

    monkeypatch.setattr(algebra, "enumerate_nonzero_paths", refuse)


@pytest.fixture
def no_hasse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Hasse quiver was built")

    monkeypatch.setattr(analysis, "hasse_quiver", refuse)


def run_closed_form_pipeline(an):
    report = classify(an)
    for p in an.perfect.paths:
        x = StableObject(p, 0)
        for q in an.perfect.paths:
            graded_stable_hom(an, x, StableObject(q, 1))
            ungraded_stable_hom(an, p, q)
        suspend(an, x, 3)
        ar_triangle(an, x)
    for dec in an.decompositions:
        graded_ar_window(an, dec, -4, 4)
    return report, json.loads(emit(full_ungraded_ar_quiver(an), "json"))


class TestLazyBasis:
    def test_patch_takes_effect(self, no_basis):
        alg = parse_algebra((FIXTURES / "lambda_star.json").read_text())
        with pytest.raises(AssertionError, match="basis was enumerated"):
            alg.basis  # noqa: B018

    @pytest.mark.parametrize(
        "fixture", sorted(f.name for f in FIXTURES.glob("*.json"))
    )
    def test_fixture_pipeline_without_basis(self, no_basis, fixture):
        an = Analysis(parse_algebra((FIXTURES / fixture).read_text()))
        report, quiver = run_closed_form_pipeline(an)
        an.hasse_prec, an.hasse_leq  # noqa: B018 - both Hasse quivers
        assert report.cm_free == (not an.perfect.paths)
        assert len(quiver["vertices"]) == len(an.perfect.paths)

    def test_wide_tail_pipeline_without_basis(self, no_basis):
        k, w, n, m = 20, 2, 3, 3
        assert wide_tail_basis_size(k, w, n, m) > 4 * 10**6
        an = Analysis(parse_algebra(wide_tail_document(k, w, n, m)))
        report, quiver = run_closed_form_pipeline(an)
        an.hasse_prec, an.hasse_leq  # noqa: B018 - both Hasse quivers
        ((graded,), (ungraded,)) = report.graded, report.ungraded
        assert (graded.typeA_size, graded.multiplicity) == (m, n)
        assert (ungraded.vertices, ungraded.radical_exponent) == (n, m + 1)
        assert len(quiver["vertices"]) == len(an.perfect.paths) == n * m

    @pytest.mark.parametrize(
        "fixture", sorted(f.name for f in FIXTURES.glob("*.json"))
    )
    def test_fixture_summary_without_basis(self, no_basis, fixture):
        # the module imported the real enumeration before the patch
        alg = parse_algebra((FIXTURES / fixture).read_text())
        data = cli._analysis_summary(Analysis(alg))
        basis = enumerate_nonzero_paths(alg.quiver, alg.automaton)
        assert data["basis_size"] == len(basis)
        assert data["nilpotency_bound"] == 1 + max(p.length for p in basis)

    @pytest.mark.parametrize("k", [30, 40])
    def test_wide_tail_summary_without_basis(self, no_basis, k):
        w, n, m = 2, 3, 3
        data = cli._analysis_summary(
            Analysis(parse_algebra(wide_tail_document(k, w, n, m)))
        )
        assert data["basis_size"] == wide_tail_basis_size(k, w, n, m)
        assert data["nilpotency_bound"] == k + 1
        assert len(data["perfect_paths"]) == n * m

    def test_small_wide_tail_count(self):
        # The closed form for the size used above, on a tail small enough to
        # enumerate.
        for k, w, n, m in ((3, 2, 2, 2), (4, 3, 3, 1), (5, 2, 1, 3)):
            alg = parse_algebra(wide_tail_document(k, w, n, m))
            assert len(alg.basis) == alg.dim == wide_tail_basis_size(k, w, n, m)


class TestNoHasse:
    """classify, the stable queries, the AR quivers and the ``analyze``
    summary read each class's bracket grid off the pair map; only ``hasse``
    and the oracle build a Hasse quiver."""

    def test_patch_takes_effect(self, no_hasse):
        an = Analysis(parse_algebra((FIXTURES / "lambda_star.json").read_text()))
        with pytest.raises(AssertionError, match="Hasse quiver was built"):
            an.hasse_prec  # noqa: B018

    @pytest.mark.parametrize(
        "fixture", sorted(f.name for f in FIXTURES.glob("*.json"))
    )
    def test_fixture_pipeline_without_hasse(self, no_hasse, fixture):
        an = Analysis(parse_algebra((FIXTURES / fixture).read_text()))
        report, quiver = run_closed_form_pipeline(an)
        assert report.cm_free == (not an.perfect.paths)
        assert len(quiver["vertices"]) == len(an.perfect.paths)
        assert "hasse_prec" not in an.__dict__

    @pytest.mark.parametrize(
        "fixture", sorted(f.name for f in FIXTURES.glob("*.json"))
    )
    def test_analysis_summary_without_hasse(self, no_hasse, fixture):
        an = Analysis(parse_algebra((FIXTURES / fixture).read_text()))
        data = cli._analysis_summary(an)
        assert len(data["elementary"]) == len(data["coelementary"]) == sum(
            dec.size for dec in an.decompositions
        )
        assert "hasse_prec" not in an.__dict__

    def test_wide_tail_pipeline_without_hasse(self, no_basis, no_hasse):
        k, w, n, m = 20, 2, 3, 3
        an = Analysis(parse_algebra(wide_tail_document(k, w, n, m)))
        report, quiver = run_closed_form_pipeline(an)
        assert [(f.typeA_size, f.multiplicity) for f in report.graded] == [(m, n)]
        assert len(quiver["vertices"]) == n * m
        assert "hasse_prec" not in an.__dict__
