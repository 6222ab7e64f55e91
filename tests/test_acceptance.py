"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison below is an exact integer or structural equality; there
are no tolerances anywhere.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import random

import pytest

from gpstable import fixtures
from gpstable.analysis import Analysis
from gpstable.arquiver import ungraded_ar_quiver
from gpstable.oracle import random_algebra, verify_algebra
from gpstable.perfect import detect_overlap
from gpstable.stable import classify

RANDOM_SEED = 20260810
RANDOM_COUNT = 100


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="module")
def star_an():
    return Analysis(fixtures.lambda_star())


def rotations(seq):
    return {tuple(seq[k:] + seq[:k]) for k in range(len(seq))}


def test_criterion_1_perfect_paths_and_sequences(star_an):
    expected_sequences = [
        ("a1.a2", "a3.a1.a2.a3.a1.a2", "a3", "a1.a2.a3.a1.a2.a3"),
        ("a1.a2.a3.a1.a2", "a3.a1.a2", "a3.a1.a2.a3", "a1.a2.a3"),
        ("a4.a5", "a4.a5.a4.a5.a4.a5"),
        ("a4.a5.a4.a5",),
    ]
    got = {tuple(map(str, seq)) for seq in star_an.perfect.sequences}
    ok = len(star_an.perfect.paths) == 11 and len(got) == 4
    for expected in expected_sequences:
        ok = ok and bool(rotations(list(expected)) & got)
    report(1, ok, "11 perfect paths in the 4 minimal sequences (up to rotation)")


def test_criterion_2_hasse_quivers(star_an):
    prec_expected = {
        ("a1.a2.a3.a1.a2.a3", "a1.a2.a3.a1.a2", "a1.a2.a3", "a1.a2"),
        ("a3.a1.a2.a3.a1.a2", "a3.a1.a2.a3", "a3.a1.a2", "a3"),
        ("a4.a5.a4.a5.a4.a5", "a4.a5.a4.a5", "a4.a5"),
    }
    leq_expected = {
        ("a1.a2", "a3.a1.a2", "a1.a2.a3.a1.a2", "a3.a1.a2.a3.a1.a2"),
        ("a3", "a1.a2.a3", "a3.a1.a2.a3", "a1.a2.a3.a1.a2.a3"),
        ("a4.a5", "a4.a5.a4.a5", "a4.a5.a4.a5.a4.a5"),
    }
    prec = {tuple(map(str, c)) for c in star_an.hasse_prec.components}
    leq = {tuple(map(str, c)) for c in star_an.hasse_leq.components}
    ok = prec == prec_expected and leq == leq_expected
    report(2, ok, "both Hasse quivers match the reference chains exactly")


def test_criterion_3_elementary_and_classes(star_an):
    ok = {str(p) for p in star_an.elementary} == {
        "a1.a2.a3.a1.a2.a3",
        "a3.a1.a2.a3.a1.a2",
        "a4.a5.a4.a5.a4.a5",
    }
    ok = ok and {str(p) for p in star_an.coelementary} == {"a1.a2", "a3", "a4.a5"}
    stats = {
        str(d.cycle_class.cycle): (d.size, d.arrow_length, d.m)
        for d in star_an.decompositions
    }
    ok = ok and stats == {"a1.a2.a3": (2, 3, 4), "a4.a5": (1, 2, 3)}
    report(3, ok, "elementary sets and class invariants (2,3,4) and (1,2,3)")


def test_criterion_4_classification(star_an):
    rep = classify(star_an).to_json_dict()
    ok = rep == {
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
    report(4, ok, "graded A4 x3 + A3 x2; ungraded Nakayama (2, rad^5) and (1, rad^4)")


def test_criterion_5_ungraded_ar_quiver(star_an):
    from reference_ar import (
        THREE_CYCLE_ARROWS,
        THREE_CYCLE_TAU,
        TWO_CYCLE_ARROWS,
        vertex_pairs,
    )

    ok = True
    for dec in star_an.decompositions:
        tq = ungraded_ar_quiver(star_an, dec)
        arrows = {(str(a.path), str(b.path)) for a, b in vertex_pairs(tq, tq.arrows)}
        tau = {(str(a.path), str(b.path)) for a, b in vertex_pairs(tq, tq.tau)}
        tau_map = dict(tq.tau)
        periods = set()
        for start in range(len(tq.vertices)):
            orbit = {start}
            cur = tau_map[start]
            while cur != start:
                orbit.add(cur)
                cur = tau_map[cur]
            periods.add(len(orbit))
        if dec.size == 2:
            ok = ok and len(tq.vertices) == 8
            ok = ok and arrows == THREE_CYCLE_ARROWS
            ok = ok and tau == THREE_CYCLE_TAU
            ok = ok and periods == {2}
        else:
            ok = ok and len(tq.vertices) == 3
            ok = ok and arrows == TWO_CYCLE_ARROWS
            ok = ok and periods == {1}
    report(5, ok, "ungraded AR quiver components (8 and 3 vertices) match the figure")


def test_criterion_6_property_suite():
    algebras = [
        fixtures.lambda_star(),
        fixtures.a2(),
        fixtures.loop(1),
        fixtures.loop(2),
        fixtures.loop(3),
        fixtures.nakayama(2, 2),
        fixtures.nakayama(3, 2),
        fixtures.quadratic(),
    ]
    rng = random.Random(RANDOM_SEED)
    algebras += [random_algebra(rng) for _ in range(RANDOM_COUNT)]
    failures = []
    with_perfect = 0
    for k, alg in enumerate(algebras):
        results = verify_algebra(alg)
        bad = [c for c in results if not c.ok]
        if bad:
            failures.append((k, [str(r) for r in alg.relations], bad))
        if Analysis(alg).perfect.paths:
            with_perfect += 1
    ok = not failures and with_perfect >= 25
    report(
        6,
        ok,
        f"property battery on {len(algebras)} algebras "
        f"({with_perfect} with perfect paths), seed {RANDOM_SEED}"
        + (f"; failures: {failures[:2]}" if failures else ""),
    )


def test_criterion_7_nakayama_regression():
    ok = True
    for n in range(1, 5):
        for m in range(1, 5):
            alg = fixtures.nakayama(n, m)
            an = Analysis(alg)
            ok = ok and set(an.perfect.paths) == set(alg.nontrivial_basis)
            ok = ok and len(an.perfect.paths) == n * m
            ok = ok and len(an.decompositions) == 1
            dec = an.decompositions[0]
            ok = ok and (dec.size, dec.m) == (n, m)
            rep = classify(an)
            ok = (
                ok
                and rep.ungraded[0].vertices == n
                and rep.ungraded[0].radical_exponent == m + 1
            )
    report(7, ok, "N(n,m) for n,m in 1..4: all paths perfect, self-describing class")


def test_criterion_8_no_overlap_class():
    alg = fixtures.quadratic()
    an = Analysis(alg)
    no_overlap = all(
        detect_overlap(alg, p, q) is None
        for p in an.perfect.paths
        for q in an.perfect.paths
    )
    both = set(an.elementary) == set(an.perfect.paths) == set(an.coelementary)
    isolated = not an.hasse_prec.arrows and not an.hasse_leq.arrows
    ok = no_overlap and both and isolated
    ok = ok and all(d.m == 1 for d in an.decompositions)
    rep = classify(an)
    ok = ok and all(f.typeA_size == 1 for f in rep.graded)
    report(8, ok, "quadratic fixture: no-overlap equivalences agree, all factors A1")
