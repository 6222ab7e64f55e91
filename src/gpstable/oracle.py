"""Brute-force verifiers: the ground truth every closed form must match.

Nothing here reuses bracket arithmetic.  Hom spaces are path-basis
quotients, perfectness is checked by quantifying over the whole basis,
factorizations by exhaustive cut search.  The :func:`verify_algebra`
battery runs all of it against the fast implementations and powers both
the property-test suite and the ``verify`` CLI command; oracles may be
exponential in path length and are meant for desk-scale inputs only.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import (
    Arrow,
    MonomialAlgebra,
    NonAdmissibleError,
    Path,
    Quiver,
)
from .analysis import Analysis
from .perfect import detect_overlap, is_perfect_pair
from .stable import (
    StableObject,
    ar_triangle,
    graded_stable_hom,
    suspend,
    suspension_closed_form,
    tau_periodicity_check,
    tilting_object,
    end_algebra,
    ungraded_stable_hom,
)

FULL_PAIR_SCAN_LIMIT = 70  # basis size under which every pair is bf-checked


def bf_stable_hom(
    alg: MonomialAlgebra, p: Path, q: Path, shift: int | None = None
):
    """Dimension/basis of stable Hom(pL, qL(k)) from the path basis.

    The graded piece at k is spanned by the basis paths u with q as left
    divisor, p as right divisor and l(u) = k + l(p); pieces with
    k >= l(q) land in the image of a projective and die.  Returns
    ``(dim, witnesses)`` for one shift, or ``(total, {k: witnesses})``
    over all shifts when ``shift`` is None.
    """

    def piece(k: int) -> tuple[Path, ...]:
        if k < 0 or k >= q.length:
            return ()
        want = k + p.length
        hits = [
            u
            for u in alg.basis
            if u.length == want
            and q.left_divides(u)
            and p.right_divides(u)
        ]
        return tuple(sorted(hits, key=Path.sort_key))

    if shift is not None:
        hits = piece(shift)
        return len(hits), hits
    by_shift = {}
    for k in range(q.length):
        hits = piece(k)
        if hits:
            by_shift[k] = hits
    return sum(len(v) for v in by_shift.values()), by_shift


def bf_ordinary_hom(alg: MonomialAlgebra, p: Path, q: Path):
    """Dimension/basis of the ordinary Hom(pL, qL) = qL ∩ Lp."""
    hits = [
        u
        for u in alg.basis
        if q.left_divides(u) and p.right_divides(u)
    ]
    return len(hits), tuple(sorted(hits, key=Path.sort_key))


def bf_verify_perfect(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """The three defining conditions, quantified over every non-zero path."""
    if p.is_trivial or q.is_trivial:
        return False
    if alg.is_zero(p) or alg.is_zero(q):
        return False
    if p.target != q.source or not alg.is_zero(p * q):
        return False
    for u in alg.nontrivial_basis:
        if u.source == p.target and alg.is_zero(p * u):
            if not q.left_divides(u):
                return False
        if u.target == q.source and alg.is_zero(u * q):
            if not p.right_divides(u):
                return False
    return True


def bf_ses_dims(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """dim qL + dim pL = dim e_{t(p)}L, by path counting."""
    e = Path((), (p.target,))
    return alg.module_dim(q) + alg.module_dim(p) == alg.module_dim(e)


def bf_factorizations(
    p: Path, coelementary: Iterable[Path]
) -> tuple[tuple[Path, ...], ...]:
    """All factorizations of ``p`` into co-elementary paths, by cut search."""
    coel = tuple(sorted(set(coelementary), key=Path.sort_key))

    def rec(rest: Path):
        if rest.is_trivial:
            yield ()
            return
        for r in coel:
            if r.left_divides(rest):
                for tail in rec(rest.window(r.length, rest.length)):
                    yield (r, *tail)

    return tuple(rec(p))


def random_algebra(
    rng: random.Random,
    max_vertices: int = 4,
    max_arrows: int = 6,
    max_relations: int = 4,
    max_relation_length: int = 5,
    max_attempts: int = 400,
) -> MonomialAlgebra:
    """A random admissible monomial algebra; non-admissible draws are
    discarded rather than repaired."""
    for _ in range(max_attempts):
        nv = rng.randint(1, max_vertices)
        vertices = tuple(f"v{k}" for k in range(1, nv + 1))
        na = rng.randint(1, max_arrows)
        arrows = tuple(
            Arrow(f"a{k}", rng.choice(vertices), rng.choice(vertices))
            for k in range(1, na + 1)
        )
        quiver = Quiver(vertices, arrows)
        relations = []
        for _ in range(rng.randint(0, max_relations)):
            length = rng.randint(2, max_relation_length)
            start = rng.choice(arrows)
            walk = [start]
            while len(walk) < length:
                nxt = quiver.arrows_from[walk[-1].target]
                if not nxt:
                    break
                walk.append(rng.choice(nxt))
            if len(walk) == length:
                relations.append(quiver.path(tuple(a.id for a in walk)))
        try:
            return MonomialAlgebra(quiver, relations)
        except NonAdmissibleError:
            continue
    raise RuntimeError("could not draw an admissible algebra")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _relation_split_candidates(alg: MonomialAlgebra):
    """All (prefix, suffix) splits of relations with both parts non-zero;
    any perfect pair appears here because its product is a relation."""
    for r in alg.relations:
        for cut in range(1, r.length):
            p, q = r.prefix(cut), r.suffix(r.length - cut)
            if not alg.is_zero(p) and not alg.is_zero(q):
                yield p, q


def verify_algebra(alg: MonomialAlgebra, rng: random.Random | None = None):
    """Run the whole oracle battery on one algebra.

    Returns a list of :class:`CheckResult`; every closed form in the
    package is compared with its brute-force counterpart.
    """
    rng = rng or random.Random(0)
    an = Analysis(alg)
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), "" if ok else detail))

    # --- basis structure ---------------------------------------------------
    closed = all(
        p.window(i, j) in alg.basis
        for p in alg.basis
        for i in range(p.length + 1)
        for j in range(i, p.length + 1)
    )
    check("basis-subpath-closed", closed, "a subpath of a basis path is missing")
    complete = True
    for p in alg.basis:
        for arrow in alg.quiver.arrows_from[p.target]:
            ext = p * alg.quiver.arrow_path(arrow.id)
            if (ext in alg.basis) == alg.is_zero(ext):
                complete = False
    check("basis-one-step-complete", complete, "extension closure mismatch")

    pset = an.perfect
    pairs = [(p, pset.successor[p]) for p in pset.paths]

    # --- perfect pairs against the literal definition ----------------------
    if len(alg.nontrivial_basis) <= FULL_PAIR_SCAN_LIMIT:
        candidates = list(
            itertools.product(alg.nontrivial_basis, alg.nontrivial_basis)
        )
    else:
        candidates = list(_relation_split_candidates(alg))
        pool = [
            (p, q)
            for p in alg.nontrivial_basis
            for q in alg.nontrivial_basis
            if p.target == q.source
        ]
        candidates += rng.sample(pool, min(60, len(pool)))
        candidates += pairs
    bf_true = {
        (p, q) for p, q in set(candidates) if bf_verify_perfect(alg, p, q)
    }
    fast_true = {
        (p, q) for p, q in set(candidates) if is_perfect_pair(alg, p, q)
    }
    check(
        "perfect-pairs-match-bruteforce",
        bf_true == fast_true,
        f"bf only: {sorted(map(str, bf_true - fast_true))[:3]}; "
        f"fast only: {sorted(map(str, fast_true - bf_true))[:3]}",
    )
    # Perfect paths are the periodic points of the pair assignment, a
    # strictly smaller set than the pairs themselves in general.
    check(
        "perfect-paths-are-periodic-pairs",
        all(bf_verify_perfect(alg, p, q) for p, q in pairs),
        "an enumerated successor pair fails the literal definition",
    )

    relation_paths = set(alg.relations)
    check(
        "perfect-product-is-relation",
        all((p * q) in relation_paths for p, q in pairs),
        "a perfect pair's product is not a minimal relation",
    )
    check(
        "ses-dimension-identity",
        all(bf_ses_dims(alg, p, q) for p, q in pairs),
        "dim qL + dim pL != dim eL for some perfect pair",
    )
    succ_values = list(pset.successor.values())
    check(
        "successor-injective",
        len(set(succ_values)) == len(succ_values),
        "successor map is not injective",
    )

    # --- order structure ----------------------------------------------------
    for h in (an.hasse_prec, an.hasse_leq):
        heads = [a for a, _ in h.arrows]
        tails = [b for _, b in h.arrows]
        check(
            f"hasse-{h.order}-degrees",
            len(set(heads)) == len(heads) and len(set(tails)) == len(tails),
            "in/out degree exceeds 1",
        )
    prec_arrows = set(an.hasse_prec.arrows)
    coelementary = set(an.coelementary)
    arrow_ok = True
    for p in pset.paths:
        for q in pset.paths:
            if p == q or not p.left_divides(q):
                continue
            r = q.window(p.length, q.length)
            if ((q, p) in prec_arrows) != (r in coelementary):
                arrow_ok = False
    check(
        "hasse-arrow-complement-coelementary",
        arrow_ok,
        "covering relations do not match co-elementary complements",
    )

    factor_ok = True
    for p in pset.paths:
        facs = bf_factorizations(p, an.coelementary)
        dec = an.decomposition_for(p)
        i, span = dec.bracket_of(p)
        greedy = tuple(dec.factor(t) for t in range(i, i + span))
        if len(facs) != 1 or facs[0] != greedy:
            factor_ok = False
    check(
        "unique-coelementary-factorization",
        factor_ok,
        "exhaustive cut search disagrees with the greedy factorization",
    )
    check(
        "no-overlap-between-coelementary",
        all(
            detect_overlap(alg, r, s) is None
            for r in an.coelementary
            for s in an.coelementary
        ),
        "two co-elementary paths overlap",
    )

    overlap_class_ok = True
    intersection_perfect_ok = True
    for p in pset.paths:
        for q in pset.paths:
            ov = detect_overlap(alg, p, q)
            if ov is None:
                continue
            if an.class_of[p] != an.class_of[q]:
                overlap_class_ok = False
            for u in alg.basis:
                if (
                    p.left_divides(u)
                    and q.right_divides(u)
                    and u.length < p.length + q.length
                    and u not in pset.successor
                ):
                    intersection_perfect_ok = False
    check("overlap-implies-same-class", overlap_class_ok, "")
    check(
        "overlap-intersection-paths-perfect",
        intersection_perfect_ok,
        "a stable basis path between overlapping perfect paths is not perfect",
    )

    check(
        "perfect-count-identity",
        sum(d.m * d.size for d in an.decompositions) == len(pset.paths),
        "sum of m_c * |c| does not count the perfect paths",
    )
    for dec in an.decompositions:
        check(
            "class-invariants",
            len(dec.elementary) == len(dec.coelementary) == dec.size
            and len(dec.members) == dec.m * dec.size,
            f"X/Y size mismatch on {dec.cycle_class.cycle}",
        )

    # --- no-overlap three-way equivalence ------------------------------------
    no_overlap = all(
        detect_overlap(alg, p, q) is None
        for p in pset.paths
        for q in pset.paths
    )
    both_sets = set(an.elementary) == set(pset.paths) == set(an.coelementary)
    isolated = not an.hasse_prec.arrows and not an.hasse_leq.arrows
    check(
        "no-overlap-equivalences",
        no_overlap == both_sets == isolated,
        f"no_overlap={no_overlap} elementary=co=all={both_sets} "
        f"isolated={isolated}",
    )

    # --- stable homs ----------------------------------------------------------
    hom_ok = True
    ungraded_ok = True
    for p in pset.paths:
        for q in pset.paths:
            for k in range(-2, q.length + 2):
                bf_dim, bf_wit = bf_stable_hom(alg, p, q, k)
                h = graded_stable_hom(
                    an, StableObject(p, 0), StableObject(q, k)
                )
                if h.dimension != bf_dim or bf_dim > 1:
                    hom_ok = False
                elif bf_dim == 1 and h.witness != bf_wit[0]:
                    hom_ok = False
            total, _ = bf_stable_hom(alg, p, q)
            if ungraded_stable_hom(an, p, q).dimension != total:
                ungraded_ok = False
    check(
        "graded-hom-closed-form-vs-oracle",
        hom_ok,
        "bracket formula disagrees with the basis quotient",
    )
    check("ungraded-hom-shift-sum", ungraded_ok, "")

    overlap_hom_ok = True
    for p in pset.paths:
        for q in pset.paths:
            if p == q:
                endo = ungraded_stable_hom(an, p, p).dimension
                if (endo > 1) != (detect_overlap(alg, p, p) is not None):
                    overlap_hom_ok = False
            else:
                hom_qp = ungraded_stable_hom(an, q, p).dimension
                if (hom_qp > 0) != (detect_overlap(alg, p, q) is not None):
                    overlap_hom_ok = False
    check(
        "overlap-hom-criterion",
        overlap_hom_ok,
        "overlaps do not match non-vanishing stable Homs",
    )

    # --- suspension ------------------------------------------------------------
    susp_ok = True
    for p, q in pairs:
        if suspend(an, StableObject(q, 0), 1) != StableObject(p, p.length):
            susp_ok = False
        obj = StableObject(p, 3)
        if suspend(an, suspend(an, obj, 1), -1) != obj:
            susp_ok = False
    check("suspension-pair-rule", susp_ok, "one-step suspension rule broken")
    closed_ok = True
    for dec in an.decompositions:
        for i_prime in range(1, dec.m + 1):
            start = StableObject(dec.chain[i_prime - 1], 0)
            for power in range(-2 * (dec.m + 1), 2 * (dec.m + 1) + 1):
                if suspension_closed_form(an, dec, i_prime, power) != suspend(
                    an, start, power
                ):
                    closed_ok = False
    check(
        "suspension-closed-form",
        closed_ok,
        "closed-form suspension disagrees with iteration",
    )

    # --- AR structure ------------------------------------------------------------
    ar_ok = True
    for p in pset.paths:
        tri = ar_triangle(an, StableObject(p, 0))
        dims = alg.module_dim(tri.tau_object.path) + alg.module_dim(p)
        mids = sum(alg.module_dim(m.path) for m in tri.middles)
        dec = an.decomposition_for(p)
        _, span = dec.bracket_of(p)
        if 1 < span < dec.m and dims != mids:
            ar_ok = False
        if alg.is_zero(tri.connecting_witness):
            ar_ok = False
    check("ar-dimension-identity", ar_ok, "middle terms do not add up")
    check(
        "tau-periodicity",
        all(tau_periodicity_check(an, dec) for dec in an.decompositions),
        "tau^{|c|} is not the shift (-l(c))",
    )

    tilt_ok = True
    for dec in an.decompositions:
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
                    if graded_stable_hom(
                        an, x, suspend(an, y, power)
                    ).dimension:
                        tilt_ok = False
    check(
        "tilting-orthogonality",
        tilt_ok,
        "Hom(T, Sigma^i T) != 0 for some 0 < |i| <= m_c + 1",
    )
    try:
        end_algebra(an)
        check("end-pattern-triangular", True)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the table
        check("end-pattern-triangular", False, str(exc))

    shift_sep_ok = True
    for dec in an.decompositions:
        for a in dec.chain:
            for b in dec.chain:
                for k in range(-2 * dec.arrow_length, 2 * dec.arrow_length + 1):
                    dim = graded_stable_hom(
                        an, StableObject(a, 0), StableObject(b, k)
                    ).dimension
                    if dim and k % dec.arrow_length:
                        shift_sep_ok = False
    check(
        "chain-shift-separation",
        shift_sep_ok,
        "chain objects see each other at a shift not divisible by l(c)",
    )

    # --- AR quiver shape ----------------------------------------------------------
    from .arquiver import ungraded_ar_quiver  # local import to avoid a cycle

    quiver_ok = True
    for dec in an.decompositions:
        tq = ungraded_ar_quiver(an, dec)
        if len(tq.vertices) != dec.m * dec.size:
            quiver_ok = False
        tau_map = {a: b for a, b in tq.tau}
        if set(tau_map) != set(range(len(tq.vertices))):
            quiver_ok = False
        for start in range(len(tq.vertices)):
            orbit = {start}
            cur = tau_map[start]
            while cur != start:
                orbit.add(cur)
                cur = tau_map[cur]
            if len(orbit) != dec.size:
                quiver_ok = False
        arrows = set(tq.arrows)
        for b, c in arrows:
            if (tau_map[c], b) not in arrows:
                quiver_ok = False
    check(
        "ar-quiver-shape",
        quiver_ok,
        "vertex count, tau orbits or mesh companions are off",
    )

    return results


def verify_suite(
    alg: MonomialAlgebra, random_count: int = 0, seed: int = 0
) -> list[tuple[str, list[CheckResult]]]:
    """Verify one algebra plus ``random_count`` seeded random ones."""
    rng = random.Random(seed)
    tables = [("input", verify_algebra(alg, rng))]
    for k in range(random_count):
        sample = random_algebra(rng)
        tables.append((f"random-{k}(seed={seed})", verify_algebra(sample, rng)))
    return tables
