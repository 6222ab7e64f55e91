"""Brute-force verifiers: the ground truth every closed form must match.

Nothing here reuses bracket arithmetic.  Hom spaces are path-basis
quotients, perfectness is checked by quantifying over the basis,
factorizations by exhaustive cut search.  Every basis scan reads only the
paths with a given left or right divisor, listed by the algebra's
``divisor_index``.  The :func:`verify_algebra` battery runs all of it
against the fast implementations and powers both the property-test suite
and the ``verify`` CLI command; oracles may be exponential in path length
and are meant for desk-scale inputs only.
Perfectness has one test: the literal definition on every composable
pair of non-trivial basis paths, each once, whose verdicts must equal the
pipeline's pair map; no random numbers are drawn.
The battery computes each brute-force quantity once per algebra (the
perfectness verdicts, the overlap table and both Hom tables over the
pairs of perfect paths) and every row that needs it reads that table;
the (co-)elementary paths come from the Hasse quivers, not the grid.
Work that cannot change a verdict is skipped: subpath closure is checked
one step at a time (the prefix and suffix one arrow shorter of each basis
path), and the tilting row suspends each summand once per power.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .algebra import (
    Arrow,
    MonomialAlgebra,
    NonAdmissibleError,
    Path,
    Quiver,
)
from .analysis import Analysis
from .arquiver import ungraded_ar_quiver
from .orders import classify_elementary
from .perfect import _successor_words, detect_overlap
from .stable import (
    StableObject,
    ar_triangle,
    graded_stable_hom,
    suspend,
    suspension_closed_form,
    tau_periodicity_check,
    end_algebra,
    ungraded_stable_hom,
)

FULL_PAIR_SCAN_LIMIT = 70  # only perfbench/workloads.py reads it; ROADMAP I retires it


def bf_stable_hom(alg: MonomialAlgebra, p: Path, q: Path):
    """Dimension/basis of stable Hom(pL, qL) from the path basis.

    The graded piece at k, Hom(pL, qL(k)), is spanned by the basis paths u
    with q as left divisor, p as right divisor and l(u) = k + l(p); pieces
    with k >= l(q) land in the image of a projective and die.  Returns
    ``(total, {k: witnesses})`` over the shifts with a non-zero piece.
    """
    by_shift: dict[int, list[Path]] = {}
    for u in alg.divisor_index.starts.get((q.source, q.arrows), ()):
        k = u.length - p.length
        if 0 <= k < q.length and p.right_divides(u):
            by_shift.setdefault(k, []).append(u)
    return (
        sum(len(v) for v in by_shift.values()),
        {k: tuple(v) for k, v in by_shift.items()},
    )


def bf_ordinary_hom(alg: MonomialAlgebra, p: Path, q: Path):
    """Dimension/basis of the ordinary Hom(pL, qL) = qL ∩ Lp."""
    starts = alg.divisor_index.starts.get((q.source, q.arrows), ())
    hits = tuple(u for u in starts if p.right_divides(u))
    return len(hits), hits


def bf_verify_perfect(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """The three defining conditions, quantified over every non-zero path
    that starts at t(p) or ends at s(q)."""
    if p.is_trivial or q.is_trivial or p.target != q.source:
        return False
    if alg.is_zero(p) or alg.is_zero(q) or not alg.concat_zero(p, q):
        return False
    index = alg.divisor_index
    for u in index.starts[p.target, ()]:
        if alg.concat_zero(p, u) and not q.left_divides(u):
            return False
    for u in index.ends[(), q.source]:
        if alg.concat_zero(u, q) and not p.right_divides(u):
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


RANDOM_MAX_RELATION_LENGTH = 5
RANDOM_MAX_ATTEMPTS = 400


def random_algebra(
    rng: random.Random,
    max_vertices: int = 4,
    max_arrows: int = 6,
    max_relations: int = 4,
) -> MonomialAlgebra:
    """A random admissible monomial algebra; non-admissible draws are
    discarded rather than repaired."""
    for _ in range(RANDOM_MAX_ATTEMPTS):
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
            length = rng.randint(2, RANDOM_MAX_RELATION_LENGTH)
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


def verify_algebra(
    alg: MonomialAlgebra,
    rng: random.Random | None = None,  # only perfbench/workloads.py passes it; ROADMAP I retires it
):
    """Run the whole oracle battery on one algebra.

    Returns a list of :class:`CheckResult`; every closed form in the
    package is compared with its brute-force counterpart.  Perfectness is
    tested once, on every composable pair of non-trivial basis paths, and
    the verdicts are compared with the pipeline's pair map.  The battery
    draws no random numbers.
    """
    an = Analysis(alg)
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), "" if ok else detail))

    # --- basis structure ---------------------------------------------------
    # Every window of a path is a prefix of a suffix, so by induction on
    # length the one-step prefix and suffix of each path show closure.
    basis = alg.basis
    closed = all(
        u.prefix(u.length - 1) in basis and u.suffix(u.length - 1) in basis
        for u in alg.nontrivial_basis
    )
    check("basis-subpath-closed", closed, "a subpath of a basis path is missing")
    complete = True
    for p in alg.basis:
        for arrow in alg.quiver.arrows_from[p.target]:
            ext = p * alg.quiver.arrow_path(arrow.id)
            if (ext in alg.basis) == alg.is_zero(ext):
                complete = False
    check("basis-one-step-complete", complete, "extension closure mismatch")

    # A pipeline stage that raises leaves the checks below nothing to
    # compare: report it as one failed row and let the suite go on.
    built = {}
    for stage, build in (
        ("perfect", lambda: an.perfect),
        ("classes", lambda: an.classes),
        ("hasse_prec", lambda: an.hasse_prec),
        ("hasse_leq", lambda: an.hasse_leq),
        ("coelementary", lambda: classify_elementary(an.hasse_prec, an.hasse_leq)),
        ("decompositions", lambda: an.decompositions),
    ):
        try:
            built[stage] = build()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            check(f"build-{stage}", False, f"{type(exc).__name__}: {exc}")
            return results
    elementary, coelementary = built["coelementary"]

    pset = an.perfect
    pairs = [(p, pset.successor[p]) for p in pset.paths]

    # --- perfect pairs against the literal definition ----------------------
    # Every composable pair of non-trivial basis paths, each once: p ends at
    # the vertex where q starts.  The verdicts must be exactly the pairs of
    # the pipeline's own pair map, not only its periodic points.
    index = alg.divisor_index
    bf_true = {
        (p.arrows, q.arrows)
        for v in alg.quiver.vertices
        for p in index.ends[(), v]
        if not p.is_trivial
        for q in index.starts[v, ()]
        if not q.is_trivial and bf_verify_perfect(alg, p, q)
    }
    sigma = set(_successor_words(alg).items())

    def show(words):
        return sorted(f"({'.'.join(p)}, {'.'.join(q)})" for p, q in words)[:3]

    check(
        "perfect-pairs-match-bruteforce",
        bf_true == sigma,
        f"bf only: {show(bf_true - sigma)}; pair map only: {show(sigma - bf_true)}",
    )
    # Perfect paths are the periodic points of the pair assignment, a
    # strictly smaller set than the pairs themselves in general.
    check(
        "perfect-paths-are-periodic-pairs",
        {(p.arrows, q.arrows) for p, q in pairs} <= bf_true,
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
    coelementary_set = set(coelementary)
    arrow_ok = True
    for p in pset.paths:
        for q in pset.paths:
            if p == q or not p.left_divides(q):
                continue
            r = q.window(p.length, q.length)
            if ((q, p) in prec_arrows) != (r in coelementary_set):
                arrow_ok = False
    check(
        "hasse-arrow-complement-coelementary",
        arrow_ok,
        "covering relations do not match co-elementary complements",
    )

    factor_ok = True
    for p in pset.paths:
        facs = bf_factorizations(p, coelementary)
        dec, i, span = an.locate(p)
        greedy = tuple(dec.factor(t) for t in range(i, i + span))
        if len(facs) != 1 or facs[0] != greedy:
            factor_ok = False
    check(
        "unique-coelementary-factorization",
        factor_ok,
        "exhaustive cut search disagrees with the greedy factorization",
    )
    # Every brute-force table below is built once and read by each row
    # that needs it; the co-elementary paths are perfect paths.
    overlaps = {
        (p, q): detect_overlap(alg, p, q) for p in pset.paths for q in pset.paths
    }
    check(
        "no-overlap-between-coelementary",
        all(
            overlaps[r, s] is None
            for r in coelementary
            for s in coelementary
        ),
        "two co-elementary paths overlap",
    )

    cross = ""  # names the first overlapping pair that straddles two classes
    intersection_perfect_ok = True
    for (p, q), ov in overlaps.items():
        if ov is None:
            continue
        if not cross and an.locate(p)[0] is not an.locate(q)[0]:
            cross = f"{p} and {q} overlap but lie in different classes"
        for u in alg.divisor_index.starts[p.source, p.arrows]:
            if (
                q.right_divides(u)
                and u.length < p.length + q.length
                and u not in pset.successor
            ):
                intersection_perfect_ok = False
    check("overlap-implies-same-class", not cross, cross)
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
    no_overlap = all(ov is None for ov in overlaps.values())
    both_sets = set(elementary) == set(pset.paths) == set(coelementary)
    isolated = not an.hasse_prec.arrows and not an.hasse_leq.arrows
    check(
        "no-overlap-equivalences",
        no_overlap == both_sets == isolated,
        f"no_overlap={no_overlap} elementary=co=all={both_sets} "
        f"isolated={isolated}",
    )

    # --- stable homs ----------------------------------------------------------
    hom_ok = True
    shift_sum = ""  # names the first pair whose Hom is not its shift sum
    ungraded = {}
    bf_hom = {}  # (p, q) -> the brute-force graded pieces {shift: witnesses}
    for p in pset.paths:
        for q in pset.paths:
            total, by_shift = bf_stable_hom(alg, p, q)
            bf_hom[p, q] = by_shift
            for k in range(-2, q.length + 2):
                bf_wit = by_shift.get(k, ())
                h = graded_stable_hom(
                    an, StableObject(p, 0), StableObject(q, k)
                )
                if h.dimension != len(bf_wit) or len(bf_wit) > 1:
                    hom_ok = False
                elif bf_wit and h.witness != bf_wit[0]:
                    hom_ok = False
            ungraded[p, q] = ungraded_stable_hom(an, p, q).dimension
            if not shift_sum and ungraded[p, q] != total:
                shift_sum = (
                    f"Hom({p}, {q}) has dimension {ungraded[p, q]}, "
                    f"its shifts sum to {total}"
                )
    check(
        "graded-hom-closed-form-vs-oracle",
        hom_ok,
        "bracket formula disagrees with the basis quotient",
    )
    check("ungraded-hom-shift-sum", not shift_sum, shift_sum)

    # An overlap of p with q is a non-zero Hom(q, p); an endomorphism ring
    # of dimension > 1 is a self-overlap.
    check(
        "overlap-hom-criterion",
        all(
            (ungraded[q, p] > (1 if p == q else 0)) == (ov is not None)
            for (p, q), ov in overlaps.items()
        ),
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
        "closed-form suspension disagrees with suspend",
    )

    # --- AR structure ------------------------------------------------------------
    ar_ok = True
    for p in pset.paths:
        tri = ar_triangle(an, StableObject(p, 0))
        dims = alg.module_dim(tri.tau_object.path) + alg.module_dim(p)
        mids = sum(alg.module_dim(m.path) for m in tri.middles)
        dec, _, span = an.locate(p)
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
        powers = [i for i in range(-window, window + 1) if i]
        shifted = {(y, i): suspend(an, y, i) for y in summands for i in powers}
        for x in summands:
            for y in summands:
                for power in powers:
                    z = shifted[y, power]
                    if bf_hom[x.path, z.path].get(z.shift - x.shift):
                        tilt_ok = False
    check(
        "tilting-orthogonality",
        tilt_ok,
        "Hom(T, Sigma^i T) != 0 for some 0 < |i| <= m_c + 1",
    )
    end_diff = ""  # names the first End(T) entry that the brute force disputes
    for dec, block in zip(an.decompositions, end_algebra(an)):
        for a, x in enumerate(dec.chain):
            for b, y in enumerate(dec.chain):
                want = len(bf_hom[x, y].get(0, ()))
                if not end_diff and block.pattern[a][b] != want:
                    end_diff = (
                        f"End(T) entry ({a + 1},{b + 1}) of class "
                        f"{dec.cycle_class.cycle} is {block.pattern[a][b]}, "
                        f"the basis quotient gives {want}"
                    )
    check("end-pattern-triangular", not end_diff, end_diff)

    # The brute-force pieces sit at shifts 0 <= k < l(q), the only shifts
    # where a stable Hom can be non-zero.
    shift_sep_ok = all(
        k % dec.arrow_length == 0
        for dec in an.decompositions
        for a in dec.chain
        for b in dec.chain
        for k in bf_hom[a, b]
    )
    check(
        "chain-shift-separation",
        shift_sep_ok,
        "chain objects see each other at a shift not divisible by l(c)",
    )

    # --- AR quiver shape ----------------------------------------------------------
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
    tables = [("input", verify_algebra(alg))]
    for k in range(random_count):
        sample = random_algebra(rng)
        tables.append((f"random-{k}(seed={seed})", verify_algebra(sample)))
    return tables
