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
pipeline's pair map; no random numbers are drawn.  One automaton read per
pair fills the zero row Z(p) = {q : pq = 0} of each path; since the zero
ideal is two-sided, Z(p) holds every path q·x when pq = 0, so the two
quantified conditions are the counting identities |Z(p)| = #{q·x} and
#{p' : p'q = 0} = #{x·p} (:func:`bf_perfect_pairs`).
The battery computes each brute-force quantity once per algebra (the
perfectness verdicts, the overlap table and both Hom tables over the
pairs of perfect paths) and every row that needs it reads that table;
the (co-)elementary paths come from the Hasse quivers, not the grid, and
one row compares them with the grid's, which ``analyze`` prints.  The
two pair tables are batched and filled in place: each is keyed once by
every pair, p first, and only the pairs something is found for are
written.  The brute-force Hom table scans the basis paths q·x once per
target q, finds each source p among their arrow suffixes and appends q·x
to that pair's piece (:func:`bf_stable_hom_table`); the overlap table
looks each suffix of p up in one index of the prefixes of every q
(:func:`bf_overlap_table`).  :func:`bf_stable_hom` and ``detect_overlap``
stay the per-pair definitions they must equal.
Work that cannot change a verdict is skipped: subpath closure is checked
one step at a time (the prefix and suffix one arrow shorter of each basis
path); the graded-Hom row asks the closed form about every shift but
reads the brute-force piece only where one side is non-zero, since two
zero pieces agree; and the tilting row suspends each summand of
``tilting_object`` once per power and builds, per class, one set per
target path of the shifts at which some summand has a non-zero
brute-force Hom to it.
"""

from __future__ import annotations

import random
from itertools import product
from typing import Iterable, NamedTuple

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
from .perfect import Overlap, _successor_words
from .stable import (
    StableObject,
    ar_translate,
    ar_triangle,
    graded_stable_hom,
    suspend,
    suspension_closed_form,
    tau_periodicity_check,
    end_algebra,
    tilting_object,
    ungraded_stable_hom,
)

FULL_PAIR_SCAN_LIMIT = 70  # only perfbench/workloads.py reads it; ROADMAP B retires it


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


def bf_stable_hom_table(alg: MonomialAlgebra, paths: Iterable[Path]):
    """The pieces ``bf_stable_hom(alg, p, q)[1]`` for every pair of the
    non-trivial ``paths``, as ``{(p, q): {k: witnesses}}``, from one basis
    scan per target q.

    The table is keyed once, every pair with an empty dict, and each scan
    appends its witnesses straight into the pieces of ``table[p, q]``;
    one pass at the end turns each piece into a tuple.  Most pairs of
    perfect paths have no non-zero piece and keep their empty dict.

    Each basis path u = q·x is looked up by its arrow suffixes of the
    lengths in (l(u) - l(q), l(u)] in a dict of ``paths`` by arrow word; a
    hit p adds u to the piece k = l(u) - l(p).  This is the same set: a
    non-trivial path is fixed by its arrow word, so an equal arrow suffix
    means p right-divides u, and the length window is exactly
    ``0 <= k < l(q)``.  Both walk ``starts`` in the same order, so every
    piece lists its witnesses, and every row its shifts, in the order
    :func:`bf_stable_hom` gives.  The keys are in ``paths`` order, p first.
    """
    paths = tuple(paths)
    by_word = {p.arrows: p for p in paths}
    starts = alg.divisor_index.starts
    table = {pair: {} for pair in product(paths, paths)}
    for q in paths:
        lq = q.length
        for u in starts.get((q.source, q.arrows), ()):
            word, n = u.arrows, u.length
            for j in range(n - lq + 1, n + 1):
                p = by_word.get(word[n - j :])
                if p is not None:
                    table[p, q].setdefault(n - j, []).append(u)
    for pieces in table.values():
        if pieces:  # most pairs have no non-zero piece
            for k, witnesses in pieces.items():
                pieces[k] = tuple(witnesses)
    return table


def bf_overlap_table(alg: MonomialAlgebra, paths: Iterable[Path]):
    """``detect_overlap(alg, p, q)`` for every pair of the non-trivial
    ``paths``, as ``{(p, q): Overlap | None}``, from one prefix index and
    the relation automaton.

    Every prefix of every q is indexed by its arrow word.  For each p the
    middle length xlen runs upward, and p's suffix of that length names
    the q that begin with it; a q still undecided overlaps p there iff the
    product (p minus its middle)·q is non-zero.  That product is read as
    ``is_zero`` reads it: p's left part once per (p, xlen) from the start
    state of s(p), then each candidate q's arrows on from that state.  A
    middle as long as p is skipped when q is p, since a self-overlap (O1)
    needs both complements non-trivial.  The first non-zero product is the
    one the per-pair scan returns, with the same kind, left, middle and
    right, and only that overlap's paths are built.  The table is keyed
    once, in ``paths`` order, p first, with every pair ``None``; a pair is
    written only when its overlap is found, and a written pair is not
    tried again.
    """
    paths = tuple(paths)
    auto = alg.automaton
    prefixes = {}  # arrow word -> the paths that begin with it
    for q in paths:
        for j in range(1, q.length + 1):
            prefixes.setdefault(q.arrows[:j], []).append(q)
    table = dict.fromkeys(product(paths, paths))
    for p in paths:
        (w, v), lp = p, p.length
        for xlen in range(1, lp + 1):
            cut, state = lp - xlen, -1  # -1: p's left part not read yet
            for q in prefixes.get(w[cut:], ()):
                same = q == p
                if table[p, q] is not None or (same and cut == 0):
                    continue
                if state == -1:
                    state = auto.read(auto.start[v[0]], w[:cut])
                if state is not None and auto.read(state, q.arrows) is not None:
                    qw, qv = q
                    table[p, q] = Overlap(
                        "O1" if same else "O2",
                        Path(w[:cut], v[: cut + 1]),
                        Path(qw[:xlen], qv[: xlen + 1]),
                        Path(qw[xlen:], qv[xlen:]),
                    )
    return table


def bf_ordinary_hom(alg: MonomialAlgebra, p: Path, q: Path):
    """Dimension/basis of the ordinary Hom(pL, qL) = qL ∩ Lp."""
    starts = alg.divisor_index.starts.get((q.source, q.arrows), ())
    hits = tuple([u for u in starts if p.right_divides(u)])
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


def bf_perfect_pairs(alg: MonomialAlgebra) -> set[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The arrow words of every pair (p, q) of non-trivial basis paths that
    :func:`bf_verify_perfect` accepts, from one zero row per path.

    At each vertex v, each non-trivial p into v is read once through the
    relation automaton; one read of each non-trivial q out of v from p's
    state gives the zero row Z(p) = {q : pq = 0}, and the same rows count
    left[q] = #{p : pq = 0}.  The pair (p, q) is perfect iff q ∈ Z(p),
    |starts[v, q]| = |Z(p)| and |ends[p, v]| = left[q].  This is still the
    literal definition: the zero ideal is two-sided, so pq = 0 puts every
    basis path q·x in Z(p), and "every u with pu = 0 has q as a left
    divisor" (trivial u never has pu = 0) is the equality of the finite
    sets Z(p) ⊇ starts[v, q], that is of their sizes.  The left condition
    is the same argument on the paths x·p with x·p·q = 0.
    """
    auto, index = alg.automaton, alg.divisor_index
    pairs = set()
    for v in alg.quiver.vertices:
        outs = [q.arrows for q in index.starts[v, ()] if q.arrows]
        left = dict.fromkeys(outs, 0)
        rows = []
        for p in index.ends[(), v]:
            if p.arrows:
                state = auto.read(auto.start[p.source], p.arrows)
                row = [q for q in outs if auto.read(state, q) is None]
                for q in row:
                    left[q] += 1
                rows.append((p.arrows, row))
        for p, row in rows:
            right = len(index.ends[p, v])  # the paths x·p, at most left[q]
            pairs.update(
                (p, q)
                for q in row
                if len(index.starts[v, q]) == len(row) and right == left[q]
            )
    return pairs


def bf_ses_dims(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """dim qL + dim pL = dim e_{t(p)}L, by path counting."""
    e = Path((), (p.target,))
    return alg.module_dim(q) + alg.module_dim(p) == alg.module_dim(e)


def bf_factorizations(
    p: Path, coelementary: Iterable[Path]
) -> tuple[tuple[Path, ...], ...]:
    """All factorizations of ``p`` into co-elementary paths, by cut search."""
    coel = tuple(sorted(set(coelementary), key=Path.sort_key))
    return tuple([*_factorizations(p, coel)])


def _factorizations(rest: Path, coel: tuple[Path, ...]):
    """The factorizations of ``rest`` into the paths ``coel``, in the
    order of ``coel`` at each cut.  A module-level generator rather than a
    closure, so a call leaves no reference cycle behind."""
    if rest.is_trivial:
        yield ()
        return
    for r in coel:
        if r.left_divides(rest):
            for tail in _factorizations(rest.window(r.length, rest.length), coel):
                yield (r, *tail)


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
        vertices = tuple([f"v{k}" for k in range(1, nv + 1)])
        na = rng.randint(1, max_arrows)
        arrows = tuple([
            Arrow(f"a{k}", rng.choice(vertices), rng.choice(vertices))
            for k in range(1, na + 1)
        ])
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
                relations.append(quiver.path(tuple([a.id for a in walk])))
        try:
            return MonomialAlgebra(quiver, relations)
        except NonAdmissibleError:
            continue
    raise RuntimeError("could not draw an admissible algebra")


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def verify_algebra(
    alg: MonomialAlgebra,
    rng: random.Random | None = None,  # only perfbench/workloads.py passes it; ROADMAP B retires it
):
    """Run the whole oracle battery on one algebra.

    Returns a list of :class:`CheckResult`; every closed form in the
    package is compared with its brute-force counterpart.  Perfectness is
    tested once, on every composable pair of non-trivial basis paths, and
    the verdicts are compared with the pipeline's pair map; the test reads
    each pair once through the relation automaton into the zero rows
    Z(p) = {q : pq = 0} and checks the definition by the counting
    identities of :func:`bf_perfect_pairs`.  The rows that scan paths or
    pairs read an index built once per algebra or once per class:

    - the two basis rows test each basis path's one-step prefix, suffix
      and extensions, as (arrows, vertices) tuples, against ``alg.basis``;
    - the Hasse-arrow row looks each proper prefix of a perfect path up in
      one dict of the perfect paths by arrow word;
    - the factorization row sorts the co-elementary paths once and runs
      the cut search on every perfect path;
    - the overlap rows read the table of :func:`bf_overlap_table` (one
      index of the prefixes of every perfect path, read through the
      relation automaton) and, per overlapping pair (p, q), the paths
      ``divisor_index.starts`` lists under p, compared with q by arrow
      suffix;
    - the Hom, Serre, End and shift rows read the table of
      :func:`bf_stable_hom_table` (one basis scan per target path), and
      the tilting row builds from it, per class, one set per target path
      of the shifts s + k with a non-empty piece at s and a summand shift k;
    - the graded-Hom row walks that table's pairs in key order, calls
      ``graded_stable_hom`` on every shift -2 ... l(q)+1 of every pair,
      but compares it with the brute-force piece only when the closed
      form's dimension is non-zero or the table has a piece at that
      shift: two zero pieces agree, so every verdict and first-offender
      detail is as a full comparison gives.

    The battery draws no random numbers.
    """
    an = Analysis(alg)
    results: list[CheckResult] = []

    def check(name: str, ok: bool, detail: str = ""):
        results.append(CheckResult(name, bool(ok), "" if ok else detail))

    # --- basis structure ---------------------------------------------------
    # Every window of a path is a prefix of a suffix, so by induction on
    # length the one-step prefix and suffix of each path show closure.  A
    # Path is a named tuple: its (arrows, vertices) slices hash and compare
    # as the prefix and suffix Paths, so none is built.
    basis = alg.basis
    closed = all(
        (w[:-1], v[:-1]) in basis and (w[1:], v[1:]) in basis
        for w, v in alg.nontrivial_basis
    )
    check("basis-subpath-closed", closed, "a subpath of a basis path is missing")
    complete, arrows_from = True, alg.quiver.arrows_from
    for w, v in basis:
        for a in arrows_from[v[-1]]:
            ext = Path(w + (a.id,), v + (a.target,))
            if (ext in basis) == alg.is_zero(ext):
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
    # the vertex where q starts.  One automaton read per pair fills the zero
    # rows Z(p) = {q : pq = 0}; a pair is perfect iff q ∈ Z(p), |Z(p)| counts
    # the paths q·x and #{p' : p'q = 0} counts the paths x·p, which is the
    # definition by two-sidedness of the zero ideal (see bf_perfect_pairs).
    # The verdicts must be exactly the pairs of the pipeline's own pair map,
    # not only its periodic points.
    bf_true = bf_perfect_pairs(alg)
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
    # A perfect p != q left-divides q iff p is a proper prefix of q, so one
    # index of the perfect paths by arrow word names each such p.
    prec_arrows = set(an.hasse_prec.arrows)
    coelementary_set = set(coelementary)
    by_word = {p.arrows: p for p in pset.paths}
    arrow_ok = True
    for q in pset.paths:
        w, v = q
        for k in range(1, len(w)):
            p = by_word.get(w[:k])
            if p is not None and (
                ((q, p) in prec_arrows) != ((w[k:], v[k:]) in coelementary_set)
            ):
                arrow_ok = False
    check(
        "hasse-arrow-complement-coelementary",
        arrow_ok,
        "covering relations do not match co-elementary complements",
    )

    factor_ok = True
    coel = tuple(sorted(coelementary_set, key=Path.sort_key))  # bf_factorizations' order
    for p in pset.paths:
        facs = tuple(_factorizations(p, coel))
        dec, i, span = an.locate(p)
        greedy = tuple([dec.factor(t) for t in range(i, i + span)])
        if len(facs) != 1 or facs[0] != greedy:
            factor_ok = False
    check(
        "unique-coelementary-factorization",
        factor_ok,
        "exhaustive cut search disagrees with the greedy factorization",
    )
    # Every brute-force table below is built once and read by each row
    # that needs it; the co-elementary paths are perfect paths.
    overlaps = bf_overlap_table(alg, pset.paths)
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
        # a non-trivial q right-divides u iff u's arrows end with q's
        qw, bound = q.arrows, p.length + q.length
        for u in alg.divisor_index.starts[p.source, p.arrows]:
            w = u.arrows
            if len(w) < bound and w[-len(qw) :] == qw and u not in pset.successor:
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
    # ``analyze`` prints the (co-)elementary paths of the bracket grid; the
    # Hasse quivers give the same tuples by another route.
    grid_diff = ""
    for name, grid, hasse in (
        ("elementary", an.elementary, elementary),
        ("co-elementary", an.coelementary, coelementary),
    ):
        if not grid_diff and grid != tuple(hasse):
            only_grid = sorted(map(str, set(grid) - set(hasse)))[:3]
            only_hasse = sorted(map(str, set(hasse) - set(grid)))[:3]
            grid_diff = f"{name}: grid only {only_grid}, Hasse only {only_hasse}"
    check("grid-elementary-matches-hasse", not grid_diff, grid_diff)

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
    # bf_hom: (p, q) -> the brute-force graded pieces {shift: witnesses},
    # keyed p first, so its items walk the pairs in p-major order
    bf_hom = bf_stable_hom_table(alg, pset.paths)
    sources = {p: StableObject(p, 0) for p in pset.paths}
    targets = {  # every shift the closed form is asked about, built once per q
        q: [StableObject(q, k) for k in range(-2, q.length + 2)] for q in pset.paths
    }
    graded = ""  # names the first graded piece the closed form gets wrong
    shift_sum = ""  # names the first pair whose Hom is not its shift sum
    ungraded = {}
    for (p, q), by_shift in bf_hom.items():
        source = sources[p]
        for target in targets[q]:
            h = graded_stable_hom(an, source, target)
            # a piece that is zero on both sides cannot disagree
            if graded or not (h.dimension or target.shift in by_shift):
                continue
            bf_wit = by_shift.get(target.shift, ())
            if h.dimension != len(bf_wit) or len(bf_wit) > 1 or (
                bf_wit and h.witness != bf_wit[0]
            ):
                graded = (
                    f"Hom({p}, {target}) has dimension {h.dimension} "
                    f"(witness {h.witness}), the basis quotient gives "
                    f"{[str(u) for u in bf_wit]}"
                )
        total = sum(map(len, by_shift.values()))
        ungraded[p, q] = dim = ungraded_stable_hom(an, p, q).dimension
        if not shift_sum and dim != total:
            shift_sum = f"Hom({p}, {q}) has dimension {dim}, its shifts sum to {total}"
    check("graded-hom-closed-form-vs-oracle", not graded, graded)
    check("ungraded-hom-shift-sum", not shift_sum, shift_sum)

    # An overlap of p with q is a non-zero Hom(q, p); an endomorphism ring
    # of dimension > 1 is a self-overlap.
    criterion = ""  # names the first pair whose overlap and Hom disagree
    for (p, q), ov in overlaps.items():
        if (ungraded[q, p] > (1 if p == q else 0)) != (ov is not None):
            criterion = (
                f"{p} and {q} {'overlap' if ov is not None else 'do not overlap'}, "
                f"Hom({q}, {p}) has dimension {ungraded[q, p]}"
            )
            break
    check("overlap-hom-criterion", not criterion, criterion)

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
    # Serre duality: Hom(X, Sigma tau X) is one-dimensional, and the
    # basis quotient places it at the shift the translate's drop names.
    serre = ""  # names the first object whose Serre piece is off
    for p in pset.paths:
        s = suspend(an, ar_translate(an, StableObject(p, 0)), 1)
        found = len(bf_hom[p, s.path].get(s.shift, ()))
        if found != 1:
            serre = (
                f"Hom({p}, Sigma tau {p} = {s}) has {found} witnesses "
                f"at shift {s.shift}"
            )
            break
    check("ar-serre-duality", not serre, serre)
    check(
        "tau-periodicity",
        all(tau_periodicity_check(an, dec) for dec in an.decompositions),
        "tau^{|c|} is not the shift (-l(c))",
    )

    tilt_ok = True
    by_class = {}
    for x in tilting_object(an):
        by_class.setdefault(an.locate(x.path)[0], []).append(x)
    for dec, summands in by_class.items():
        window = dec.m + 1
        powers = [i for i in range(-window, window + 1) if i]
        shifted = [suspend(an, y, i) for y in summands for i in powers]
        shifts = {}  # each summand path -> the shifts it carries in T
        for x in summands:
            shifts.setdefault(x.path, []).append(x.shift)
        # Hom(x, z) != 0 iff z.shift = s + k for a non-empty piece at s of
        # bf_hom[x path, z path] and a shift k of x: one set per target path
        reach = {}
        for t in {z.path for z in shifted}:
            reach[t] = hit = set()
            for x, ks in shifts.items():
                for s, piece in bf_hom[x, t].items():
                    if piece:
                        hit.update(s + k for k in ks)
        if any(z.shift in reach[z.path] for z in shifted):
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
