"""Literal references for the relation-driven perfect pairs and Hasse covers.

The annihilators here scan every non-zero path, the successor map tries
every non-zero path, the covering relations come from a transitive
reduction, and the cycle classes are grouped on ``Path`` products: O(B²),
O(P³) and path-level readings of the definitions, kept only to pin the fast
versions down on a shared family of algebras.  The split reference below is
the relation-cut index the trie replaced: it slices and looks up every
suffix of every relation prefix, O(|F|·L³).  The word-set automaton is
the relation automaton's builder before the trie was built by insertion:
it keeps a set of every relation prefix and one arrow word per state,
Θ(Σ|r|²) tuple elements.  The chain-walk cut test is the unique-cut test
before the bad intervals: it walks the failure chain of every candidate
prefix in step with the chain of its relation, O(|r|·L) per relation.  The
word-keyed enumeration is the successor map before it ran on automaton
states: it slices each perfect prefix and its successor as arrow words,
keys the map and the cycle walk by them and sorts them twice by
``(length, word)``.  The word-keyed classes and decomposition are those
stages before they read the positions the enumeration keeps: they take
the least rotation of every successor cycle's product, group each class's
rows by the concatenated words ``p.arrows + q.arrows``, check each window
by concatenating words and sort by ``Path.sort_key``.  The brute-force Hom,
perfectness and module scans walk the whole basis for every pair, as the
oracle did before it read the algebra's divisor index.  The subpath-closure
scan tests every window of every basis path, and the overlap scan builds a
``Path`` for every candidate middle, as the oracle did before it took one
step at a time and compared words.  The battery rows below judge on
``Path``s, once per path or per pair, as the battery did before it read
per-algebra indexes: the basis rows slice and extend ``Path``s, the
Hasse-arrow row tests every pair of perfect paths for left division, the
factorization row sorts the co-elementary paths once per perfect path, the
overlap rows build a ``Path`` per candidate overlap and test right
division, and the tilting row reads each brute-force Hom row at every
summand shift.  They call the library through the ``oracle`` module, so a
mutant patched there reaches them too, except for the overlap table: they
read ``path_overlap_table``, so a fault in the oracle's table shows as a
disagreement.  The shared families of algebras, a
copy of the random draw with longer relations, and a planted document with
three classes of different m, live here too.
"""

import importlib.util
import itertools
import random
import sys
from collections.abc import Iterable
from functools import lru_cache, reduce
from pathlib import Path as FilePath

from gpstable import fixtures
from gpstable.algebra import (
    Arrow,
    InternalConsistencyError,
    MonomialAlgebra,
    NonAdmissibleError,
    Path,
    Quiver,
    RelationAutomaton,
    parse_algebra,
)
from gpstable import oracle
from gpstable.oracle import RANDOM_MAX_ATTEMPTS, random_algebra
from gpstable.perfect import (
    Overlap,
    PerfectPathSet,
    UnderlyingCycleClass,
    _least_rotation,
    _root_length,
    _unique_cuts,
    _word_key,
    _word_path,
)
from gpstable.orders import PREC, CycleDecomposition

ROOT = FilePath(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def scan_right_annihilators(alg, p):
    killers = {
        q
        for q in alg.nontrivial_basis
        if q.source == p.target and alg.concat_zero(p, q)
    }
    minimal = [
        q
        for q in killers
        if not any(q.prefix(k) in killers for k in range(1, q.length))
    ]
    return tuple(sorted(minimal, key=Path.sort_key))


def scan_left_annihilators(alg, p):
    killers = {
        q
        for q in alg.nontrivial_basis
        if q.target == p.source and alg.concat_zero(q, p)
    }
    minimal = [
        q
        for q in killers
        if not any(q.suffix(k) in killers for k in range(1, q.length))
    ]
    return tuple(sorted(minimal, key=Path.sort_key))


def scan_successor_map(alg):
    sigma = {}
    for p in alg.nontrivial_basis:
        right = scan_right_annihilators(alg, p)
        if len(right) == 1 and scan_left_annihilators(alg, right[0]) == (p,):
            sigma[p] = right[0]
    return sigma


def scan_stable_hom(alg, p, q):
    by_shift = {}
    for u in alg.basis_sorted:
        k = u.length - p.length
        if 0 <= k < q.length and q.left_divides(u) and p.right_divides(u):
            by_shift.setdefault(k, []).append(u)
    return (
        sum(len(v) for v in by_shift.values()),
        {k: tuple(v) for k, v in by_shift.items()},
    )


def scan_ordinary_hom(alg, p, q):
    hits = [u for u in alg.basis if q.left_divides(u) and p.right_divides(u)]
    return len(hits), tuple(sorted(hits, key=Path.sort_key))


def scan_verify_perfect(alg, p, q):
    if p.is_trivial or q.is_trivial:
        return False
    if alg.is_zero(p) or alg.is_zero(q):
        return False
    if p.target != q.source or not alg.concat_zero(p, q):
        return False
    for u in alg.nontrivial_basis:
        if u.source == p.target and alg.concat_zero(p, u):
            if not q.left_divides(u):
                return False
        if u.target == q.source and alg.concat_zero(u, q):
            if not p.right_divides(u):
                return False
    return True


def scan_module_dim(alg, r):
    if alg.is_zero(r):
        return 0
    return sum(1 for u in alg.basis if r.left_divides(u))


def scan_subpath_closed(alg):
    return all(
        p.window(i, j) in alg.basis
        for p in alg.basis
        for i in range(p.length + 1)
        for j in range(i, p.length + 1)
    )


def scan_overlap(alg, p, q):
    same = p == q
    max_x = min(p.length, q.length)
    if same:
        max_x = p.length - 1
    for xlen in range(1, max_x + 1):
        x = p.suffix(xlen)
        if x != q.prefix(xlen):
            continue
        left = p.prefix(p.length - xlen)
        right = q.suffix(q.length - xlen)
        if same and (left.is_trivial or right.is_trivial):
            continue
        if not alg.is_zero(left * q):
            return Overlap("O1" if same else "O2", left, x, right)
    return None


def path_overlap_table(alg, paths):
    """``detect_overlap`` for every pair of the non-trivial ``paths``, from
    one prefix index, with a ``Path`` product per candidate."""
    paths = tuple(paths)
    prefixes = {}  # arrow word -> the paths that begin with it
    for q in paths:
        for j in range(1, q.length + 1):
            prefixes.setdefault(q.arrows[:j], []).append(q)
    table = {}
    for p in paths:
        lp, found = p.length, {}
        for xlen in range(1, lp + 1):
            left = None
            for q in prefixes.get(p.arrows[lp - xlen :], ()):
                same = q == p
                if q in found or (same and xlen == lp):
                    continue
                if left is None:
                    left = p.prefix(lp - xlen)
                if not alg.is_zero(left * q):
                    found[q] = Overlap(
                        "O1" if same else "O2",
                        left,
                        q.prefix(xlen),
                        q.suffix(q.length - xlen),
                    )
        for q in paths:
            table[p, q] = found.get(q)
    return table


def path_basis_rows(alg):
    """(basis-subpath-closed, basis-one-step-complete) on ``Path``s."""
    basis = alg.basis
    closed = all(
        u.prefix(u.length - 1) in basis and u.suffix(u.length - 1) in basis
        for u in alg.nontrivial_basis
    )
    complete = True
    for p in alg.basis:
        for arrow in alg.quiver.arrows_from[p.target]:
            ext = p * alg.quiver.arrow_path(arrow.id)
            if (ext in alg.basis) == alg.is_zero(ext):
                complete = False
    return closed, complete


def divides_hasse_arrow_row(an, coelementary):
    """hasse-arrow-complement-coelementary by left division on every pair."""
    pset = an.perfect
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
    return arrow_ok


def per_path_factorization_row(an, coelementary):
    """unique-coelementary-factorization, sorting the co-elementary paths
    once per perfect path in ``bf_factorizations``."""
    factor_ok = True
    for p in an.perfect.paths:
        facs = oracle.bf_factorizations(p, coelementary)
        dec, i, span = an.locate(p)
        greedy = tuple([dec.factor(t) for t in range(i, i + span)])
        if len(facs) != 1 or facs[0] != greedy:
            factor_ok = False
    return factor_ok


def right_divides_overlap_rows(alg, an, overlaps):
    """(overlap-implies-same-class, overlap-intersection-paths-perfect) by
    ``right_divides`` on every path over each overlapping pair."""
    pset = an.perfect
    cross = ""
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
    return not cross, intersection_perfect_ok


def per_shift_tilting_row(an, bf_hom):
    """tilting-orthogonality reading each brute-force Hom row at every
    summand shift, per (summand path, Sigma^i y)."""
    tilt_ok = True
    by_class = {}
    for x in oracle.tilting_object(an):
        by_class.setdefault(an.locate(x.path)[0], []).append(x)
    for dec, summands in by_class.items():
        window = dec.m + 1
        powers = [i for i in range(-window, window + 1) if i]
        shifted = [oracle.suspend(an, y, i) for y in summands for i in powers]
        shifts = {}  # each summand path -> the shifts it carries in T
        for x in summands:
            shifts.setdefault(x.path, []).append(x.shift)
        for z in shifted:
            for path, ks in shifts.items():
                hom = bf_hom[path, z.path]
                if any(hom.get(z.shift - k) for k in ks):
                    tilt_ok = False
    return tilt_ok


def reference_rows(alg):
    """The verdicts of the battery rows above, by their reference forms,
    on the pipeline stages and brute-force Hom table the battery reads and
    on ``path_overlap_table``, the overlap table's reference form."""
    an = oracle.Analysis(alg)
    _, coelementary = oracle.classify_elementary(an.hasse_prec, an.hasse_leq)
    paths = an.perfect.paths
    overlaps = path_overlap_table(alg, paths)
    closed, complete = path_basis_rows(alg)
    same_class, intersection = right_divides_overlap_rows(alg, an, overlaps)
    return {
        "basis-subpath-closed": closed,
        "basis-one-step-complete": complete,
        "hasse-arrow-complement-coelementary": divides_hasse_arrow_row(an, coelementary),
        "unique-coelementary-factorization": per_path_factorization_row(an, coelementary),
        "no-overlap-between-coelementary": all(
            overlaps[r, s] is None for r in coelementary for s in coelementary
        ),
        "overlap-implies-same-class": same_class,
        "overlap-intersection-paths-perfect": intersection,
        "tilting-orthogonality": per_shift_tilting_row(
            an, oracle.bf_stable_hom_table(alg, paths)
        ),
    }


def relation_splits(alg):
    """Every proper cut ``r = r[:cut] * r[cut:]`` of every minimal relation,
    as arrow words: ``r[:cut] -> [r[cut:], ...]`` and ``r[cut:] -> [r[:cut],
    ...]``, in relation order."""
    by_prefix, by_suffix = {}, {}
    for r in alg.relations:
        for cut in range(1, r.length):
            head, tail = r.arrows[:cut], r.arrows[cut:]
            by_prefix.setdefault(head, []).append(tail)
            by_suffix.setdefault(tail, []).append(head)
    return by_prefix, by_suffix


def split_killers(splits, word, right):
    """The arrows of R(p) (``right``) or L(p) of the non-zero path with
    arrows ``word``, sorted: the prefix-minimal ``r[cut:]`` over the cuts
    whose ``r[:cut]`` is a non-empty suffix of ``word``, or the
    suffix-minimal ``r[:cut]`` whose ``r[cut:]`` is a non-empty prefix."""
    by_prefix, by_suffix = splits
    ends = range(1, len(word) + 1)
    if right:
        found = {q for k in ends for q in by_prefix.get(word[-k:], ())}
    else:
        found = {q for k in ends for q in by_suffix.get(word[:k], ())}
    minimal = []
    for q in sorted(found, key=len):
        if all((q[: len(m)] if right else q[-len(m) :]) != m for m in minimal):
            minimal.append(q)
    return sorted(minimal, key=lambda w: (len(w), w))


def split_successor_map(alg):
    """p -> q on arrow words: every relation prefix p with R(p) = {q} and
    L(q) = {p}."""
    splits = relation_splits(alg)
    sigma = {}
    for p in splits[0]:
        right = split_killers(splits, p, True)
        if len(right) == 1 and split_killers(splits, right[0], False) == [p]:
            sigma[p] = right[0]
    return sigma


def chain_walk_unique_cuts(auto: RelationAutomaton) -> list[set[int]]:
    """For each relation r of ``auto``, the cuts k with R(r[:k]) = {r[k:]}.

    The prefixes with a single completion are the longest ones of r.  For
    each, a pointer ``t`` walks down the failure chain of r in step with the
    chain of r[:k]: each state ``s`` there needs the state ``s·r[k:]`` at
    depth |s| + |r| - k on r's chain, with as many leaves as ``s``.
    """
    fail, depth, leaves = auto.fail, auto.depth, auto.leaves
    out = []
    for path, top in zip(auto.paths, auto.tops):
        n = len(path)
        cuts = set()
        for k in range(n - 1, 0, -1):
            if leaves[path[k]] != 1:
                break
            s, t = fail[path[k]], top
            while depth[s]:
                while depth[t] > depth[s] + n - k:
                    t = fail[t]
                if depth[t] < depth[s] + n - k or leaves[t] != leaves[s]:
                    break
                s = fail[s]
            else:
                cuts.add(k)
        out.append(cuts)
    return out


def word_perfect_cuts(alg: MonomialAlgebra):
    """Every perfect pair as ``(r, k)``: the relation r = p·q and the cut
    k = |p|, where R(p) = {q} and L(q) = {p}, the same test on the
    reversed relation in the opposite automaton."""
    op = alg.opposite_automaton
    left = {w[::-1]: cuts for w, cuts in zip(op.relations, _unique_cuts(op))}
    # the relation paths in the automaton's order, sorted by arrows
    relations = sorted(alg.relations, key=lambda r: r.arrows)
    for r, cuts in zip(relations, _unique_cuts(alg.automaton)):
        for k in cuts & {r.length - j for j in left[r.arrows]}:
            yield r, k


def word_cycles_of_partial_injection(sigma: dict[tuple, tuple]) -> list[list[tuple]]:
    """Cycles of an injective partial self-map, each from its smallest member.

    A point is periodic exactly when the walk from it returns to it, and by
    injectivity a walk that starts off every cycle never meets one; so one
    walk per unseen start, in sorted order, reaches every cycle first at its
    smallest member.
    """
    cycles = []
    seen: set[tuple] = set()
    for start in sorted(sigma, key=_word_key):
        walk = []
        cur = start
        while cur in sigma and cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = sigma[cur]
        if walk and cur == start:
            cycles.append(walk)
    return cycles


def word_perfect_paths(alg: MonomialAlgebra) -> PerfectPathSet:
    """Perfect paths as the periodic points of the successor map.

    The minimal perfect path sequences are returned rotated to start at
    their smallest member and sorted by that member; the algebra is CM-free
    exactly when the result is empty.
    """
    sigma, relation = {}, {}
    for r, k in word_perfect_cuts(alg):
        w = r.arrows[:k]
        sigma[w] = r.arrows[k:]
        relation[w] = r
    cycles = word_cycles_of_partial_injection(sigma)
    words = sorted((w for c in cycles for w in c), key=_word_key)
    # one object per perfect path, shared by every structure built from
    # them, sliced from the relation w·σ(w)
    path = {w: Path(w, relation[w].vertices[: len(w) + 1]) for w in words}
    if len(path) != len(words):
        raise InternalConsistencyError("successor cycles are not disjoint")
    return PerfectPathSet(
        paths=tuple([path[w] for w in words]),
        sequences=tuple([tuple([path[w] for w in c]) for c in cycles]),
        successor={path[w]: path[sigma[w]] for w in words},
        cm_free=not words,
    )


def word_cycle_classes(alg: MonomialAlgebra, pset: PerfectPathSet):
    """Group the successor cycles by the least rotation of the primitive root
    of their product, taken on arrow words once per cycle; members sorted by
    ``Path.sort_key``."""
    grouped: dict[tuple[str, ...], list[Path]] = {}
    for seq in pset.sequences:
        word = tuple([a for p in seq for a in p.arrows])
        root = word[: _root_length(word)]
        s = _least_rotation(root)
        # the successor cycles are disjoint
        grouped.setdefault(root[s:] + root[:s], []).extend(seq)
    return tuple([
        UnderlyingCycleClass(
            cycle=_word_path(alg, canon),
            members=tuple(sorted(members, key=Path.sort_key)),
        )
        for canon, members in sorted(grouped.items(), key=lambda kv: _word_key(kv[0]))
    ])


def word_decompose_cycle(
    alg: MonomialAlgebra, cls: UnderlyingCycleClass, successor: dict[Path, Path]
) -> CycleDecomposition:
    """The bracket grid of one class, with the rows grouped by the product
    ``p.arrows + successor(p).arrows``, each check a concatenation of arrow
    words, the closing relation looked up in ``relation_words`` and the
    (co-)elementary paths sorted by ``Path.sort_key``."""
    by_relation: dict[tuple[str, ...], list[Path]] = {}
    for p in cls.members:
        q = successor.get(p)
        if q is None:
            raise InternalConsistencyError(
                f"perfect path {p} of class {cls.cycle} has no successor"
            )
        by_relation.setdefault(p.arrows + q.arrows, []).append(p)
    rows = [tuple(sorted(row, key=Path.sort_key)) for row in by_relation.values()]
    n, m = len(rows), len(rows[0])
    if any(len(row) != m for row in rows):
        raise InternalConsistencyError(
            f"the rows of class {cls.cycle} (a row: the members that cut one "
            f"relation) differ in length"
        )

    row_by_top = {row[-1]: row for row in rows}
    ring = [rows[0]]
    for _ in range(n):
        nxt = row_by_top.get(successor.get(ring[-1][0]))
        if nxt is None:
            raise InternalConsistencyError(
                f"the successor of {ring[-1][0]} tops no row of class "
                f"{cls.cycle} (a row: the members that cut one relation)"
            )
        if nxt is rows[0]:
            break
        ring.append(nxt)
    if len(ring) != n:
        raise InternalConsistencyError(
            f"the co-elementary factors of class {cls.cycle} form no single cycle"
        )
    word = tuple([a for row in ring for a in row[0].arrows])
    cuts = (0, *itertools.accumulate(row[0].length for row in ring[:-1]))
    doubled = word + word
    t = min(range(n), key=lambda k: doubled[cuts[k] : cuts[k] + len(word)])
    windows = tuple(ring[t:] + ring[:t])
    factors = tuple([row[0] for row in windows])
    anchored = alg.quiver.path(word[cuts[t] :] + word[: cuts[t]])

    for i, row in enumerate(windows):
        for s in range(1, m):
            r = factors[(i + s) % n]
            if row[s].arrows != row[s - 1].arrows + r.arrows:
                raise InternalConsistencyError(
                    f"bracket window [{i + 1},{i + s + 1}] = {row[s]} is not "
                    f"{row[s - 1]} times {r}"
                )
        r = factors[(i + m) % n]
        if row[-1].arrows + r.arrows not in alg.relation_words:
            raise InternalConsistencyError(
                f"window [{i + 1},{i + 1 + m}] = "
                f"{'.'.join(row[-1].arrows + r.arrows)} is not a minimal relation"
            )

    elementary = tuple(sorted((row[-1] for row in windows), key=Path.sort_key))
    if {successor.get(x) for x in elementary} != set(factors):
        raise InternalConsistencyError(
            f"elementary/co-elementary bijection failed for {anchored}"
        )

    return CycleDecomposition(
        cycle_class=cls,
        anchored_cycle=anchored,
        factors=factors,
        size=n,
        arrow_length=anchored.length,
        m=m,
        chain=windows[0],
        elementary=elementary,
        coelementary=tuple(sorted(factors, key=Path.sort_key)),
        windows=windows,
        prefix_lengths=tuple([*itertools.accumulate([0] + [r.length for r in factors])]),
    )


def word_set_automaton(quiver: Quiver, relations: Iterable[Path]) -> RelationAutomaton:
    """Build the :class:`RelationAutomaton` of a minimal relation set.

    States are built breadth first with failure links: the failure of a
    state is its longest proper suffix that is a state.  A move is dead when
    it completes a relation, or when the failure state's move on the same
    arrow is dead; otherwise it extends the prefix, or falls back to the
    failure state's move.  Each relation is then read along its states.
    """
    source = {r.arrows: r.source for r in relations}
    prefixes = {w[:k] for w in source for k in range(1, len(w))}
    start = {v: k for k, v in enumerate(quiver.vertices)}
    vertex = list(quiver.vertices)
    word: list[tuple[str, ...]] = [()] * len(vertex)
    fail: list[int | None] = [None] * len(vertex)
    moves: list[dict[str, int]] = []
    tops: dict[tuple[str, ...], int] = {}
    for s, v in enumerate(vertex):  # grows while it runs: breadth first
        out = {}
        for a in quiver.arrows_from[v]:
            w = word[s] + (a.id,)
            back = start[a.target] if fail[s] is None else moves[fail[s]].get(a.id)
            if w in source:
                tops[w] = back
            if w in source or back is None:
                continue
            if w in prefixes:
                out[a.id] = len(vertex)
                vertex.append(a.target)
                word.append(w)
                fail.append(back)
            else:
                out[a.id] = back
        moves.append(out)
    words = sorted(source)
    leaves = [0] * len(vertex)
    paths = []
    for w in words:
        path = [start[source[w]]]
        for a in w[:-1]:
            path.append(moves[path[-1]][a])
        for s in path:
            leaves[s] += 1
        paths.append(tuple(path))
    return RelationAutomaton(
        start, tuple(vertex), tuple(moves), tuple(fail), tuple(map(len, word)),
        tuple(leaves), tuple(words), tuple(paths), tuple(tops[w] for w in words),
    )


def word_set_opposite_automaton(alg):
    """``word_set_automaton`` on the reversed arrows that relations use and
    the reversed relations."""
    used = {a for r in alg.relations for a in r.arrows}
    arrows = tuple(
        Arrow(a.id, a.target, a.source) for a in alg.quiver.arrows if a.id in used
    )
    reverse = [Path(r.arrows[::-1], r.vertices[::-1]) for r in alg.relations]
    return word_set_automaton(Quiver(alg.quiver.vertices, arrows), reverse)


def reduction_hasse_arrows(paths, order):
    """Covering pairs (greater, covered) by transitive reduction, sorted."""
    verts = set(paths)

    def below(p, q):
        return p.left_divides(q) if order == PREC else q.right_divides(p)

    strict = {(p, q) for p in verts for q in verts if p != q and below(p, q)}
    arrows = [
        (q, p)
        for p, q in strict
        if not any((p, r) in strict and (r, q) in strict for r in verts)
    ]
    return tuple(sorted(arrows, key=lambda e: (e[0].sort_key(), e[1].sort_key())))


def rotation(cycle, s):
    """The cycle read from arrow position ``s`` on, as a ``Path`` product."""
    return cycle if s == 0 else cycle.window(s, cycle.length) * cycle.window(0, s)


def path_cycle_classes(pset):
    """(cycle, members) per class: each successor cycle's product, its
    primitive root and least rotation taken on ``Path``s."""
    grouped = {}
    for seq in pset.sequences:
        product = reduce(lambda a, b: a * b, seq)
        n = product.length
        root = next(
            product.prefix(d)
            for d in range(1, n + 1)
            if n % d == 0 and product.prefix(d).arrows * (n // d) == product.arrows
        )
        canon = min(
            (rotation(root, s) for s in range(root.length)), key=Path.sort_key
        )
        grouped.setdefault(canon, set()).update(seq)
    return tuple(
        (canon, tuple(sorted(members, key=Path.sort_key)))
        for canon, members in sorted(grouped.items(), key=lambda kv: kv[0].sort_key())
    )


def planted_multi_class_document():
    """Nakayama cycles N(3, 2), N(2, 3) and N(1, 4) joined by bridge arrows
    that lie on no relation: three classes with different m."""
    arrows, relations = [], []
    for name, n, m in (("c", 3, 2), ("d", 2, 3), ("e", 1, 4)):
        arrows += [
            {"id": f"{name}{j}", "from": f"{name}{j}", "to": f"{name}{(j + 1) % n}"}
            for j in range(n)
        ]
        relations += [[f"{name}{(j + t) % n}" for t in range(m + 1)] for j in range(n)]
    arrows += [
        {"id": "b0", "from": "c1", "to": "d0"},
        {"id": "b1", "from": "e0", "to": "d1"},
    ]
    vertices = sorted({a["from"] for a in arrows} | {a["to"] for a in arrows})
    return {"vertices": vertices, "arrows": arrows, "relations": relations}


@lru_cache(maxsize=None)
def equivalence_algebras():
    """Every fixture document, loops x^{m+1} = 0 for m <= 4, N(n, m) for
    n, m <= 6 and 300 draws of ``random_algebra(random.Random(4))`` with
    up to 5 vertices, 8 arrows and 6 relations."""
    algs = [parse_algebra(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))]
    algs += [fixtures.loop(m) for m in range(1, 5)]
    algs += [fixtures.nakayama(n, m) for n in range(1, 7) for m in range(1, 7)]
    rng = random.Random(4)
    algs += [
        random_algebra(rng, max_vertices=5, max_arrows=8, max_relations=6)
        for _ in range(300)
    ]
    return tuple(algs)


def draw_algebra(rng, max_vertices, max_arrows, max_relations, max_length):
    """``random_algebra`` with relations of up to ``max_length`` arrows;
    a copy, so that the seeded draws behind the ``--random`` goldens stay
    as they are."""
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
            length = rng.randint(2, max_length)
            walk = [rng.choice(arrows)]
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


@lru_cache(maxsize=None)
def long_relation_algebras():
    """2000 draws of up to 5 vertices, 8 arrows and 6 relations of up to 9
    arrows, where the failure chains of the cut test run deeper than in
    ``random_algebra``'s draws."""
    rng = random.Random(9)
    return tuple(draw_algebra(rng, 5, 8, 6, 9) for _ in range(2000))


def _perfbench_module(name):
    """Load ``perfbench/<name>.py`` read-only; ``workloads`` imports
    ``inputs`` by its bare name, so the module is registered under it."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


@lru_cache(maxsize=None)
def trie_algebras():
    """``equivalence_algebras()`` plus N(7, m) and N(n, 7) for n, m <= 7,
    2000 draws of ``random_algebra(random.Random(7))`` at its default sizes
    and one seeded draw of every planted shape of the benchmark workloads,
    plus its reference algebra."""
    inputs = _perfbench_module("inputs")
    workloads = _perfbench_module("workloads")
    rng = random.Random(12)
    shapes = workloads.CLASSIFY_SHAPES + workloads.ORACLE_SHAPES
    docs = [inputs.planted_document(rng, s)[0] for s in (*shapes, workloads.STABLE_SHAPE)]
    docs += [inputs.wide_tail_document(rng, *s)[0] for s in workloads.WIDE_TAIL_SHAPES]
    docs.append(inputs.lambda_star_document()[0])
    algs = list(equivalence_algebras()) + [parse_algebra(doc) for doc in docs]
    algs += [fixtures.nakayama(7, m) for m in range(1, 8)]
    algs += [fixtures.nakayama(n, 7) for n in range(1, 7)]
    rng = random.Random(7)
    algs += [random_algebra(rng) for _ in range(2000)]
    return tuple(algs)
