"""Divisibility orders on perfect paths and the cycle decomposition.

Two partial orders live on the set of perfect paths: ``p`` is below ``q``
in the prefix order when ``p`` is a left divisor of ``q``, and below ``q``
in the suffix order when ``q`` is a right divisor of ``p``.  Both Hasse
quivers decompose into linear A-type chains; their sources and sinks are
the elementary and co-elementary paths, every perfect path factors
uniquely into co-elementary ones, and each underlying cycle carries the
invariants (number of factors, arrow length, chain length m) that drive
all stable-category formulas.  The decomposition reads them off the
relations the perfect pairs cut, with the elementary paths atop its rows;
the Hasse quivers are an output view and the oracle's route to both sets.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple

from .algebra import InternalConsistencyError, InputError, MonomialAlgebra, Path
from .perfect import UnderlyingCycleClass, _Located

PREC = "prec"  # p below q iff p is a left divisor of q
LEQ = "leq"  # p below q iff q is a right divisor of p


class HasseQuiver(NamedTuple):
    """Covering relations of one of the two orders.

    Arrows run from the greater element to the one it covers, so every
    component is a chain read from its maximal element down to its minimal
    one.  In- and out-degrees are at most one on every input; a violation
    would falsify the implementation and raises.
    """

    order: str
    vertices: tuple[Path, ...]
    arrows: tuple[tuple[Path, Path], ...]
    components: tuple[tuple[Path, ...], ...]

    def sources(self) -> tuple[Path, ...]:
        targets = {b for _, b in self.arrows}
        return tuple([v for v in self.vertices if v not in targets])

    def sinks(self) -> tuple[Path, ...]:
        tails = {a for a, _ in self.arrows}
        return tuple([v for v in self.vertices if v not in tails])


def hasse_quiver(perfect_paths: Iterable[Path], order: str) -> HasseQuiver:
    """Covering relations of ``order`` on the given paths.

    Whatever lies below ``q`` in the prefix order, or above ``p`` in the
    suffix order, is a proper prefix (suffix) of it, and those form a chain;
    so each vertex is joined to its cover, its longest proper prefix
    (suffix) among the vertices, the trivial path included.  That is O(P·L)
    instead of a transitive reduction.  Each vertex has at most one cover,
    so the quiver is a union of chains exactly when no two share one.
    """
    if order not in (PREC, LEQ):
        raise InputError(f"unknown order {order!r}; use {PREC!r} or {LEQ!r}")
    prec = order == PREC
    verts = tuple(sorted(set(perfect_paths), key=Path.sort_key))
    # keyed by the end shared with every prefix (suffix), so trivial paths
    # are found; the values are the caller's objects, so the chains hold them
    present = {(v.source if prec else v.target, v.arrows): v for v in verts}
    cover: dict[Path, Path] = {}
    covered: dict[Path, Path] = {}  # the inverse of ``cover``
    for v in verts:
        end, w, n = v.source if prec else v.target, v.arrows, v.length
        for k in range(n - 1, -1, -1):
            c = present.get((end, w[:k] if prec else w[n - k :]))
            if c is not None:
                if covered.setdefault(c, v) is not v:
                    raise InternalConsistencyError(
                        f"Hasse quiver of order {order!r} is not a union of "
                        f"chains at {c}"
                    )
                cover[v] = c
                break
    # arrows run down: from v to its cover (prec), from a cover to v (leq)
    down, up = (cover, covered) if prec else (covered, cover)
    components = []
    for v in verts:
        if v not in up:
            chain = [v]
            while chain[-1] in down:
                chain.append(down[chain[-1]])
            components.append(tuple(chain))
    return HasseQuiver(
        order=order,
        vertices=verts,
        arrows=tuple([(v, down[v]) for v in verts if v in down]),
        components=tuple(components),
    )


def classify_elementary(
    h_prec: HasseQuiver, h_leq: HasseQuiver
) -> tuple[tuple[Path, ...], tuple[Path, ...]]:
    """(elementary, co-elementary) = (sources, sinks) of the prefix-order
    Hasse quiver, cross-checked against the suffix-order duality."""
    elementary = h_prec.sources()
    coelementary = h_prec.sinks()
    if set(elementary) != set(h_leq.sinks()) or set(coelementary) != set(
        h_leq.sources()
    ):
        raise InternalConsistencyError(
            "source/sink duality between the two Hasse quivers failed"
        )
    return elementary, coelementary


class CycleDecomposition:
    """An underlying cycle rotated to a co-elementary boundary.

    ``factors`` are the co-elementary paths r_1..r_n with the anchored
    cycle equal to their concatenation; ``size`` is n, ``m`` the number of
    perfect paths with r_1 as left divisor.  ``windows[i-1][span-1]`` is the
    class member (the object itself) that realizes r_i .. r_{i+span-1}, for
    1 <= i <= n, 1 <= span <= m: row i is the set of perfect cuts of the
    relation r_i .. r_{i+m}, sorted by length (the prefix-order Hasse chain
    above r_i, read bottom-up); each row is a ``perfect._Located`` tuple,
    which keeps the positions of its paths for the AR quiver's vertex
    order.  ``elementary`` holds the row tops and ``coelementary`` the
    factors, each sorted by ``Path.sort_key``.

    Unlike the other records it is a ``__slots__`` class, not a named tuple:
    every closed-form query reads its fields, and a slot is read faster
    than a named-tuple field.  :func:`decompose_cycle` builds one per class
    and nothing changes it afterwards; it compares by identity.
    """

    __slots__ = (
        "cycle_class", "anchored_cycle", "factors", "size", "arrow_length", "m",
        "chain", "elementary", "coelementary", "windows", "prefix_lengths",
    )

    cycle_class: UnderlyingCycleClass
    anchored_cycle: Path
    factors: tuple[Path, ...]
    size: int
    arrow_length: int
    m: int
    chain: tuple[Path, ...]
    elementary: tuple[Path, ...]
    coelementary: tuple[Path, ...]
    windows: tuple[tuple[Path, ...], ...]
    # partial sums of the factor lengths: prefix_lengths[t] = l(r_1 ... r_t)
    prefix_lengths: tuple[int, ...]

    def __init__(
        self, cycle_class, anchored_cycle, factors, size, arrow_length, m,
        chain, elementary, coelementary, windows, prefix_lengths,
    ):
        self.cycle_class = cycle_class
        self.anchored_cycle = anchored_cycle
        self.factors = factors
        self.size = size
        self.arrow_length = arrow_length
        self.m = m
        self.chain = chain
        self.elementary = elementary
        self.coelementary = coelementary
        self.windows = windows
        self.prefix_lengths = prefix_lengths

    @property
    def members(self) -> tuple[Path, ...]:
        return self.cycle_class.members

    def factor(self, i: int) -> Path:
        return self.factors[(i - 1) % self.size]

    def factor_length(self, i: int) -> int:
        return self.factor(i).length

    def mesh(self, i: int, span: int):
        """The AR mesh ending at [i, span](j): ``(translate, middles)``.

        Every term is an ``(i', span', drop)`` triple naming the object
        [i', span'](j - drop), with i' in 1..|c|.  The translate is
        [i+1, span](j - l(r_i)); the middle terms are [i+1, span-1](j -
        l(r_i)) when span > 1 and [i, span+1](j) when span < m, for i in
        1..|c|.  The drop l(r_i) is read off the partial sums,
        ``prefix_lengths[i] - prefix_lengths[i-1]``.  This is the one
        statement of the AR rule: the triangles, both translates and both
        AR quiver builders read it.
        """
        lengths = self.prefix_lengths
        nxt, drop = i % self.size + 1, lengths[i] - lengths[i - 1]
        middles = ((nxt, span - 1, drop),) if span > 1 else ()
        if span < self.m:
            middles += ((i, span + 1, 0),)
        return (nxt, span, drop), middles

    def realize(self, i: int, j: int) -> Path:
        """The class member that realizes r_i r_{i+1} ... r_j, for
        ``0 <= j - i < m``; any other window is an input error."""
        if not 0 <= j - i < self.m:
            raise InputError(
                f"window [{i},{j}] spans {j - i + 1} factors; perfect windows "
                f"span 1..{self.m}"
            )
        return self.windows[(i - 1) % self.size][j - i]

    def offset(self, i: int) -> int:
        """Signed arrow length from the start of r_1 to the start of r_i."""
        full, rem = divmod(i - 1, self.size)
        return full * self.arrow_length + self.prefix_lengths[rem]

    def length_between(self, i: int, j: int) -> int:
        """Arrow length of the factor window [i, j] (0 when i > j)."""
        return self.offset(j + 1) - self.offset(i) if i <= j else 0


def decompose_cycle(
    alg: MonomialAlgebra,
    cls: UnderlyingCycleClass,
    successor: Mapping[Path, Path],
) -> CycleDecomposition:
    """Read one underlying cycle class off the relations its pairs cut.

    Every perfect pair (p, successor(p)) multiplies to a minimal relation,
    and the members that cut r_i ... r_{i+m}, sorted by length, are one row
    [i, i], [i, i+1], ..., [i, i+m-1] of the bracket grid: it starts at
    the co-elementary factor r_i and each step appends the next factor.
    The successor of r_i is [i+1, i+m], the top of the next row, which
    orders the rows cyclically.  Co-elementary paths are prefix-free, so
    the periodic arrow word factors uniquely and r_1 ... r_n is the least
    power c^d of the primitive cycle that factors; the factors may wind
    around c more than once (a3 and a1.a3.a1 on the 2-cycle a1.a3).  The
    anchor is the rotation at a factor boundary whose arrows are
    lexicographically smallest; this pins down all bracket coordinates.
    The prefix-order Hasse chains are the same rows read top-down; they
    are an output view, and the oracle checks them against this grid.

    All of it runs on the positions the class's members keep (a
    :class:`~gpstable.perfect._Located` tuple): row i is the members that
    cut relation i, in position order, which is cut order; the ring is
    walked from each row's factor to its successor's position.  Since all
    of a row cuts one relation, checking [i, i+s] = [i, i+s-1]·r is one
    slice of that relation, of r's length, and the closing relation is the
    relation's suffix after the row top.  The elementary and co-elementary
    paths are sorted by position; ``successor`` is read only to check that
    it maps the first onto the second.
    """
    members = cls.members
    relation, cut, after = members.cuts
    path = dict(zip(members.positions, members))
    rows: dict[int, list[int]] = {}  # relation index -> positions, by cut
    for x in members.positions:
        rows.setdefault(relation[x], []).append(x)
    n, m = len(rows), len(next(iter(rows.values())))
    if any(len(row) != m for row in rows.values()):
        raise InternalConsistencyError(
            f"the rows of class {cls.cycle} (a row: the members that cut one "
            f"relation) differ in length"
        )

    by_top = {row[-1]: i for i, row in rows.items()}
    ring = [next(iter(rows))]
    for _ in range(n):
        bottom = rows[ring[-1]][0]
        q = after[bottom]
        if q is None:
            raise InternalConsistencyError(
                f"perfect path {path[bottom]} of class {cls.cycle} has no successor"
            )
        nxt = by_top.get(q)
        if nxt is None:
            raise InternalConsistencyError(
                f"the successor of {path[bottom]} tops no row of class "
                f"{cls.cycle} (a row: the members that cut one relation)"
            )
        if nxt == ring[0]:
            break
        ring.append(nxt)
    if len(ring) != n:
        raise InternalConsistencyError(
            f"the co-elementary factors of class {cls.cycle} form no single cycle"
        )
    bottoms = [path[rows[i][0]] for i in ring]
    word = tuple([a for r in bottoms for a in r.arrows])
    starts = (0, *itertools.accumulate(r.length for r in bottoms[:-1]))
    doubled = word + word
    t = min(range(n), key=lambda k: doubled[starts[k] : starts[k] + len(word)])
    ring = ring[t:] + ring[:t]
    factors = tuple(bottoms[t:] + bottoms[:t])
    anchored = alg.quiver.path(word[starts[t] :] + word[: starts[t]])

    words = alg.automaton.relations
    for x, i in enumerate(ring):
        row, w = rows[i], words[i]
        for s in range(1, m):
            r = factors[(x + s) % n]
            if w[cut[row[s - 1]] : cut[row[s]]] != r.arrows:
                raise InternalConsistencyError(
                    f"bracket window [{x + 1},{x + s + 1}] = {path[row[s]]} is "
                    f"not {path[row[s - 1]]} times {r}"
                )
        r = factors[(x + m) % n]
        if w[cut[row[-1]] :] != r.arrows:
            raise InternalConsistencyError(
                f"window [{x + 1},{x + 1 + m}] = "
                f"{'.'.join(path[row[-1]].arrows + r.arrows)} is not a minimal relation"
            )

    elementary = tuple([path[x] for x in sorted([rows[i][-1] for i in ring])])
    if {successor.get(x) for x in elementary} != set(factors):
        raise InternalConsistencyError(
            f"elementary/co-elementary bijection failed for {anchored}"
        )

    windows = tuple([
        _Located([path[x] for x in rows[i]], rows[i], members.cuts) for i in ring
    ])
    return CycleDecomposition(
        cycle_class=cls,
        anchored_cycle=anchored,
        factors=factors,
        size=n,
        arrow_length=anchored.length,
        m=m,
        chain=windows[0],
        elementary=elementary,
        coelementary=tuple([path[x] for x in sorted([rows[i][0] for i in ring])]),
        windows=windows,
        prefix_lengths=tuple([*itertools.accumulate([0] + [r.length for r in factors])]),
    )


class CyclePredicates(NamedTuple):
    all_arrows_perfect: bool
    repetition_free: bool
    relation_length: int | None


def cycle_predicates(
    alg: MonomialAlgebra,
    dec: CycleDecomposition,
    perfect_paths: Iterable[Path],
) -> CyclePredicates:
    """Arrow-perfectness and repetition-freeness of one underlying cycle."""
    perfect = set(perfect_paths)
    cycle = dec.anchored_cycle
    all_arrows = dec.size == dec.arrow_length
    directly = all(
        cycle.window(t, t + 1) in perfect for t in range(cycle.length)
    )
    if directly != all_arrows:
        raise InternalConsistencyError(
            f"arrow-perfectness disagrees with |c| = l(c) on {cycle}"
        )

    found: int | None = None
    for r in sorted({len(w) for w in alg.relation_words}):
        buf = cycle.arrows * (r // cycle.length + 2)
        if all(buf[t : t + r] in alg.relation_words for t in range(cycle.length)):
            found = r
            break
    if all_arrows and found is not None and found != dec.m + 1:
        raise InternalConsistencyError(
            f"repetition-free relation length {found} != m_c + 1 on {cycle}"
        )
    return CyclePredicates(
        all_arrows_perfect=all_arrows,
        repetition_free=found is not None,
        relation_length=found,
    )
