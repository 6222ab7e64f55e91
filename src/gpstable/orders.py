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
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .algebra import InternalConsistencyError, InputError, MonomialAlgebra, Path
from .perfect import UnderlyingCycleClass

PREC = "prec"  # p below q iff p is a left divisor of q
LEQ = "leq"  # p below q iff q is a right divisor of p


@dataclass(frozen=True)
class HasseQuiver:
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
        return tuple(v for v in self.vertices if v not in targets)

    def sinks(self) -> tuple[Path, ...]:
        tails = {a for a, _ in self.arrows}
        return tuple(v for v in self.vertices if v not in tails)


def hasse_quiver(perfect_paths: Iterable[Path], order: str) -> HasseQuiver:
    """Covering relations of ``order`` on the given paths.

    Whatever lies below ``q`` in the prefix order, or above ``p`` in the
    suffix order, is a proper prefix (suffix) of it, and those form a chain;
    so each vertex is joined to its longest proper prefix (suffix) among the
    vertices, the trivial path included.  That is O(P·L) instead of a
    transitive reduction.
    """
    if order not in (PREC, LEQ):
        raise InputError(f"unknown order {order!r}; use {PREC!r} or {LEQ!r}")
    verts = tuple(sorted(set(perfect_paths), key=Path.sort_key))
    # the vertex objects themselves, so the chains hold the caller's paths
    present = {v: v for v in verts}
    arrows = []
    for v in verts:
        for k in range(v.length - 1, -1, -1):
            w = present.get(v.prefix(k) if order == PREC else v.suffix(k))
            if w is not None:
                arrows.append((v, w) if order == PREC else (w, v))
                break
    arrows.sort(key=lambda e: (e[0].sort_key(), e[1].sort_key()))

    outgoing: dict[Path, list[Path]] = {}
    incoming: dict[Path, list[Path]] = {}
    for a, b in arrows:
        outgoing.setdefault(a, []).append(b)
        incoming.setdefault(b, []).append(a)
    for v in verts:
        if len(outgoing.get(v, ())) > 1 or len(incoming.get(v, ())) > 1:
            raise InternalConsistencyError(
                f"Hasse quiver of order {order!r} is not a union of chains "
                f"at {v}"
            )

    components = []
    heads = [v for v in verts if v not in incoming]
    for head in heads:
        chain = [head]
        while chain[-1] in outgoing:
            chain.append(outgoing[chain[-1]][0])
        components.append(tuple(chain))
    components.sort(key=lambda c: c[0].sort_key())
    return HasseQuiver(
        order=order,
        vertices=verts,
        arrows=tuple(arrows),
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


@dataclass(frozen=True)
class CycleDecomposition:
    """An underlying cycle rotated to a co-elementary boundary.

    ``factors`` are the co-elementary paths r_1..r_n with the anchored
    cycle equal to their concatenation; ``size`` is n, ``m`` the number of
    perfect paths with r_1 as left divisor.  ``windows[i-1][span-1]`` is the
    class member (the object itself) that realizes r_i .. r_{i+span-1}, for
    1 <= i <= n, 1 <= span <= m: row i is the set of perfect cuts of the
    relation r_i .. r_{i+m}, sorted by length (the prefix-order Hasse chain
    above r_i, read bottom-up).  ``elementary`` holds the row tops and
    ``coelementary`` the factors, each sorted by ``Path.sort_key``.
    """

    cycle_class: UnderlyingCycleClass
    anchored_cycle: Path
    factors: tuple[Path, ...]
    size: int
    arrow_length: int
    m: int
    chain: tuple[Path, ...]
    elementary: tuple[Path, ...]
    coelementary: tuple[Path, ...]
    windows: tuple[tuple[Path, ...], ...] = field(compare=False)
    # partial sums of the factor lengths: prefix_lengths[t] = l(r_1 ... r_t)
    prefix_lengths: tuple[int, ...] = field(compare=False, repr=False)

    @property
    def members(self) -> tuple[Path, ...]:
        return self.cycle_class.members

    def factor(self, i: int) -> Path:
        return self.factors[(i - 1) % self.size]

    def factor_length(self, i: int) -> int:
        return self.factor(i).length

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
    """
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
    word = tuple(a for row in ring for a in row[0].arrows)
    cuts = (0, *itertools.accumulate(row[0].length for row in ring[:-1]))
    doubled = word + word
    t = min(range(n), key=lambda k: doubled[cuts[k] : cuts[k] + len(word)])
    windows = tuple(ring[t:] + ring[:t])
    factors = tuple(row[0] for row in windows)
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
        prefix_lengths=tuple(itertools.accumulate([0] + [r.length for r in factors])),
    )


@dataclass(frozen=True)
class CyclePredicates:
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
