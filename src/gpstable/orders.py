"""Divisibility orders on perfect paths and the cycle decomposition.

Two partial orders live on the set of perfect paths: ``p`` is below ``q``
in the prefix order when ``p`` is a left divisor of ``q``, and below ``q``
in the suffix order when ``q`` is a right divisor of ``p``.  Both Hasse
quivers decompose into linear A-type chains; their sources and sinks are
the elementary and co-elementary paths, every perfect path factors
uniquely into co-elementary ones, and each underlying cycle carries the
invariants (number of factors, arrow length, chain length m) that drive
all stable-category formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .algebra import InternalConsistencyError, InputError, MonomialAlgebra, Path
from .perfect import UnderlyingCycleClass

PREC = "prec"  # p below q iff p is a left divisor of q
LEQ = "leq"  # p below q iff q is a right divisor of p

EQUAL = "equal"
LESS = "less"
GREATER = "greater"
INCOMPARABLE = "incomparable"


def _below(p: Path, q: Path, order: str) -> bool:
    if order == PREC:
        return p.left_divides(q)
    if order == LEQ:
        return q.right_divides(p)
    raise InputError(f"unknown order {order!r}; use {PREC!r} or {LEQ!r}")


def order_compare(p: Path, q: Path, order: str) -> str:
    le = _below(p, q, order)
    ge = _below(q, p, order)
    if le and ge:
        return EQUAL
    if le:
        return LESS
    if ge:
        return GREATER
    return INCOMPARABLE


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

    def component_of(self, p: Path) -> tuple[Path, ...]:
        for chain in self.components:
            if p in chain:
                return chain
        raise InputError(f"{p} is not a vertex of this Hasse quiver")

    def chain_above(self, p: Path) -> tuple[Path, ...]:
        """The vertices above ``p`` (inclusive), read from the top down.

        In the prefix order this is the ascending filtration of the cyclic
        module of ``p`` by submodules with elementary factors.
        """
        chain = self.component_of(p)
        return chain[: chain.index(p) + 1]


def hasse_quiver(perfect_paths: Iterable[Path], order: str) -> HasseQuiver:
    verts = tuple(sorted(set(perfect_paths), key=Path.sort_key))
    below = {
        (p, q)
        for p in verts
        for q in verts
        if p != q and _below(p, q, order)
    }
    arrows = []
    for p, q in below:
        if not any((p, r) in below and (r, q) in below for r in verts):
            arrows.append((q, p))
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


def _factor_greedily(p: Path, coel: Sequence[Path]) -> tuple[Path, ...] | None:
    """Peel the unique co-elementary left divisor off ``p`` until nothing
    is left; ``None`` when some step finds no divisor or several."""
    factors: list[Path] = []
    rest = p
    while not rest.is_trivial:
        hits = [r for r in coel if r.left_divides(rest)]
        if len(hits) != 1:
            return None
        factors.append(hits[0])
        rest = rest.window(hits[0].length, rest.length)
    return tuple(factors)


def coelementary_factorization(
    p: Path, coelementary: Iterable[Path]
) -> tuple[Path, ...]:
    """Greedy unique factorization of a perfect path into co-elementary ones.

    At every step there is exactly one co-elementary left divisor of the
    remaining suffix; anything else falsifies the implementation.
    """
    factors = _factor_greedily(p, tuple(coelementary))
    if factors is None:
        raise InternalConsistencyError(
            f"{p} has no unique factorization into co-elementary paths"
        )
    return factors


def _realize(factors: Sequence[Path], i: int, j: int) -> Path:
    """The path r_i r_{i+1} ... r_j over cyclically indexed ``factors``,
    trivial at s(r_i) when i > j."""
    n = len(factors)
    out = factors[(i - 1) % n]
    if i > j:
        return Path((), (out.source,))
    for t in range(i, j):
        out = out * factors[t % n]
    return out


@dataclass(frozen=True)
class CycleDecomposition:
    """An underlying cycle rotated to a co-elementary boundary.

    ``factors`` are the co-elementary paths r_1..r_n with the anchored
    cycle equal to their concatenation; ``size`` is n, ``m`` the number of
    perfect paths with r_1 as left divisor.  ``bracket_index`` maps every
    perfect path of the class to its coordinates ``(i, span)`` meaning
    factors r_i .. r_{i+span-1}.
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
    phi: dict[Path, Path] = field(compare=False)
    bracket_index: dict[Path, tuple[int, int]] = field(compare=False)

    @property
    def members(self) -> tuple[Path, ...]:
        return self.cycle_class.members

    def factor(self, i: int) -> Path:
        return self.factors[(i - 1) % self.size]

    def factor_length(self, i: int) -> int:
        return self.factor(i).length

    def realize(self, i: int, j: int) -> Path:
        """The path r_i r_{i+1} ... r_j, trivial at s(r_i) when i > j."""
        return _realize(self.factors, i, j)

    def length_between(self, i: int, j: int) -> int:
        """Arrow length of the factor window [i, j] (0 when i > j)."""
        count = j - i + 1
        if count <= 0:
            return 0
        full, rem = divmod(count, self.size)
        total = full * self.arrow_length
        start = (i - 1) % self.size
        for t in range(rem):
            total += self.factors[(start + t) % self.size].length
        return total

    def bracket_of(self, p: Path) -> tuple[int, int]:
        return self.bracket_index[p]


def decompose_cycle(
    alg: MonomialAlgebra,
    cls: UnderlyingCycleClass,
    coelementary: Iterable[Path],
    successor: Mapping[Path, Path],
) -> CycleDecomposition:
    """Anchor, factor and index one underlying cycle class.

    Among the rotations of the canonical cycle that start at a co-elementary
    boundary, the one whose realized arrow sequence is lexicographically
    smallest is chosen; this pins down all bracket coordinates.
    """
    coel = tuple(sorted(set(coelementary), key=Path.sort_key))
    candidates = []
    for s in range(cls.cycle.length):
        rot = cls.cycle.rotation(s)
        fac = _factor_greedily(rot, coel)
        if fac is not None:
            candidates.append((rot, fac))
    if not candidates:
        raise InternalConsistencyError(
            f"underlying cycle {cls.cycle} admits no co-elementary "
            f"factorization"
        )
    anchored, factors = min(candidates, key=lambda t: t[0].arrows)
    n = len(factors)
    if len(set(factors)) != n:
        raise InternalConsistencyError(
            f"repeated co-elementary factor in {anchored}"
        )

    r1 = factors[0]
    chain = tuple(
        sorted(
            (p for p in cls.members if r1.left_divides(p)),
            key=Path.sort_key,
        )
    )
    m = len(chain)
    if m == 0:
        raise InternalConsistencyError(f"no perfect path extends {r1}")

    members_set = set(cls.members)
    bracket_index: dict[Path, tuple[int, int]] = {}
    for i in range(1, n + 1):
        for span in range(1, m + 1):
            realized = _realize(factors, i, i + span - 1)
            if realized not in members_set:
                raise InternalConsistencyError(
                    f"bracket window [{i},{i + span - 1}] = {realized} is "
                    f"not a perfect path of class {cls.cycle}"
                )
            if realized in bracket_index:
                raise InternalConsistencyError(
                    f"ambiguous bracket coordinates for {realized}"
                )
            bracket_index[realized] = (i, span)
    if len(bracket_index) != len(cls.members):
        raise InternalConsistencyError(
            f"class {cls.cycle}: {len(cls.members)} members but "
            f"{len(bracket_index)} bracket windows"
        )
    if chain != tuple(_realize(factors, 1, k) for k in range(1, m + 1)):
        raise InternalConsistencyError(
            f"chain above {r1} does not match the bracket chain"
        )

    elementary = tuple(
        p
        for p in cls.members
        if bracket_index[p][1] == m
    )
    factor_set = set(factors)
    phi = {}
    for x in elementary:
        r = successor[x]
        if r not in factor_set:
            raise InternalConsistencyError(
                f"successor {r} of elementary {x} is not a factor of "
                f"{anchored}"
            )
        phi[x] = r
    if len(set(phi.values())) != n or len(elementary) != n:
        raise InternalConsistencyError(
            f"elementary/co-elementary bijection failed for {anchored}"
        )

    relation_paths = set(alg.relations)
    for i in range(1, n + 1):
        window = _realize(factors, i, i + m)
        if window not in relation_paths:
            raise InternalConsistencyError(
                f"window [{i},{i + m}] = {window} is not a minimal relation"
            )

    return CycleDecomposition(
        cycle_class=cls,
        anchored_cycle=anchored,
        factors=factors,
        size=n,
        arrow_length=anchored.length,
        m=m,
        chain=chain,
        elementary=elementary,
        coelementary=tuple(sorted(factors, key=Path.sort_key)),
        phi=phi,
        bracket_index=bracket_index,
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
    for r in sorted(alg.relation_index):
        if r < 2:
            continue
        buf = cycle.arrows * (r // cycle.length + 2)
        wins = (buf[t : t + r] for t in range(cycle.length))
        if all(w in alg.relation_index[r] for w in wins):
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
