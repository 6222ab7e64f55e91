"""Perfect pairs and perfect paths.

A pair ``(p, q)`` of non-trivial non-zero paths is perfect when ``pq = 0``,
``q`` is the unique left-minimal right annihilator of ``p`` and ``p`` the
unique right-minimal left annihilator of ``q``.  These conditions make the
successor assignment ``p -> q`` a partial injection; perfect paths are its
periodic points and the minimal perfect path sequences are its cycles.
Each cycle of the successor map winds around a primitive cycle of the
quiver, giving the underlying-cycle classes.

Everything here is read off the minimal relations F alone.  For a non-zero
``p`` the product ``pq`` vanishes exactly when some relation crosses the
junction, i.e. ``r = r[:cut] * r[cut:]`` with ``r[:cut]`` a non-empty
suffix of ``p`` and ``r[cut:]`` a non-empty prefix of ``q``; so R(p) is the
set of prefix-minimal ``r[cut:]`` over those cuts, and L(q) the mirror image.
Every perfect pair multiplies to a minimal relation, ``pq ∈ F`` (X.-W. Chen,
D. Shen, G. Zhou, *The Gorenstein-projective modules over a monomial
algebra*, arXiv:1501.02978), so the successor map only needs the proper
prefixes of relations as candidates.  The cost is O(|F|·L) index lookups,
independent of the dimension of the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import InputError, InternalConsistencyError, MonomialAlgebra, Path


def _require_nonzero_nontrivial(alg: MonomialAlgebra, p: Path) -> None:
    if p.is_trivial:
        raise InputError(f"annihilators are defined for non-trivial paths, got {p}")
    if alg.is_zero(p):
        raise InputError(f"annihilators are defined for non-zero paths, got {p}")


def right_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """R(p): left-minimal non-zero q with t(p) = s(q) and pq = 0, sorted.

    These are the prefix-minimal ``r[cut:]`` over the relation cuts whose
    ``r[:cut]`` is a non-empty suffix of ``p``.
    """
    _require_nonzero_nontrivial(alg, p)
    by_prefix = alg.relation_splits.by_prefix
    killers = {
        r.window(cut, r.length)
        for k in range(1, p.length + 1)
        for r, cut in by_prefix.get(p.arrows[-k:], ())
    }
    # Shortest first: a killer is minimal unless a minimal one divides it.
    minimal: list[Path] = []
    for q in sorted(killers, key=Path.sort_key):
        if not any(m.left_divides(q) for m in minimal):
            minimal.append(q)
    return tuple(minimal)


def left_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """L(p): right-minimal non-zero q with t(q) = s(p) and qp = 0, sorted.

    The mirror image of :func:`right_annihilators`: the suffix-minimal
    ``r[:cut]`` over the relation cuts whose ``r[cut:]`` is a non-empty
    prefix of ``p``.
    """
    _require_nonzero_nontrivial(alg, p)
    by_suffix = alg.relation_splits.by_suffix
    killers = {
        r.prefix(cut)
        for k in range(1, p.length + 1)
        for r, cut in by_suffix.get(p.arrows[:k], ())
    }
    minimal: list[Path] = []
    for q in sorted(killers, key=Path.sort_key):
        if not any(m.right_divides(q) for m in minimal):
            minimal.append(q)
    return tuple(minimal)


def is_perfect_pair(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """The defining conditions, checked via the annihilator sets."""
    if p.is_trivial or q.is_trivial:
        return False
    if alg.is_zero(p) or alg.is_zero(q):
        return False
    if p.target != q.source or not alg.concat_zero(p, q):
        return False
    return right_annihilators(alg, p) == (q,) and left_annihilators(alg, q) == (p,)


@dataclass(frozen=True)
class PerfectPathSet:
    """All perfect paths of an algebra, organised as successor cycles."""

    paths: tuple[Path, ...]
    sequences: tuple[tuple[Path, ...], ...]
    successor: dict[Path, Path]
    predecessor: dict[Path, Path]
    cm_free: bool


def _successor_map(alg: MonomialAlgebra) -> dict[Path, Path]:
    """p -> q for every perfect pair; p ranges over the proper prefixes of
    relations, since ``pq`` is a relation whenever the pair is perfect."""
    # one path per distinct prefix, read off its first split
    candidates = sorted(
        (r.prefix(cut) for (r, cut), *_ in alg.relation_splits.by_prefix.values()),
        key=Path.sort_key,
    )
    sigma: dict[Path, Path] = {}
    left_cache: dict[Path, tuple[Path, ...]] = {}
    for p in candidates:
        right = right_annihilators(alg, p)
        if len(right) != 1:
            continue
        q = right[0]
        if q not in left_cache:
            left_cache[q] = left_annihilators(alg, q)
        if left_cache[q] == (p,):
            sigma[p] = q
    return sigma


def _cycles_of_partial_injection(sigma: dict[Path, Path]) -> list[list[Path]]:
    """Cycles of an injective partial self-map, each from its smallest member.

    A point is periodic exactly when the walk from it returns to it, and by
    injectivity a walk that starts off every cycle never meets one; so one
    walk per unseen start, in sorted order, reaches every cycle first at its
    smallest member.
    """
    cycles = []
    seen: set[Path] = set()
    for start in sorted(sigma, key=Path.sort_key):
        walk = []
        cur = start
        while cur in sigma and cur not in seen:
            seen.add(cur)
            walk.append(cur)
            cur = sigma[cur]
        if walk and cur == start:
            cycles.append(walk)
    return cycles


def enumerate_perfect_paths(alg: MonomialAlgebra) -> PerfectPathSet:
    """Perfect paths as the periodic points of the successor map.

    The minimal perfect path sequences are returned rotated to start at
    their smallest member and sorted by that member; the algebra is CM-free
    exactly when the result is empty.
    """
    sigma = _successor_map(alg)
    cycles = _cycles_of_partial_injection(sigma)
    paths = tuple(sorted((p for c in cycles for p in c), key=Path.sort_key))
    # one object per perfect path, shared by every structure built from them
    canon = {p: p for p in paths}
    if len(canon) != len(paths):
        raise InternalConsistencyError("successor cycles are not disjoint")
    sequences = tuple(tuple(canon[p] for p in c) for c in cycles)
    successor = {p: canon[sigma[p]] for p in paths}
    predecessor = {q: p for p, q in successor.items()}
    return PerfectPathSet(
        paths=paths,
        sequences=sequences,
        successor=successor,
        predecessor=predecessor,
        cm_free=not paths,
    )


def primitive_root(cycle: Path) -> Path:
    """Shortest cycle ``c`` with ``cycle = c**k``."""
    if cycle.source != cycle.target or cycle.is_trivial:
        raise InputError(f"{cycle} is not a non-trivial cycle")
    n = cycle.length
    for d in range(1, n + 1):
        if n % d:
            continue
        root = cycle.prefix(d)
        if root.arrows * (n // d) == cycle.arrows:
            return root
    raise AssertionError("unreachable")


def min_rotation(cycle: Path) -> Path:
    """Lexicographically smallest rotation under the global path order."""
    return min(
        (cycle.rotation(s) for s in range(max(cycle.length, 1))),
        key=Path.sort_key,
    )


@dataclass(frozen=True)
class UnderlyingCycleClass:
    """An equivalence class of underlying cycles, up to rotation.

    ``cycle`` is the canonical representative (smallest rotation) and
    ``members`` all perfect paths whose sequences wind around it.
    """

    cycle: Path
    members: tuple[Path, ...]
    sequence_indices: tuple[int, ...]


def underlying_cycle_classes(
    alg: MonomialAlgebra, pset: PerfectPathSet
) -> tuple[UnderlyingCycleClass, ...]:
    """Group the successor cycles by the primitive root of their product."""
    grouped: dict[Path, dict] = {}
    for idx, seq in enumerate(pset.sequences):
        product = reduce(lambda a, b: a * b, seq)
        canon = min_rotation(primitive_root(product))
        slot = grouped.setdefault(canon, {"members": set(), "seqs": []})
        slot["members"].update(seq)
        slot["seqs"].append(idx)
    return tuple(
        UnderlyingCycleClass(
            cycle=canon,
            members=tuple(sorted(slot["members"], key=Path.sort_key)),
            sequence_indices=tuple(slot["seqs"]),
        )
        for canon, slot in sorted(
            grouped.items(), key=lambda kv: kv[0].sort_key()
        )
    )


@dataclass(frozen=True)
class Overlap:
    """An overlap witness: ``p = left * middle`` and ``q = middle * right``
    with ``left * middle * right`` non-zero."""

    kind: str  # "O1" | "O2"
    left: Path
    middle: Path
    right: Path

    @property
    def witness_path(self) -> Path:
        return self.left * self.middle * self.right


def detect_overlap(alg: MonomialAlgebra, p: Path, q: Path) -> Overlap | None:
    """Search for an overlap between the perfect paths ``p`` and ``q``.

    For ``p == q`` both complements must be non-trivial (kind O1); for
    ``p != q`` they may be trivial (kind O2).  The scan runs over the
    possible middle lengths in increasing order.
    """
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
        whole = left * q
        if not alg.is_zero(whole):
            return Overlap("O1" if same else "O2", left, x, right)
    return None
