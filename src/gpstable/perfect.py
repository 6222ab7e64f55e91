"""Perfect pairs and perfect paths.

A pair ``(p, q)`` of non-trivial non-zero paths is perfect when ``pq = 0``,
``q`` is the unique left-minimal right annihilator of ``p`` and ``p`` the
unique right-minimal left annihilator of ``q``.  These conditions make the
successor assignment ``p -> q`` a partial injection; perfect paths are its
periodic points and the minimal perfect path sequences are its cycles.
Each cycle of the successor map winds around a primitive cycle of the
quiver, giving the underlying-cycle classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import InputError, InternalConsistencyError, MonomialAlgebra, Path


def right_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """R(p): left-minimal non-zero q with t(p) = s(q) and pq = 0, sorted."""
    if p.is_trivial:
        raise InputError(f"annihilators are defined for non-trivial paths, got {p}")
    if alg.is_zero(p):
        raise InputError(f"annihilators are defined for non-zero paths, got {p}")
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


def left_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """L(p): right-minimal non-zero q with t(q) = s(p) and qp = 0, sorted."""
    if p.is_trivial:
        raise InputError(f"annihilators are defined for non-trivial paths, got {p}")
    if alg.is_zero(p):
        raise InputError(f"annihilators are defined for non-zero paths, got {p}")
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

    def __contains__(self, p: Path) -> bool:
        return p in self.successor


def _successor_map(alg: MonomialAlgebra) -> dict[Path, Path]:
    sigma: dict[Path, Path] = {}
    left_cache: dict[Path, tuple[Path, ...]] = {}
    for p in alg.nontrivial_basis:
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
    """Cycles of an injective partial self-map, via chain peeling."""
    on_cycle: set[Path] = set()
    dead: set[Path] = set()
    for start in sigma:
        if start in on_cycle or start in dead:
            continue
        trail: list[Path] = []
        index: dict[Path, int] = {}
        cur = start
        while (
            cur in sigma
            and cur not in index
            and cur not in on_cycle
            and cur not in dead
        ):
            index[cur] = len(trail)
            trail.append(cur)
            cur = sigma[cur]
        if cur in index:
            cycle = trail[index[cur] :]
            on_cycle.update(cycle)
            dead.update(trail[: index[cur]])
        else:
            dead.update(trail)
    cycles = []
    seen: set[Path] = set()
    for p in sorted(on_cycle, key=Path.sort_key):
        if p in seen:
            continue
        cycle = [p]
        cur = sigma[p]
        while cur != p:
            cycle.append(cur)
            cur = sigma[cur]
        seen.update(cycle)
        cycles.append(cycle)
    return cycles


def enumerate_perfect_paths(alg: MonomialAlgebra) -> PerfectPathSet:
    """Perfect paths as the periodic points of the successor map.

    The minimal perfect path sequences are returned rotated to start at
    their smallest member and sorted by that member; the algebra is CM-free
    exactly when the result is empty.
    """
    sigma = _successor_map(alg)
    cycles = _cycles_of_partial_injection(sigma)
    sequences = tuple(tuple(c) for c in cycles)
    paths = tuple(sorted((p for seq in sequences for p in seq), key=Path.sort_key))
    if len(set(paths)) != len(paths):
        raise InternalConsistencyError("successor cycles are not disjoint")
    successor = {p: sigma[p] for p in paths}
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
