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
prefixes of relations as candidates.  Each of the |F|·L candidates looks its
suffixes up among the relation cuts, so the cost is |F|·L² lookups on arrow
words, independent of the dimension of the algebra; paths are built only for
the perfect pairs found.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import InputError, InternalConsistencyError, MonomialAlgebra, Path


def _require_nonzero_nontrivial(alg: MonomialAlgebra, p: Path) -> None:
    if p.is_trivial:
        raise InputError(f"annihilators are defined for non-trivial paths, got {p}")
    if alg.is_zero(p):
        raise InputError(f"annihilators are defined for non-zero paths, got {p}")


def _word_key(word: tuple[str, ...]):
    # Path.sort_key of a non-trivial path, whose arrows fix its vertices
    return len(word), word


def _minimal_killers(
    alg: MonomialAlgebra, word: tuple[str, ...], right: bool
) -> list[tuple[str, ...]]:
    """The arrows of R(p) (``right``) or L(p) of the non-zero path with arrows
    ``word``, shortest first: the prefix-minimal ``r[cut:]`` over the relation
    cuts whose ``r[:cut]`` is a non-empty suffix of ``word``, or the
    suffix-minimal ``r[:cut]`` whose ``r[cut:]`` is a non-empty prefix of it."""
    splits = alg.relation_splits
    ends = range(1, len(word) + 1)
    if right:
        found = {q for k in ends for q in splits.by_prefix.get(word[-k:], ())}
    else:
        found = {q for k in ends for q in splits.by_suffix.get(word[:k], ())}
    # Shortest first: a killer is minimal unless a minimal one divides it.
    minimal: list[tuple[str, ...]] = []
    for q in sorted(found, key=len):
        for m in minimal:
            if (q[: len(m)] if right else q[-len(m) :]) == m:
                break
        else:
            minimal.append(q)
    minimal.sort(key=_word_key)
    return minimal


def right_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """R(p): left-minimal non-zero q with t(p) = s(q) and pq = 0, sorted."""
    _require_nonzero_nontrivial(alg, p)
    return tuple(map(alg.quiver.path, _minimal_killers(alg, p.arrows, True)))


def left_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """L(p): right-minimal non-zero q with t(q) = s(p) and qp = 0, sorted."""
    _require_nonzero_nontrivial(alg, p)
    return tuple(map(alg.quiver.path, _minimal_killers(alg, p.arrows, False)))


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
    cm_free: bool


def _successor_map(alg: MonomialAlgebra) -> dict[Path, Path]:
    """p -> q for every perfect pair; p ranges over the proper prefixes of
    relations, since ``pq`` is a relation whenever the pair is perfect.
    Runs on arrow words and builds paths only for the pairs it returns."""
    sigma: dict[Path, Path] = {}
    left_cache: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
    for p in sorted(alg.relation_splits.by_prefix, key=_word_key):
        right = _minimal_killers(alg, p, True)
        if len(right) != 1:
            continue
        q = right[0]
        if q not in left_cache:
            left_cache[q] = _minimal_killers(alg, q, False)
        if left_cache[q] == [p]:
            sigma[alg.quiver.path(p)] = alg.quiver.path(q)
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
    return PerfectPathSet(
        paths=paths,
        sequences=sequences,
        successor={p: canon[sigma[p]] for p in paths},
        cm_free=not paths,
    )


def _root_length(word: tuple[str, ...]) -> int:
    """The least d with ``word`` a power of ``word[:d]``."""
    n = len(word)
    return next(d for d in range(1, n + 1) if not n % d and word[:d] * (n // d) == word)


def _least_rotation(word: tuple[str, ...]) -> int:
    """The first s where the rotation ``word[s:] + word[:s]`` is least."""
    return min(range(len(word)), key=lambda s: word[s:] + word[:s])


@dataclass(frozen=True)
class UnderlyingCycleClass:
    """An equivalence class of underlying cycles, up to rotation.

    ``cycle`` is the canonical representative (smallest rotation) and
    ``members`` all perfect paths whose sequences wind around it.
    """

    cycle: Path
    members: tuple[Path, ...]


def underlying_cycle_classes(
    alg: MonomialAlgebra, pset: PerfectPathSet
) -> tuple[UnderlyingCycleClass, ...]:
    """Group the successor cycles by the least rotation of the primitive root
    of their product, taken on arrow words; one path is built per class."""
    grouped: dict[tuple[str, ...], list[Path]] = {}
    for seq in pset.sequences:
        word = tuple(a for p in seq for a in p.arrows)
        root = word[: _root_length(word)]
        s = _least_rotation(root)
        # the successor cycles are disjoint
        grouped.setdefault(root[s:] + root[:s], []).extend(seq)
    return tuple(
        UnderlyingCycleClass(
            cycle=alg.quiver.path(canon),
            members=tuple(sorted(members, key=Path.sort_key)),
        )
        for canon, members in sorted(grouped.items(), key=lambda kv: _word_key(kv[0]))
    )


@dataclass(frozen=True)
class Overlap:
    """An overlap witness: ``p = left * middle`` and ``q = middle * right``
    with ``left * middle * right`` non-zero."""

    kind: str  # "O1" | "O2"
    left: Path
    middle: Path
    right: Path


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
