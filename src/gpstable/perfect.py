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
suffix of ``p`` and ``r[cut:]`` a non-empty prefix of ``q``.  Those
suffixes are the failure chain of the state ``p`` reads to in the relation
trie, so R(p) is the set of prefix-minimal completions of the chain; L(q)
is R of the reversed ``q`` in the trie of the opposite algebra.
Every perfect pair multiplies to a minimal relation, ``pq ∈ F`` (X.-W. Chen,
D. Shen, G. Zhou, *The Gorenstein-projective modules over a monomial
algebra*, arXiv:1501.02978), so the successor map only tries relation cuts
``p·q``.  By minimality, R(p) = {q} iff ``q`` is the only completion of
``p`` and every relation below each state ``s`` on the chain of ``p`` runs
through ``s·q``, the state at depth |s| + |q| on the chain of ``pq``.
Turned around, each start a of a relation r rules out one interval of
cuts [a+1, hi(a)], so one pass over the starts with a running maximum
tests every cut of r (:func:`_cut_scan`): one trie step per start on
N(n, n), O(|r|²) at worst, independent of the dimension of the algebra.
A perfect path p = r[:k] is a proper prefix of a relation, so a state of
the relation automaton; the map, its cycles and their order run on those
integer states, ordered by the key (k, i) of relation i cut at k, and
each perfect path is sliced from its relation once, at the end, as
``tuple.__new__(Path, (arrows, vertices))``: the relation was validated at
parse, so its slice needs neither ``Quiver.path``'s checks nor the
Python-level ``__new__`` that ``NamedTuple`` generates, which takes about
300 ns per five-arrow path against 200 ns (Python 3.11.7 on a shared
2-core Xeon VM).  The class cycles (:func:`_word_path`), the reversed
arrows and relations of the opposite automaton and the vertices of the
ungraded AR quiver are built the same way: about 200 tuples per document
of the ``classify-cycles`` benchmark.  A perfect path's rank by that key
is its position in ``PerfectPathSet.paths``, and the enumeration keeps,
per position, the relation index i, the cut k and the successor's
position (:class:`_Cuts`).  The classes read only those: the
successor cycles of one class are joined by the relations they cut (each
relation is one row of the class's bracket grid), so a class is a
component of a union-find over relation indices, and the primitive root
and least rotation are taken once per class.  The decompositions and the
AR quiver read the same positions.  The oracle's word view of the map
(:func:`_successor_words`) is read off the same cuts.
"""

from __future__ import annotations

import bisect
from typing import Callable, NamedTuple

from .algebra import InputError, InternalConsistencyError, MonomialAlgebra, Path
from .algebra import RelationAutomaton


def _require_nonzero_nontrivial(alg: MonomialAlgebra, p: Path) -> None:
    if p.is_trivial:
        raise InputError(f"annihilators are defined for non-trivial paths, got {p}")
    if alg.is_zero(p):
        raise InputError(f"annihilators are defined for non-zero paths, got {p}")


def _word_key(word: tuple[str, ...]):
    # Path.sort_key of a non-trivial path, whose arrows fix its vertices
    return len(word), word


def _killers(auto: RelationAutomaton, word: tuple[str, ...], vertices: tuple[str, ...]):
    """The arrows of R(p) for the non-zero path p with ``word`` and
    ``vertices``: the prefix-minimal completions of the relation prefixes
    that are suffixes of ``word``, the failure chain of the state it reads
    to.  An arrow missing from ``auto`` lies in no relation, so the walk
    restarts after it.  Those below one state are a run of ``relations``."""
    state = auto.start[vertices[0]]
    for a, v in zip(word, vertices[1:]):
        state = auto.moves[state].get(a, auto.start[v])
    found = set()
    while d := auto.depth[state]:
        lo = bisect.bisect_left(auto.relations, word[-d:])
        found.update(w[d:] for w in auto.relations[lo : lo + auto.leaves[state]])
        state = auto.fail[state]
    # Shortest first: a killer is minimal unless a minimal one divides it.
    minimal: list[tuple[str, ...]] = []
    for q in sorted(found, key=len):
        if all(q[: len(m)] != m for m in minimal):
            minimal.append(q)
    return minimal


def right_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """R(p): left-minimal non-zero q with t(p) = s(q) and pq = 0, sorted."""
    _require_nonzero_nontrivial(alg, p)
    killers = _killers(alg.automaton, p.arrows, p.vertices)
    return tuple([*map(alg.quiver.path, sorted(killers, key=_word_key))])


def left_annihilators(alg: MonomialAlgebra, p: Path) -> tuple[Path, ...]:
    """L(p): right-minimal non-zero q with t(q) = s(p) and qp = 0, sorted;
    R of the reversed path in the opposite algebra, reversed."""
    _require_nonzero_nontrivial(alg, p)
    killers = _killers(alg.opposite_automaton, p.arrows[::-1], p.vertices[::-1])
    killers = sorted((q[::-1] for q in killers), key=_word_key)
    return tuple([*map(alg.quiver.path, killers)])


def is_perfect_pair(alg: MonomialAlgebra, p: Path, q: Path) -> bool:
    """The defining conditions, checked via the annihilator sets."""
    if p.is_trivial or q.is_trivial or p.target != q.source:
        return False
    if alg.is_zero(p) or alg.is_zero(q) or not alg.concat_zero(p, q):
        return False
    return right_annihilators(alg, p) == (q,) and left_annihilators(alg, q) == (p,)


class _Cuts(NamedTuple):
    """The successor map as :func:`enumerate_perfect_paths` ran it, by
    position in ``PerfectPathSet.paths``: the perfect path at position x
    is relation ``relation[x]`` of the forward automaton cut at
    ``cut[x]``, and its successor sits at ``after[x]``."""

    relation: tuple[int, ...]
    cut: tuple[int, ...]
    after: tuple[int, ...]


class _Located(tuple):
    """A tuple of perfect paths that knows where they sit: ``positions[j]``
    is the position of its j-th path in ``PerfectPathSet.paths`` (their
    ``Path.sort_key`` order) and ``cuts`` the :class:`_Cuts` of the set.
    ``PerfectPathSet.paths``, the members of each class and the rows of
    each decomposition's ``windows`` are such tuples; they compare, hash
    and print as plain tuples."""

    def __new__(cls, paths, positions, cuts: _Cuts):
        self = super().__new__(cls, paths)
        self.positions = positions
        self.cuts = cuts
        return self


class PerfectPathSet(NamedTuple):
    """All perfect paths of an algebra, organised as successor cycles."""

    paths: tuple[Path, ...]
    sequences: tuple[tuple[Path, ...], ...]
    successor: dict[Path, Path]
    cm_free: bool


def _cut_scan(auto: RelationAutomaton) -> list[tuple[set[int], dict[int, int]]]:
    """For each relation r of ``auto``, the cuts k with R(r[:k]) = {r[k:]},
    and the suffix states: a -> the state r[a:], for each start a where
    r[a:] is a state.

    Cut k passes when r[:k] has one completion (``leaves`` 1) and every
    state s = r[a:k], 1 <= a < k, on the failure chain of r[:k] has r[a:]
    as a state with as many leaves as s.  Fix a start a.  States are
    prefix-closed, so r[a:k] is a state exactly for k up to E(a), the end
    of the longest trie prefix of r[a:]; and leaf counts do not grow along
    a word.  So a rules out one interval of cuts [a+1, hi(a)]:

    - if r[a:] is a state (a depth on the chain of ``tops[r]``), every k
      from a+1 on has r[a:k] a state, and it fails until the leaves of
      r[a:k] fall to those of r[a:]: hi(a) = c(a) - 1, with c(a) the first
      b where leaves(r[a:b]) = leaves(r[a:]);
    - otherwise every state r[a:k] fails: hi(a) = E(a).

    Cut k passes iff its leaves are 1 and max hi(a) over a < k is below k.
    One walk down the chain of ``tops[r]`` lists the suffix states, then
    each start costs one trie walk from its vertex, until c(a) or E(a):
    one step per start on N(n, n), O(|r|²) per relation at worst.  Once
    the maximum reaches |r| - 1 no later cut can pass.
    """
    depth, leaves, fail = auto.depth, auto.leaves, auto.fail
    moves, start, vertex = auto.moves, auto.start, auto.vertex
    out = []
    for word, path, top in zip(auto.relations, auto.paths, auto.tops):
        n = len(word)
        tail = {}  # a -> r[a:], for the suffix states
        t = top
        while depth[t]:
            tail[n - depth[t]] = t
            t = fail[t]
        cuts = set()
        hi = 0
        for k in range(1, n):
            if hi < k and leaves[path[k]] == 1:
                cuts.add(k)
            # the start a = k: walk the trie from r[k]'s vertex along r[k:]
            s, b, t = start[vertex[path[k]]], k, tail.get(k)
            if t is None:
                while b < n and depth[nxt := moves[s].get(word[b], s)] > depth[s]:
                    s, b = nxt, b + 1
            else:
                want = leaves[t]
                while leaves[s := moves[s][word[b]]] != want:
                    b += 1
            if b > hi:
                hi = b
                if hi >= n - 1:
                    break
        out.append((cuts, tail))
    return out


def _unique_cuts(auto: RelationAutomaton) -> list[set[int]]:
    """For each relation r of ``auto``, the cuts k with R(r[:k]) = {r[k:]}
    (:func:`_cut_scan`)."""
    return [cuts for cuts, _ in _cut_scan(auto)]


def _perfect_cuts(alg: MonomialAlgebra):
    """Every perfect pair as ``(i, k, tail)``: relation i of the forward
    automaton cut at k = |p|, where R(p) = {q} and L(q) = {p}, the same
    test on the reversed relation in the opposite automaton, and ``tail``
    the suffix states of relation i (:func:`_cut_scan`)."""
    words = alg.automaton.relations
    op_cuts = _unique_cuts(alg.opposite_automaton)
    # the opposite automaton lists the reversed words sorted, so its j-th
    # relation is the reversal of relation order[j]
    order = sorted(range(len(words)), key=lambda i: words[i][::-1])
    left = [None] * len(words)
    for i, cuts in zip(order, op_cuts):
        left[i] = cuts
    for i, (cuts, tail) in enumerate(_cut_scan(alg.automaton)):
        n, back = len(words[i]), left[i]
        for k in cuts:
            if n - k in back:
                yield i, k, tail


def _successor_words(alg: MonomialAlgebra) -> dict[tuple[str, ...], tuple[str, ...]]:
    """p -> q on arrow words for every perfect pair: the cuts p·q of the
    relations with R(p) = {q} and L(q) = {p}."""
    words = alg.automaton.relations
    return {words[i][:k]: words[i][k:] for i, k, _ in _perfect_cuts(alg)}


def _word_path(alg: MonomialAlgebra, word: tuple[str, ...]) -> Path:
    """The path of a non-empty arrow word known to compose (a cycle along
    a class), without ``Quiver.path``'s checks."""
    arrow = alg.quiver.arrow_by_id
    vertices = (arrow[word[0]].source, *[arrow[a].target for a in word])
    return tuple.__new__(Path, (word, vertices))


def _cycles_of_partial_injection(sigma: dict, key: Callable) -> list[list]:
    """Cycles of an injective partial self-map, each from its least member
    by ``key``.

    A point is periodic exactly when the walk from it returns to it, and by
    injectivity a walk that starts off every cycle never meets one; so one
    walk per unseen start, in ``key`` order, reaches every cycle first at
    its least member.
    """
    cycles = []
    seen = set()
    for start in sorted(sigma, key=key):
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

    The map runs on state ids of the forward automaton: the prefix r_i[:k]
    of a passing cut is the state ``paths[i][k]``, and its successor
    r_i[k:] the state at depth |r_i| - k on the failure chain of
    ``tops[i]``; when r_i[k:] is no state it is no relation prefix, so
    not perfect, and a walk ends there.  A passing cut has one leaf, so
    its state lies below relation i alone and has the key (k, i), kept as
    the int k·|F| + i.  The relations are sorted by word, so the key
    orders the states as ``Path.sort_key`` orders their paths; the cycle
    walk and the final sort read it.  Each perfect path is built once,
    from (i, k), sliced from relation i.

    The minimal perfect path sequences are returned rotated to start at
    their smallest member and sorted by that member; the algebra is CM-free
    exactly when the result is empty.  ``paths`` is a :class:`_Located`
    tuple: it keeps the relation, cut and successor of each position for
    the classes and the decompositions.
    """
    states = alg.automaton.paths
    nrel = len(states)
    # perfect-prefix state -> k·|F| + i, the key (k, i) as one int
    rank, sigma = {}, {}
    for i, k, tail in _perfect_cuts(alg):
        s = states[i][k]
        rank[s] = k * nrel + i
        t = tail.get(k)
        if t is not None:
            sigma[s] = t
    cycles = _cycles_of_partial_injection(sigma, rank.__getitem__)
    # the relation paths in the automaton's order, sorted by arrows
    relations = sorted(alg.relations, key=lambda r: r.arrows)
    codes = sorted([rank[s] for c in cycles for s in c])
    relation = tuple([code % nrel for code in codes])
    cut = tuple([code // nrel for code in codes])
    # a perfect state's position is its rank by key
    position = {states[i][k]: x for x, (i, k) in enumerate(zip(relation, cut))}
    if len(position) != len(codes):
        raise InternalConsistencyError("successor cycles are not disjoint")
    after = tuple([position[sigma[s]] for s in position])
    # one object per perfect path, shared by every structure built from
    # them, sliced from its relation, which the parser validated
    paths = _Located(
        [
            tuple.__new__(Path, (r.arrows[:k], r.vertices[: k + 1]))
            for r, k in zip(map(relations.__getitem__, relation), cut)
        ],
        range(len(codes)),
        _Cuts(relation, cut, after),
    )
    return PerfectPathSet(
        paths=paths,
        sequences=tuple([tuple([paths[position[s]] for s in c]) for c in cycles]),
        successor=dict(zip(paths, map(paths.__getitem__, after))),
        cm_free=not paths,
    )


def _root_length(word: tuple[str, ...]) -> int:
    """The least d with ``word`` a power of ``word[:d]``."""
    n = len(word)
    return next(d for d in range(1, n + 1) if not n % d and word[:d] * (n // d) == word)


def _least_rotation(word: tuple[str, ...]) -> int:
    """The first s where the rotation ``word[s:] + word[:s]`` is least."""
    return min(range(len(word)), key=lambda s: word[s:] + word[:s])


class UnderlyingCycleClass(NamedTuple):
    """An equivalence class of underlying cycles, up to rotation.

    ``cycle`` is the canonical representative (smallest rotation) and
    ``members`` all perfect paths whose sequences wind around it, in
    position order (``Path.sort_key`` order), as a :class:`_Located` tuple.
    """

    cycle: Path
    members: tuple[Path, ...]


def underlying_cycle_classes(
    alg: MonomialAlgebra, pset: PerfectPathSet
) -> tuple[UnderlyingCycleClass, ...]:
    """Group the successor cycles into the underlying-cycle classes.

    Every perfect pair multiplies to a minimal relation, and the members
    of a class that cut one relation are one row of its bracket grid
    (:func:`~gpstable.orders.decompose_cycle`); the factor at the bottom
    of each row has its successor atop the next row, so the successor
    cycles of a class are joined by the relations they cut, and those of
    different classes cut none in common.  So a class is one component of a union-find over
    relation indices that joins the relations each perfect path and its
    successor cut.  Its members are sorted by position, and its cycle, the
    least rotation of the primitive root of the product of the successor
    cycle through its first member, is taken on arrow words once per class.
    """
    paths = pset.paths
    relation, _, after = paths.cuts
    parent = list(range(len(alg.automaton.relations)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, q in zip(relation, after):
        parent[find(relation[q])] = find(i)
    root = [find(i) for i in range(len(parent))]
    grouped: dict[int, list[int]] = {}  # a root -> its class's positions
    for p, i in enumerate(relation):
        grouped.setdefault(root[i], []).append(p)
    classes = []
    for positions in grouped.values():
        cycle = [positions[0]]
        while (q := after[cycle[-1]]) != cycle[0]:
            cycle.append(q)
        word = tuple([a for p in cycle for a in paths[p].arrows])
        root = word[: _root_length(word)]
        s = _least_rotation(root)
        classes.append(UnderlyingCycleClass(
            cycle=_word_path(alg, root[s:] + root[:s]),
            members=_Located([paths[p] for p in positions], positions, paths.cuts),
        ))
    return tuple(sorted(classes, key=lambda c: _word_key(c.cycle.arrows)))


class Overlap(NamedTuple):
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
    # for p == q a middle shorter than p leaves both complements non-trivial
    max_x = p.length - 1 if same else min(p.length, q.length)
    pa, pv, qa, qv = p.arrows, p.vertices, q.arrows, q.vertices
    for xlen in range(1, max_x + 1):
        # compare the words first; build paths only for a matching middle
        if pa[-xlen:] != qa[:xlen] or pv[-xlen - 1 :] != qv[: xlen + 1]:
            continue
        left = p.prefix(p.length - xlen)
        if not alg.is_zero(left * q):
            return Overlap(
                "O1" if same else "O2", left, q.prefix(xlen), q.suffix(q.length - xlen)
            )
    return None
