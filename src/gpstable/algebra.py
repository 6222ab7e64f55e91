"""Monomial path algebras: quivers, paths, relations and the non-zero basis.

A monomial algebra is presented by a finite quiver together with a set of
forbidden paths (the monomial relations).  A path is *zero* in the algebra
exactly when it contains a forbidden path as a consecutive factor, so the
non-zero paths form a finite basis whenever the ideal is admissible.  This
module provides the value types (:class:`Path`, :class:`Quiver`,
:class:`MonomialAlgebra`), the input-document parser, the factor-avoidance
enumeration of the basis, and the divisibility predicates everything else
is built on.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence


class InputError(ValueError):
    """Malformed input document, invalid relation or invalid path data."""


class NonAdmissibleError(InputError):
    """The relation set admits arbitrarily long non-zero paths.

    ``witness`` is a cycle of the quiver around which non-zero paths of
    unbounded length wind.
    """

    def __init__(self, message: str, witness: "Path"):
        super().__init__(message)
        self.witness = witness


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed.  Indicates a bug, not bad input."""


@dataclass(frozen=True)
class Path:
    """A walk in a quiver, possibly trivial at a vertex.

    ``arrows`` is the sequence of arrow ids and ``vertices`` the sequence of
    visited vertices; ``len(vertices) == len(arrows) + 1`` always holds.
    Paths are immutable value objects; the total order used as a global
    tie-breaker everywhere is ``(length, arrows, start vertex)``.
    """

    arrows: tuple[str, ...]
    vertices: tuple[str, ...]

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def length(self) -> int:
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def sort_key(self):
        return (len(self.arrows), self.arrows, self.vertices[0])

    def __lt__(self, other: "Path") -> bool:
        return self.sort_key() < other.sort_key()

    def __mul__(self, other: "Path") -> "Path":
        """Concatenation; raises when the endpoints do not meet."""
        if self.target != other.source:
            raise InputError(
                f"cannot compose {self} (ends at {self.target}) with "
                f"{other} (starts at {other.source})"
            )
        return Path(self.arrows + other.arrows, self.vertices + other.vertices[1:])

    def window(self, i: int, j: int) -> "Path":
        """The sub-walk spanning arrow positions ``i`` to ``j`` (exclusive)."""
        if not 0 <= i <= j <= self.length:
            raise InputError(f"window [{i}, {j}) out of range for {self}")
        return Path(self.arrows[i:j], self.vertices[i : j + 1])

    def prefix(self, n: int) -> "Path":
        return self.window(0, n)

    def suffix(self, n: int) -> "Path":
        return self.window(self.length - n, self.length)

    def left_divides(self, other: "Path") -> bool:
        """True when ``other = self * x`` for some path ``x``."""
        if self.is_trivial:
            return self.source == other.source
        n = self.length
        return (
            other.arrows[:n] == self.arrows
            and other.vertices[: n + 1] == self.vertices
        )

    def right_divides(self, other: "Path") -> bool:
        """True when ``other = x * self`` for some path ``x``."""
        if self.is_trivial:
            return self.target == other.target
        n = self.length
        return (
            other.arrows[-n:] == self.arrows
            and other.vertices[-(n + 1) :] == self.vertices
        )

    def occurrences_in(self, other: "Path") -> Iterable[int]:
        """Arrow positions (or vertex positions for trivial paths) where
        ``self`` occurs as a consecutive factor of ``other``."""
        if self.is_trivial:
            for k, v in enumerate(other.vertices):
                if v == self.source:
                    yield k
            return
        n = self.length
        for s in range(other.length - n + 1):
            if (
                other.arrows[s : s + n] == self.arrows
                and other.vertices[s : s + n + 1] == self.vertices
            ):
                yield s

    def subpath_of(self, other: "Path") -> bool:
        return next(iter(self.occurrences_in(other)), None) is not None

    def rotation(self, s: int) -> "Path":
        """Cyclic rotation starting at arrow position ``s`` (cycles only)."""
        if self.source != self.target:
            raise InputError(f"{self} is not a cycle")
        s %= max(self.length, 1)
        if s == 0:
            return self
        return self.window(s, self.length) * self.window(0, s)

    def __str__(self) -> str:
        if self.is_trivial:
            return f"e({self.source})"
        return ".".join(self.arrows)

    def __repr__(self) -> str:
        return f"Path({self})"


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    """A finite quiver: vertex ids plus arrows with declared endpoints."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if not self.vertices:
            raise InputError("a quiver needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        seen = set()
        vset = set(self.vertices)
        for a in self.arrows:
            if a.id in seen:
                raise InputError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if a.source not in vset or a.target not in vset:
                raise InputError(
                    f"arrow {a.id!r} has undeclared endpoint "
                    f"({a.source!r} -> {a.target!r})"
                )

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def arrows_from(self) -> dict[str, tuple[Arrow, ...]]:
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(sorted(lst)) for v, lst in out.items()}

    def trivial(self, vertex: str) -> Path:
        if vertex not in self.vertices:
            raise InputError(f"unknown vertex {vertex!r}")
        return Path((), (vertex,))

    def arrow_path(self, arrow_id: str) -> Path:
        a = self.arrow_by_id.get(arrow_id)
        if a is None:
            raise InputError(f"unknown arrow id {arrow_id!r}")
        return Path((a.id,), (a.source, a.target))

    def path(self, arrow_ids: Sequence[str]) -> Path:
        """Build and validate the path with the given arrow id sequence."""
        if not arrow_ids:
            raise InputError("empty arrow sequence; use trivial(vertex) instead")
        verts = []
        prev: str | None = None
        for k, aid in enumerate(arrow_ids):
            a = self.arrow_by_id.get(aid)
            if a is None:
                raise InputError(f"unknown arrow id {aid!r} (position {k})")
            if prev is None:
                verts.append(a.source)
            elif a.source != prev:
                raise InputError(
                    f"arrows {arrow_ids[k - 1]!r} and {aid!r} do not compose "
                    f"(position {k})"
                )
            verts.append(a.target)
            prev = a.target
        return Path(tuple(arrow_ids), tuple(verts))


def parse_path_string(quiver: Quiver, text: str) -> Path:
    """Parse a dot-separated arrow id string such as ``a1.a2.a3``."""
    text = text.strip()
    if not text:
        raise InputError("empty path string")
    return quiver.path(tuple(part for part in text.split(".")))


def relation_index(
    relations: Iterable[Path],
) -> dict[int, frozenset[tuple[str, ...]]]:
    """Relation arrow sequences grouped by length, for window lookups."""
    by_len: dict[int, set[tuple[str, ...]]] = {}
    for r in relations:
        by_len.setdefault(r.length, set()).add(r.arrows)
    return {ln: frozenset(rels) for ln, rels in by_len.items()}


class RelationSplits(NamedTuple):
    """Every proper cut ``r = r[:cut] * r[cut:]`` of every minimal relation,
    as arrow words.

    ``by_prefix`` maps ``r[:cut]`` to the ``r[cut:]`` it is cut from, and
    ``by_suffix`` maps ``r[cut:]`` to the ``r[:cut]``, in relation order.
    """

    by_prefix: dict[tuple[str, ...], tuple[tuple[str, ...], ...]]
    by_suffix: dict[tuple[str, ...], tuple[tuple[str, ...], ...]]


def admissibility_witness(
    quiver: Quiver, rel_by_len: Mapping[int, frozenset[tuple[str, ...]]]
) -> Path | None:
    """Return a live cycle if the non-zero path language is infinite.

    ``rel_by_len`` is the :func:`relation_index` of the relations.  Runs
    over the factor-avoidance transition graph whose states are
    ``(vertex, suffix window of the last d-1 arrows)`` with ``d`` the largest
    relation length; an infinite language is equivalent to a reachable cycle
    in this graph.
    """
    width = max(rel_by_len, default=1) - 1

    def step(state, arrow: Arrow):
        window = state[1] + (arrow.id,)
        for ln, rels in rel_by_len.items():
            if len(window) >= ln and window[-ln:] in rels:
                return None
        return (arrow.target, window[-width:] if width else ())

    starts = [(v, ()) for v in quiver.vertices]
    graph: dict[tuple, list[tuple[str, tuple]]] = {}
    queue = deque(starts)
    seen = set(starts)
    while queue:
        state = queue.popleft()
        edges = []
        for arrow in quiver.arrows_from[state[0]]:
            nxt = step(state, arrow)
            if nxt is None:
                continue
            edges.append((arrow.id, nxt))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
        graph[state] = edges

    # Iterative three-colour DFS; a back edge yields the witness cycle.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {state: WHITE for state in graph}
    for root in starts:
        if color[root] != WHITE:
            continue
        stack: list[tuple[tuple, str | None, Iterable]] = [
            (root, None, iter(graph[root]))
        ]
        color[root] = GRAY
        while stack:
            state, _, it = stack[-1]
            advanced = False
            for aid, nxt in it:
                if color[nxt] == GRAY:
                    arrows = [aid]
                    for frame in reversed(stack):
                        if frame[0] == nxt:
                            break
                        arrows.append(frame[1])
                    arrows.reverse()
                    return quiver.path(tuple(arrows))
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, aid, iter(graph[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[state] = BLACK
                stack.pop()
    return None


def _non_admissible(witness: Path) -> NonAdmissibleError:
    return NonAdmissibleError(
        f"non-admissible relation set: non-zero paths wind around the "
        f"cycle {witness} indefinitely",
        witness,
    )


def enumerate_nonzero_paths(
    quiver: Quiver, rel_by_len: Mapping[int, frozenset[tuple[str, ...]]]
) -> frozenset[Path]:
    """All non-zero paths, trivial paths included.

    ``rel_by_len`` is the :func:`relation_index` of the relations.  A
    depth-first walk extends each path by every arrow that completes no
    relation.  Which extensions survive depends only on the state (vertex,
    last d-1 arrows) of :func:`admissibility_witness`, so a state met twice
    on one walk is a live cycle: the walk raises :class:`NonAdmissibleError`
    with it as witness instead of running on.
    """
    width = max(rel_by_len, default=1) - 1

    def alive(arrows: tuple[str, ...]) -> bool:
        for ln, rels in rel_by_len.items():
            if len(arrows) >= ln and arrows[-ln:] in rels:
                return False
        return True

    basis: set[Path] = set()
    for v in quiver.vertices:
        root = quiver.trivial(v)
        basis.add(root)
        depth = {(v, ()): 0}  # the states on the current walk
        stack = [(root, (v, ()), iter(quiver.arrows_from[v]))]
        while stack:
            p, state, extensions = stack[-1]
            for arrow in extensions:
                arrows = p.arrows + (arrow.id,)
                if not alive(arrows):
                    continue
                nxt = (arrow.target, arrows[-width:] if width else ())
                if nxt in depth:
                    raise _non_admissible(quiver.path(arrows[depth[nxt] :]))
                depth[nxt] = len(arrows)
                ext = Path(arrows, p.vertices + (arrow.target,))
                basis.add(ext)
                stack.append((ext, nxt, iter(quiver.arrows_from[arrow.target])))
                break
            else:
                del depth[state]
                stack.pop()
    return frozenset(basis)


class MonomialAlgebra:
    """A monomial bound quiver algebra; its non-zero basis is built lazily.

    Relations are normalized to the minimal generating set: any relation
    containing another one as a subpath is dropped with a warning record.
    All values are immutable after construction.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Path],
        arrow_degrees: Mapping[str, int] | None = None,
        warnings: Sequence[str] = (),
    ):
        self.quiver = quiver
        notes = list(warnings)

        cleaned: list[Path] = []
        for k, r in enumerate(relations):
            if r.length < 2:
                raise InputError(
                    f"relation #{k} ({r}) has length {r.length}; monomial "
                    f"relations must have length >= 2"
                )
            if r in cleaned:
                notes.append(f"duplicate relation {r} dropped")
            else:
                cleaned.append(r)
        minimal = []
        for r in cleaned:
            covers = [s for s in cleaned if s != r and s.subpath_of(r)]
            if covers:
                notes.append(
                    f"relation {r} dropped: contains {covers[0]} as a subpath"
                )
            else:
                minimal.append(r)
        self.relations: tuple[Path, ...] = tuple(
            sorted(minimal, key=Path.sort_key)
        )
        self.relation_index = relation_index(self.relations)

        degrees = {a.id: 1 for a in quiver.arrows}
        for aid, d in (arrow_degrees or {}).items():
            if aid not in degrees:
                raise InputError(f"arrow_degrees mentions unknown arrow {aid!r}")
            if isinstance(d, bool) or not isinstance(d, int) or d < 1:
                raise InputError(
                    f"arrow degree for {aid!r} must be a positive integer; "
                    f"degree-0 arrows would leave the positively-graded "
                    f"condition unverifiable"
                )
            degrees[aid] = d
        self.arrow_degrees: dict[str, int] = degrees

        witness = admissibility_witness(quiver, self.relation_index)
        if witness is not None:
            raise _non_admissible(witness)
        self.warnings: tuple[str, ...] = tuple(notes)

    @cached_property
    def relation_splits(self) -> RelationSplits:
        """The proper cuts of the minimal relations, by prefix and by suffix;
        the only place relation cuts are enumerated."""
        by_prefix: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        by_suffix: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for r in self.relations:
            for cut in range(1, r.length):
                head, tail = r.arrows[:cut], r.arrows[cut:]
                by_prefix.setdefault(head, []).append(tail)
                by_suffix.setdefault(tail, []).append(head)
        return RelationSplits(
            {k: tuple(v) for k, v in by_prefix.items()},
            {k: tuple(v) for k, v in by_suffix.items()},
        )

    @cached_property
    def basis(self) -> frozenset[Path]:
        """The non-zero paths, enumerated on first use (the closed forms never do)."""
        return enumerate_nonzero_paths(self.quiver, self.relation_index)

    @cached_property
    def basis_sorted(self) -> tuple[Path, ...]:
        return tuple(sorted(self.basis, key=Path.sort_key))

    @cached_property
    def nontrivial_basis(self) -> tuple[Path, ...]:
        return tuple(p for p in self.basis_sorted if not p.is_trivial)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def nilpotency(self) -> int:
        """Smallest N such that every path of length N is zero."""
        longest = max((p.length for p in self.basis), default=0)
        return longest + 1

    def is_zero(self, p: Path) -> bool:
        """True iff some relation occurs in ``p`` as a consecutive factor."""
        if p.length < 2:
            return False
        arrows = p.arrows
        for ln, rels in self.relation_index.items():
            if ln > len(arrows):
                continue
            for s in range(len(arrows) - ln + 1):
                if arrows[s : s + ln] in rels:
                    return True
        return False

    def concat_zero(self, p: Path, q: Path) -> bool:
        """Whether ``p*q`` vanishes, assuming ``p`` and ``q`` are non-zero.

        Only relation windows crossing the junction need checking.
        """
        lp = len(p.arrows)
        arrows = p.arrows + q.arrows
        for ln, rels in self.relation_index.items():
            lo = max(0, lp - ln + 1)
            hi = min(lp - 1, len(arrows) - ln)
            for s in range(lo, hi + 1):
                if arrows[s : s + ln] in rels:
                    return True
        return False

    def module_dim(self, r: Path) -> int:
        """Dimension of the cyclic right module generated by ``r``
        (the number of non-zero paths with ``r`` as left divisor)."""
        if self.is_zero(r):
            return 0
        return sum(1 for u in self.basis if r.left_divides(u))

    def degree(self, p: Path) -> int:
        """Degree of ``p`` under the declared arrow degrees (default 1)."""
        return sum(self.arrow_degrees[a] for a in p.arrows)

    def __repr__(self):
        return (
            f"MonomialAlgebra({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations)"
        )


def parse_algebra(doc: str | Mapping) -> MonomialAlgebra:
    """Parse the UTF-8 JSON input document into a validated algebra.

    Expected shape::

        {"vertices": ["1", ...],
         "arrows": [{"id": "a1", "from": "1", "to": "2"}, ...],
         "relations": [["a1", "a2"], ...],
         "arrow_degrees": {"a1": 1, ...}}        # optional

    Arrow degrees default to 1 everywhere.
    """
    if isinstance(doc, str):
        try:
            data = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InputError(f"malformed JSON document: {exc}") from None
    else:
        data = doc
    if not isinstance(data, Mapping):
        raise InputError("input document must be a JSON object")
    for key in ("vertices", "arrows", "relations"):
        if key not in data:
            raise InputError(f"input document missing {key!r}")

    vertices = data["vertices"]
    if not isinstance(vertices, (list, tuple)) or not vertices:
        raise InputError("'vertices' must be a non-empty list")
    arrows = []
    if not isinstance(data["arrows"], (list, tuple)):
        raise InputError("'arrows' must be a list")
    for k, entry in enumerate(data["arrows"]):
        if not isinstance(entry, Mapping) or not {"id", "from", "to"} <= set(
            entry
        ):
            raise InputError(
                f"arrow #{k} must be an object with 'id', 'from' and 'to'"
            )
        arrows.append(
            Arrow(str(entry["id"]), str(entry["from"]), str(entry["to"]))
        )
    quiver = Quiver(tuple(str(v) for v in vertices), tuple(arrows))

    if not isinstance(data["relations"], (list, tuple)):
        raise InputError("'relations' must be a list of arrow id lists")
    relations = []
    for k, ids in enumerate(data["relations"]):
        if not isinstance(ids, (list, tuple)):
            raise InputError(f"relation #{k} must be a list of arrow ids")
        try:
            relations.append(quiver.path(tuple(str(a) for a in ids)))
        except InputError as exc:
            raise InputError(f"relation #{k} is not a valid path: {exc}") from None

    degrees = data.get("arrow_degrees")
    if degrees is not None and not isinstance(degrees, Mapping):
        raise InputError("'arrow_degrees' must be an object")
    return MonomialAlgebra(quiver, relations, degrees)
