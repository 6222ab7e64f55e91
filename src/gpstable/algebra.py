"""Monomial path algebras: quivers, paths, relations and the non-zero basis.

A monomial algebra is presented by a finite quiver together with a set of
forbidden paths (the monomial relations).  A path is *zero* in the algebra
exactly when it contains a forbidden path as a consecutive factor, so the
non-zero paths form a finite basis whenever the ideal is admissible.  This
module provides the value types (:class:`Path`, :class:`Quiver`,
:class:`MonomialAlgebra`), the input-document parser, and the divisibility
predicates everything else is built on.  One relation automaton, built at
parse, answers every zero question: the admissibility check is a cycle
search in it, the basis is a walk through it and its size a count of the
walks, and the zero tests run a word through it.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence


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


class Path(NamedTuple):
    """A walk in a quiver, possibly trivial at a vertex.

    ``arrows`` is the sequence of arrow ids and ``vertices`` the sequence of
    visited vertices; ``len(vertices) == len(arrows) + 1`` always holds.
    Paths are immutable value objects; the total order used as a global
    tie-breaker everywhere is ``(length, arrows, start vertex)``.  A named
    tuple: it compares equal and hashes as ``(arrows, vertices)``, and all
    four order comparisons read :meth:`sort_key`, not the tuple order.
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

    def __gt__(self, other: "Path") -> bool:
        return self.sort_key() > other.sort_key()

    def __le__(self, other: "Path") -> bool:
        return self.sort_key() <= other.sort_key()

    def __ge__(self, other: "Path") -> bool:
        return self.sort_key() >= other.sort_key()

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

    def __str__(self) -> str:
        if not self.arrows:
            return f"e({self.source})"
        return ".".join(self.arrows)

    def __repr__(self) -> str:
        return f"Path({self})"


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class _QuiverFields(NamedTuple):
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]


class Quiver(_QuiverFields):
    """A finite quiver: vertex ids plus arrows with declared endpoints.

    A named tuple validated on construction; unlike its fields base it has
    an instance dict, which holds the cached arrow maps.
    """

    def __new__(cls, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        if not vertices:
            raise InputError("a quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        seen = set()
        vset = set(vertices)
        for a in arrows:
            if (
                not a.id or "." in a.id or "\\" in a.id or a.id != a.id.strip()
                or not a.id.isprintable()
            ):
                raise InputError(
                    f"arrow id {a.id!r} must be non-empty, free of '.' (it joins "
                    f"arrows in path strings), of '\\' (DOT reads it as an escape), "
                    f"of outer whitespace (path strings strip it) and of unprintable "
                    f"characters such as line breaks (they would split a line of output)"
                )
            if a.id in seen:
                raise InputError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if a.source not in vset or a.target not in vset:
                raise InputError(
                    f"arrow {a.id!r} has undeclared endpoint "
                    f"({a.source!r} -> {a.target!r})"
                )
        return super().__new__(cls, vertices, arrows)

    @classmethod
    def _make(cls, iterable) -> "Quiver":
        """Build through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)

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
    return quiver.path(tuple(text.split(".")))


class RelationAutomaton(NamedTuple):
    """The factor-avoidance automaton of a minimal relation set, in the
    style of Aho–Corasick, over the trie of the relations.

    A state is the longest suffix of the walk read so far that is a proper
    prefix of a relation; the empty suffix is one state per vertex, so
    there are at most |Q0| + Σ(|r|−1) states.  ``start`` maps each vertex to
    its empty-suffix state, ``vertex`` gives the vertex each state sits at,
    and ``moves[s]`` maps each arrow out of that vertex to the next state.
    An arrow is missing from ``moves[s]`` exactly when reading it completes
    a relation, so a walk is non-zero iff it reads through without a miss.

    The trie: ``fail[s]`` is the longest proper suffix of ``s`` that is a
    state (``None`` on the empty ones), ``depth[s]`` its length, ``leaves[s]``
    the number of relations with prefix ``s``.  ``relations`` are the sorted
    relation words, so those below a state are a run; ``paths[i]`` are the
    states ``relations[i][:k]``, ``k < |r|``, and ``tops[i]`` the longest
    proper suffix of the whole relation that is a state (by minimality).
    """

    start: dict[str, int]
    vertex: tuple[str, ...]
    moves: tuple[dict[str, int], ...]
    fail: tuple[int | None, ...]
    depth: tuple[int, ...]
    leaves: tuple[int, ...]
    relations: tuple[tuple[str, ...], ...]
    paths: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]

    def read(self, state: int, arrows: Iterable[str]) -> int | None:
        """The state after reading ``arrows`` from ``state``; ``None`` once
        a relation completes."""
        moves = self.moves
        for a in arrows:
            state = moves[state].get(a)
            if state is None:
                return None
        return state


def relation_automaton(
    vertices: Sequence[str],
    arrows_from: Mapping[str, Sequence[Arrow]],
    relations: Iterable[Path],
) -> RelationAutomaton:
    """Build the :class:`RelationAutomaton` of a minimal relation set.

    ``arrows_from`` maps each vertex to its outgoing arrows, sorted: a
    quiver's :attr:`Quiver.arrows_from`, or any arrows the relations use.
    The relations are inserted, sorted, into a trie of nested dicts rooted at
    their source vertices; by minimality a relation ends exactly at a node
    with no children.  States are then built breadth first with failure
    links: the failure of a state is its longest proper suffix that is a
    state.  A move into a non-empty node is a new state and one into an
    empty node is dead; any other move falls back to the failure state's
    move on the same arrow.  Each relation is then read along its states.
    """
    rels = sorted(relations, key=lambda r: r.arrows)
    start = {v: k for k, v in enumerate(vertices)}
    vertex = list(vertices)
    node: list[dict] = [{} for _ in vertex]  # each state's trie node
    for r in rels:
        child = node[start[r.source]]
        for a in r.arrows:
            child = child.setdefault(a, {})
    fail: list[int | None] = [None] * len(vertex)
    depth = [0] * len(vertex)
    moves: list[dict[str, int]] = []
    for s, v in enumerate(vertex):  # grows while it runs: breadth first
        out = {}
        for a in arrows_from[v]:
            child = node[s].get(a.id)
            back = start[a.target] if fail[s] is None else moves[fail[s]].get(a.id)
            if child:
                out[a.id] = len(vertex)
                vertex.append(a.target)
                node.append(child)
                fail.append(back)
                depth.append(depth[s] + 1)
            elif child is None and back is not None:
                out[a.id] = back
        moves.append(out)
    leaves = [0] * len(vertex)
    paths, tops = [], []
    for r in rels:
        path = [start[r.source]]
        for a in r.arrows[:-1]:
            path.append(moves[path[-1]][a])
        for s in path:
            leaves[s] += 1
        paths.append(tuple(path))
        f = fail[path[-1]]
        tops.append(start[r.target] if f is None else moves[f].get(r.arrows[-1]))
    return RelationAutomaton(
        start, tuple(vertex), tuple(moves), tuple(fail), tuple(depth),
        tuple(leaves), tuple([r.arrows for r in rels]), tuple(paths), tuple(tops),
    )


def admissibility_witness(quiver: Quiver, automaton: RelationAutomaton) -> Path | None:
    """Return a live cycle if the non-zero path language is infinite.

    The language is infinite exactly when the :func:`relation_automaton`
    has a cycle (every state is reachable); a three-colour depth-first
    search finds one, and the arrows read around it are the witness.
    """
    moves = automaton.moves
    done: set[int] = set()  # black; the states on the walk are grey
    for root in automaton.start.values():
        if root in done:
            continue
        on_walk = {root: 0}  # state -> its index on the stack
        stack = [(root, None, iter(moves[root].items()))]
        while stack:
            state, _, it = stack[-1]
            for aid, nxt in it:
                if nxt in on_walk:
                    cycle = [frame[1] for frame in stack[on_walk[nxt] + 1 :]]
                    return quiver.path((*cycle, aid))
                if nxt not in done:
                    on_walk[nxt] = len(stack)
                    stack.append((nxt, aid, iter(moves[nxt].items())))
                    break
            else:
                done.add(state)
                del on_walk[state]
                stack.pop()
    return None


def _non_admissible(witness: Path) -> NonAdmissibleError:
    return NonAdmissibleError(
        f"non-admissible relation set: non-zero paths wind around the "
        f"cycle {witness} indefinitely",
        witness,
    )


def enumerate_nonzero_paths(
    quiver: Quiver, automaton: RelationAutomaton
) -> frozenset[Path]:
    """All non-zero paths, trivial paths included.

    A depth-first walk through the :func:`relation_automaton` extends each
    path by every live move.  A state met twice on one walk is a live
    cycle, so the walk raises :class:`NonAdmissibleError` with it as
    witness instead of running on.
    """
    basis: set[Path] = set()
    for root in automaton.start.values():
        p = quiver.trivial(automaton.vertex[root])
        basis.add(p)
        depth = {root: 0}  # the states on the current walk
        stack = [(p, root, iter(automaton.moves[root].items()))]
        while stack:
            p, state, it = stack[-1]
            for aid, nxt in it:
                arrows = p.arrows + (aid,)
                if nxt in depth:
                    raise _non_admissible(quiver.path(arrows[depth[nxt] :]))
                depth[nxt] = len(arrows)
                ext = Path(arrows, p.vertices + (automaton.vertex[nxt],))
                basis.add(ext)
                stack.append((ext, nxt, iter(automaton.moves[nxt].items())))
                break
            else:
                del depth[state]
                stack.pop()
    return frozenset(basis)


class DivisorIndex(NamedTuple):
    """The basis paths by divisor, in ``basis_sorted`` order: ``starts[(v, w)]``
    holds the paths ``w·x`` from vertex ``v``, ``ends[(w, v)]`` the paths ``x·w``
    into ``v``; a key is present exactly when its divisor is non-zero."""

    starts: dict[tuple[str, tuple[str, ...]], list[Path]]
    ends: dict[tuple[tuple[str, ...], str], list[Path]]


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
    ):
        self.quiver = quiver
        notes = []

        # arrow word -> position among the distinct relations, in input
        # order; a non-trivial path is determined by its arrows
        position: dict[tuple[str, ...], int] = {}
        cleaned: list[Path] = []
        for k, r in enumerate(relations):
            if r.length < 2:
                raise InputError(
                    f"relation #{k} ({r}) has length {r.length}; monomial "
                    f"relations must have length >= 2"
                )
            if r.arrows in position:
                notes.append(f"duplicate relation {r} dropped")
            else:
                position[r.arrows] = len(cleaned)
                cleaned.append(r)
        lengths = sorted({r.length for r in cleaned})
        minimal = []
        for r in cleaned:
            w = r.arrows
            covers = [
                position[w[s : s + n]]
                for n in lengths
                if n < len(w)
                for s in range(len(w) - n + 1)
                if w[s : s + n] in position
            ]
            if covers:
                notes.append(
                    f"relation {r} dropped: contains {cleaned[min(covers)]} "
                    f"as a subpath"
                )
            else:
                minimal.append(r)
        self.relations: tuple[Path, ...] = tuple(
            sorted(minimal, key=Path.sort_key)
        )

        self.relation_words = frozenset(r.arrows for r in self.relations)
        self.automaton = relation_automaton(
            quiver.vertices, quiver.arrows_from, self.relations
        )
        witness = admissibility_witness(quiver, self.automaton)
        if witness is not None:
            raise _non_admissible(witness)
        self.warnings: tuple[str, ...] = tuple(notes)

    @cached_property
    def opposite_automaton(self) -> RelationAutomaton:
        """The automaton of the opposite algebra (arrows and relations
        reversed) on the arrows that relations use; built on first use,
        from the reversed arrows alone, with no opposite ``Quiver``.  The
        reversed arrows and relations reverse validated ones, so they skip
        the generated ``NamedTuple`` constructor."""
        q, new = self.quiver, tuple.__new__
        arrows_from: dict[str, list[Arrow]] = {v: [] for v in q.vertices}
        for a in sorted({a for w in self.relation_words for a in w}):
            _, source, target = q.arrow_by_id[a]
            arrows_from[target].append(new(Arrow, (a, target, source)))
        reverse = [new(Path, (r.arrows[::-1], r.vertices[::-1])) for r in self.relations]
        return relation_automaton(q.vertices, arrows_from, reverse)

    @cached_property
    def basis(self) -> frozenset[Path]:
        """The non-zero paths, enumerated on first use; only the oracle
        reads them, directly and through the divisor index.

        The automaton is acyclic by admissibility, and the walks from
        ``start[v]`` are exactly the non-zero paths from v, so this is one
        path per walk; :attr:`dim` and :attr:`nilpotency` count the walks
        instead of listing them.
        """
        return enumerate_nonzero_paths(self.quiver, self.automaton)

    @cached_property
    def basis_sorted(self) -> tuple[Path, ...]:
        return tuple(sorted(self.basis, key=Path.sort_key))

    @cached_property
    def nontrivial_basis(self) -> tuple[Path, ...]:
        return tuple([p for p in self.basis_sorted if not p.is_trivial])

    @cached_property
    def divisor_index(self) -> DivisorIndex:
        """Built in one pass over ``basis_sorted``, on first use."""
        starts, ends = {}, {}
        for u in self.basis_sorted:
            w, source, target = u.arrows, u.vertices[0], u.vertices[-1]
            for k in range(len(w) + 1):
                starts.setdefault((source, w[:k]), []).append(u)
                ends.setdefault((w[k:], target), []).append(u)
        return DivisorIndex(starts, ends)

    @cached_property
    def walks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per automaton state s, the number of walks from s (the empty one
        included) and the length of the longest: count(s) = 1 + Σ count(t)
        and longest(s) = max(0, 1 + longest(t)) over the moves s → t.

        The automaton is acyclic by admissibility, so one post-order pass
        finishes every state after the states it moves to.  The pass keeps
        its own stack: a walk can pass every state, |Q0| + Σ(|r|−1) of them.
        """
        moves = self.automaton.moves
        count, longest = [0] * len(moves), [0] * len(moves)
        stack = list(self.automaton.start.values())
        while stack:
            s = stack[-1]
            if count[s]:  # pushed twice, finished the first time
                stack.pop()
                continue
            todo = [t for t in moves[s].values() if not count[t]]
            if todo:
                stack += todo
                continue
            stack.pop()
            for t in moves[s].values():
                count[s] += count[t]
                longest[s] = max(longest[s], longest[t] + 1)
            count[s] += 1
        return tuple(count), tuple(longest)

    @property
    def dim(self) -> int:
        """The number of non-zero paths, trivial ones included, counted
        without listing them: the automaton is acyclic by admissibility,
        and the walks from ``start[v]`` are exactly the non-zero paths from
        v, so ``dim`` sums :attr:`walks` over the start states."""
        count = self.walks[0]
        return sum(count[s] for s in self.automaton.start.values())

    @property
    def nilpotency(self) -> int:
        """Smallest N such that every path of length N is zero.  The walks
        from ``start[v]`` are exactly the non-zero paths from v, and the
        automaton is acyclic by admissibility, so this is one more than
        the longest walk from a start state (:attr:`walks`)."""
        longest = self.walks[1]
        return 1 + max(longest[s] for s in self.automaton.start.values())

    def is_zero(self, p: Path) -> bool:
        """True iff some relation occurs in ``p`` as a consecutive factor."""
        auto = self.automaton
        return auto.read(auto.start[p.source], p.arrows) is None

    def concat_zero(self, p: Path, q: Path) -> bool:
        """Whether ``p*q`` vanishes; one automaton run over both words."""
        auto = self.automaton
        state = auto.read(auto.start[p.source], p.arrows)
        return state is None or auto.read(state, q.arrows) is None

    def module_dim(self, r: Path) -> int:
        """Dimension of the cyclic right module generated by ``r``
        (the number of non-zero paths with ``r`` as left divisor)."""
        return len(self.divisor_index.starts.get((r.source, r.arrows), ()))

    def __repr__(self):
        return (
            f"MonomialAlgebra({len(self.quiver.vertices)} vertices, "
            f"{len(self.quiver.arrows)} arrows, {len(self.relations)} relations)"
        )


def _require_strings(values: Sequence, name: Callable[[int], str]) -> None:
    """Reject a non-string among ``values``; ``name(k)`` names entry k.
    The types are read in one pass first, so valid input pays no call per
    entry."""
    if set(map(type, values)) <= {str}:
        return
    for k, value in enumerate(values):
        if isinstance(value, str):
            continue
        if value is None or isinstance(value, bool):
            kind = json.dumps(value)
        elif isinstance(value, (int, float)):
            kind = "a number"
        else:
            kind = "an array" if isinstance(value, (list, tuple)) else "an object"
        raise InputError(f"{name(k)} must be a string, got {kind}")


def parse_algebra(doc: str | Mapping) -> MonomialAlgebra:
    """Parse the UTF-8 JSON input document into a validated algebra.

    Expected shape::

        {"vertices": ["1", ...],
         "arrows": [{"id": "a1", "from": "1", "to": "2"}, ...],
         "relations": [["a1", "a2"], ...]}

    Every id (vertex, arrow id, arrow endpoint, relation entry) must be a
    string; any other JSON value is rejected, not converted.

    Every arrow has degree 1: the graded closed forms shift by arrow
    length, so a document that declares ``arrow_degrees`` is rejected,
    not read as if every degree were 1.
    """
    if isinstance(doc, str):
        try:
            data = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            # ValueError: JSONDecodeError, or an integer literal longer
            # than the interpreter's int conversion limit
            raise InputError(f"malformed JSON document: {exc}") from None
    else:
        data = doc
    if not isinstance(data, Mapping):
        raise InputError("input document must be a JSON object")
    for key in ("vertices", "arrows", "relations"):
        if key not in data:
            raise InputError(f"input document missing {key!r}")
    if "arrow_degrees" in data:
        raise InputError(
            "'arrow_degrees' is not supported: every graded closed form "
            "shifts by arrow length, so each arrow has degree 1"
        )

    vertices = data["vertices"]
    if not isinstance(vertices, (list, tuple)) or not vertices:
        raise InputError("'vertices' must be a non-empty list")
    _require_strings(vertices, "vertex #{}".format)
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
        arrows.append(Arrow(entry["id"], entry["from"], entry["to"]))
    fields = ("id", "from", "to")  # the document's names of an Arrow's fields
    _require_strings(
        list(chain.from_iterable(arrows)),
        lambda k: f"arrow #{k // 3} {fields[k % 3]!r}",
    )
    quiver = Quiver(tuple(vertices), tuple(arrows))

    if not isinstance(data["relations"], (list, tuple)):
        raise InputError("'relations' must be a list of arrow id lists")
    relations = []
    for k, ids in enumerate(data["relations"]):
        if not isinstance(ids, (list, tuple)):
            raise InputError(f"relation #{k} must be a list of arrow ids")
        _require_strings(ids, f"relation #{k} entry #{{}}".format)
        try:
            relations.append(quiver.path(tuple(ids)))
        except InputError as exc:
            raise InputError(f"relation #{k} is not a valid path: {exc}") from None

    return MonomialAlgebra(quiver, relations)
