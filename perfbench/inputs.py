"""Seeded input documents for the benchmark, with their expected invariants.

Nothing here imports gpstable.  Every expected value is derived from the
construction of the document, never from the program's output:

* A *planted cycle* is a primitive cycle of the quiver cut into ``n``
  factors of the given arrow lengths, whose relations are exactly the
  windows of ``m + 1`` consecutive factors.  Its co-elementary factors are
  the cut pieces, so the cycle carries one class with ``|c| = n``,
  ``l(c) = sum of the lengths`` and ``m_c = m``, and ``n * m`` perfect paths
  (the windows of 1..m consecutive factors).  With every factor of length 1
  the cycle is Nakayama-type: every path of length m + 1 around it is zero.
* Bridge arrows join cycle k to cycle k + 1 only, so they form no cycle;
  tails are chains of fresh vertices.  Neither bridges nor tails occur in a
  relation, so they add non-zero paths but no perfect path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class PlantedCycle:
    factor_lengths: tuple[int, ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.factor_lengths)

    @property
    def length(self) -> int:
        return sum(self.factor_lengths)


@dataclass(frozen=True)
class Shape:
    """Size parameters of one planted algebra.

    Bridges and tails attach at the start of factor 0, so the structure,
    and with it the cost of an operation, is fixed by the shape; the seed
    picks only names and the order of every list in the document."""

    cycles: tuple[PlantedCycle, ...]
    tails: tuple[tuple[int, str, int], ...] = ()  # (cycle index, "in"/"out", length)


@dataclass
class Expected:
    """Invariants the construction guarantees.

    ``classes`` holds one ``(cycle arrows in order, n, l(c), m)`` per planted
    cycle; ``basis_size`` counts the non-zero paths, trivial ones included.
    """

    classes: list[tuple[tuple[str, ...], int, int, int]]
    basis_size: int
    arrow_map: dict[str, str] = field(default_factory=dict)

    @property
    def perfect_count(self) -> int:
        return sum(n * m for _, n, _, m in self.classes)


class Labeler:
    """Fixed-width fresh names, drawn in a seeded order, so a relabeling
    changes no string length."""

    def __init__(self, rng: random.Random, prefix: str, count: int = 900):
        self.names = [f"{prefix}{k}" for k in range(100, 100 + count)]
        rng.shuffle(self.names)

    def take(self) -> str:
        return self.names.pop()


def planted_document(rng: random.Random, shape: Shape) -> tuple[dict, Expected]:
    vlab = Labeler(rng, "v")
    alab = Labeler(rng, "a")
    vertices: list[str] = []
    arrows: list[dict] = []
    relations: list[list[str]] = []
    classes = []
    anchors: list[str] = []  # the start of factor 0 on each cycle

    def arrow(src: str, dst: str) -> str:
        aid = alab.take()
        arrows.append({"id": aid, "from": src, "to": dst})
        return aid

    for cyc in shape.cycles:
        verts = [vlab.take() for _ in range(cyc.length)]
        vertices.extend(verts)
        ring = [arrow(verts[k], verts[(k + 1) % len(verts)]) for k in range(len(verts))]
        factors, pos = [], 0
        for ln in cyc.factor_lengths:
            factors.append(ring[pos : pos + ln])
            pos += ln
        for i in range(cyc.n):
            relations.append(
                [a for t in range(cyc.m + 1) for a in factors[(i + t) % cyc.n]]
            )
        classes.append((tuple(ring), cyc.n, cyc.length, cyc.m))
        anchors.append(verts[0])

    for k in range(len(anchors) - 1):
        arrow(anchors[k], anchors[k + 1])

    for idx, direction, length in shape.tails:
        chain = [vlab.take() for _ in range(length)]
        vertices.extend(chain)
        walk = [anchors[idx], *chain] if direction == "out" else [*chain, anchors[idx]]
        for a, b in zip(walk, walk[1:]):
            arrow(a, b)

    rng.shuffle(vertices)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    doc = {"vertices": vertices, "arrows": arrows, "relations": relations}
    return doc, Expected(classes, count_nonzero_paths(doc))


def wide_tail_document(
    rng: random.Random, k: int, w: int, n: int, m: int
) -> tuple[dict, Expected]:
    """W(k, w; n, m): a chain of k + 1 vertices with w parallel arrows per
    step, beside (not joined to) the Nakayama cycle N(n, m)."""
    vlab = Labeler(rng, "v")
    alab = Labeler(rng, "a")
    chain = [vlab.take() for _ in range(k + 1)]
    arrows = [
        {"id": alab.take(), "from": chain[s], "to": chain[s + 1]}
        for s in range(k)
        for _ in range(w)
    ]
    ring_v = [vlab.take() for _ in range(n)]
    ring = [alab.take() for _ in range(n)]
    arrows += [
        {"id": ring[t], "from": ring_v[t], "to": ring_v[(t + 1) % n]}
        for t in range(n)
    ]
    relations = [[ring[(i + t) % n] for t in range(m + 1)] for i in range(n)]
    vertices = chain + ring_v
    rng.shuffle(vertices)
    rng.shuffle(arrows)
    rng.shuffle(relations)
    doc = {"vertices": vertices, "arrows": arrows, "relations": relations}
    basis = sum((k + 1 - d) * w**d for d in range(k + 1)) + n * (m + 1)
    return doc, Expected([(tuple(ring), n, n, m)], basis)


def lambda_star_document() -> tuple[dict, Expected]:
    """The reference algebra of the package's documentation, written out
    here so the benchmark does not take it from the program.  Its classes
    are (|c|, l(c), m_c) = (2, 3, 4) around a1.a2.a3 and (1, 2, 3) around
    a4.a5."""
    doc = {
        "vertices": ["1", "2", "3", "4", "5"],
        "arrows": [
            {"id": "a1", "from": "1", "to": "2"},
            {"id": "a2", "from": "2", "to": "3"},
            {"id": "a3", "from": "3", "to": "1"},
            {"id": "b2", "from": "2", "to": "4"},
            {"id": "a4", "from": "4", "to": "5"},
            {"id": "a5", "from": "5", "to": "4"},
        ],
        "relations": [
            ["a1", "a2", "a3", "a1", "a2", "a3", "a1", "a2"],
            ["a3", "a1", "a2", "a3", "a1", "a2", "a3"],
            ["a4", "a5", "a4", "a5", "a4", "a5", "a4", "a5"],
        ],
    }
    classes = [(("a1", "a2", "a3"), 2, 3, 4), (("a4", "a5"), 1, 2, 3)]
    return doc, Expected(classes, count_nonzero_paths(doc))


def relabel(rng: random.Random, doc: dict, expected: Expected) -> tuple[dict, Expected]:
    """The same algebra under fresh vertex and arrow names, every list
    shuffled.  ``arrow_map`` of the result maps old arrow ids to new ones."""
    vlab = Labeler(rng, "w")
    alab = Labeler(rng, "b")
    vmap = {v: vlab.take() for v in doc["vertices"]}
    amap = {a["id"]: alab.take() for a in doc["arrows"]}
    new = {
        "vertices": [vmap[v] for v in doc["vertices"]],
        "arrows": [
            {"id": amap[a["id"]], "from": vmap[a["from"]], "to": vmap[a["to"]]}
            for a in doc["arrows"]
        ],
        "relations": [[amap[a] for a in r] for r in doc["relations"]],
    }
    for key in ("vertices", "arrows", "relations"):
        rng.shuffle(new[key])
    classes = [
        (tuple(amap[a] for a in ring), n, ln, m)
        for ring, n, ln, m in expected.classes
    ]
    return new, Expected(classes, expected.basis_size, amap)


def count_nonzero_paths(doc: dict) -> int:
    """Size of the path basis by depth-first search with a plain factor
    test; the document must be admissible (the planted ones are)."""
    out: dict[str, list[tuple[str, str]]] = {v: [] for v in doc["vertices"]}
    for a in doc["arrows"]:
        out[a["from"]].append((a["id"], a["to"]))
    relations = {tuple(r) for r in doc["relations"]}
    longest = max((len(r) for r in relations), default=0)
    total = 0
    stack: list[tuple[str, tuple[str, ...]]] = [(v, ()) for v in doc["vertices"]]
    while stack:
        vertex, arrows = stack.pop()
        total += 1
        for aid, dst in out[vertex]:
            ext = arrows + (aid,)
            if any(ext[-ln:] in relations for ln in range(2, min(longest, len(ext)) + 1)):
                continue
            stack.append((dst, ext))
    return total


def canonical_cycle(arrows) -> tuple[str, ...]:
    """The smallest rotation of a cycle's arrow sequence."""
    arrows = tuple(arrows)
    return min(arrows[s:] + arrows[:s] for s in range(len(arrows)))
