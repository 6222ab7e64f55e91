"""Frozen edge sets for the fixture algebra's stable AR quiver, the
triangle-by-triangle builder that ``ar_quiver`` replaced, and the DOT and
JSON writers that ``translation_quiver_dot`` and
``translation_quiver_json`` replaced.

Vertices of the edge sets are written as underlying paths rather than
bracket labels so the comparison does not depend on the rotation anchor of
the cycle.  ``quiver_from_triangles`` is the former ``ar_quiver``: it
builds every vertex's AR triangle and keys each named object through
``Analysis.locate``.  The triangles come from the path-keyed
``reference_stable.ar_triangle``, which does not read
``CycleDecomposition.mesh``, so the coordinate builder is checked against
an independent statement of the AR rule rather than against itself.
``dot_from_pairs`` is the former DOT writer kept verbatim, vertex ids
recomputed at every arrow end and one scan of the vertices per rank.
``json_from_pairs`` is the former JSON writer: one dict of the whole
document, written by ``json.dumps(indent=2, sort_keys=True)``;
``hasse_from_dict`` is the same for the Hasse-quiver document that
``hasse_json`` writes row by row.
``vertex_pairs`` turns the index pairs of ``arrows`` or ``tau`` into
vertex pairs.
"""

from __future__ import annotations

import json
from typing import Iterable

from gpstable.algebra import InputError
from gpstable.analysis import Analysis
from gpstable.arquiver import TQVertex, TranslationQuiver
from gpstable.orders import CycleDecomposition, HasseQuiver
from gpstable.stable import StableObject
from reference_stable import ar_triangle

THREE_CYCLE_ARROWS = {
    ("a1.a2.a3.a1.a2.a3", "a1.a2.a3.a1.a2"),
    ("a1.a2.a3.a1.a2", "a1.a2.a3"),
    ("a1.a2.a3.a1.a2", "a3.a1.a2.a3.a1.a2"),
    ("a1.a2.a3", "a1.a2"),
    ("a1.a2.a3", "a3.a1.a2.a3"),
    ("a1.a2", "a3.a1.a2"),
    ("a3.a1.a2.a3.a1.a2", "a3.a1.a2.a3"),
    ("a3.a1.a2.a3", "a3.a1.a2"),
    ("a3.a1.a2.a3", "a1.a2.a3.a1.a2.a3"),
    ("a3.a1.a2", "a3"),
    ("a3.a1.a2", "a1.a2.a3.a1.a2"),
    ("a3", "a1.a2.a3"),
}

THREE_CYCLE_TAU = {
    ("a1.a2.a3.a1.a2.a3", "a3.a1.a2.a3.a1.a2"),
    ("a3.a1.a2.a3.a1.a2", "a1.a2.a3.a1.a2.a3"),
    ("a1.a2.a3.a1.a2", "a3.a1.a2.a3"),
    ("a3.a1.a2.a3", "a1.a2.a3.a1.a2"),
    ("a1.a2.a3", "a3.a1.a2"),
    ("a3.a1.a2", "a1.a2.a3"),
    ("a1.a2", "a3"),
    ("a3", "a1.a2"),
}

TWO_CYCLE_ARROWS = {
    ("a4.a5.a4.a5.a4.a5", "a4.a5.a4.a5"),
    ("a4.a5.a4.a5", "a4.a5"),
    ("a4.a5.a4.a5", "a4.a5.a4.a5.a4.a5"),
    ("a4.a5", "a4.a5.a4.a5"),
}


def quiver_from_triangles(
    an: Analysis, pieces: Iterable[tuple[CycleDecomposition, range | None]]
) -> TranslationQuiver:
    """The translation quiver of the given ``(decomposition, shifts)`` pieces.

    Shifts ``None`` give the ungraded quiver of the class, ZA_m modulo
    tau^|c|; a range gives its graded vertices ``pL(j)``, j in the range,
    flagged incomplete when the translate, the inverse translate (the vertex
    whose triangle names this one as its translate) or a middle term falls
    outside.  Every object a triangle names lies in the same class, so a
    vertex is keyed by (piece, bracket, shift), read off ``an.locate``.
    """
    rows, arrows, tau, outside, notes = [], set(), set(), set(), []
    for k, (dec, shifts) in enumerate(pieces):
        graded = shifts is not None
        if graded and not shifts:
            raise InputError("empty shift window")
        notes.append(
            f"ZA{dec.m} slice, shifts [{shifts[0]}, {shifts[-1]}]"
            if graded
            else f"ZA{dec.m} / tau^{dec.size}"
        )

        def key(obj: StableObject):
            """The vertex of ``obj``; None when it falls outside the window."""
            if graded and obj.shift not in shifts:
                return None
            return (k, *an.locate(obj.path)[1:], obj.shift if graded else None)

        for p in dec.members:
            for s in shifts if graded else (0,):
                tri = ar_triangle(an, StableObject(p, s))
                v, tv = key(tri.target), key(tri.tau_object)
                mids = [key(mid) for mid in tri.middles]
                rows.append((p, v))
                if tv is None or None in mids:
                    outside.add(v)
                if tv is not None:
                    tau.add((v, tv))
                for mid in mids:
                    if mid is not None:
                        arrows.add((mid, v))
                        if tv is not None:
                            arrows.add((tv, mid))
    tau_targets = {tv for _, tv in tau}
    rows = sorted(
        (
            (TQVertex(p, v[3], v[1:3], v in outside or v not in tau_targets), v)
            for p, v in rows
        ),
        key=lambda row: (row[0].path.sort_key(), -1 if row[0].shift is None else row[0].shift),
    )
    index = {v: n for n, (_, v) in enumerate(rows)}
    return TranslationQuiver(
        vertices=tuple(vertex for vertex, _ in rows),
        arrows=tuple(sorted((index[a], index[b]) for a, b in arrows)),
        tau=tuple(sorted((index[a], index[b]) for a, b in tau)),
        identification="; ".join(notes) or None,
    )


def vertex_pairs(
    tq: TranslationQuiver, pairs: Iterable[tuple[int, int]]
) -> list[tuple[TQVertex, TQVertex]]:
    """The vertices at both ends of each index pair of ``tq.arrows`` or
    ``tq.tau``."""
    return [(tq.vertices[a], tq.vertices[b]) for a, b in pairs]


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def _node_id(v: TQVertex) -> str:
    if v.shift is None:
        return str(v.path)
    return f"{v.path}@{v.shift}"


def dot_from_pairs(tq: TranslationQuiver) -> str:
    """Graphviz rendering: solid irreducible maps, dashed undirected
    tau-edges, vertices ranked by bracket span."""
    lines = ["digraph ar_quiver {", "  rankdir=LR;", "  node [shape=box];"]
    for v in tq.vertices:
        attrs = [f"label={_quote(v.label)}", f"path={_quote(str(v.path))}"]
        if v.incomplete:
            attrs.append("style=dotted")
        lines.append(f"  {_quote(_node_id(v))} [{', '.join(attrs)}];")
    spans = sorted({v.bracket[1] for v in tq.vertices})
    for span in spans:
        group = [v for v in tq.vertices if v.bracket[1] == span]
        ids = " ".join(_quote(_node_id(v)) for v in group)
        lines.append(f"  {{ rank=same; {ids} }}")
    for a, b in vertex_pairs(tq, tq.arrows):
        lines.append(f"  {_quote(_node_id(a))} -> {_quote(_node_id(b))};")
    for c, tc in vertex_pairs(tq, tq.tau):
        lines.append(
            f"  {_quote(_node_id(c))} -> {_quote(_node_id(tc))} "
            f"[style=dashed, dir=none, constraint=false];"
        )
    if tq.identification:
        lines.append(f"  label={_quote(tq.identification)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_from_pairs(tq: TranslationQuiver) -> str:
    """The ``--json`` document of a translation quiver, built as one dict."""
    ids = [_node_id(v) for v in tq.vertices]
    data = {
        "kind": "ar_quiver",
        "valuation": tq.valuation,
        "identification": tq.identification,
        "vertices": [
            {
                "path": str(v.path),
                "shift": v.shift,
                "bracket": list(v.bracket),
                "incomplete": v.incomplete,
            }
            for v in tq.vertices
        ],
        "arrows": [[ids[a], ids[b]] for a, b in tq.arrows],
        "tau": [[ids[a], ids[b]] for a, b in tq.tau],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def hasse_from_dict(h: HasseQuiver) -> str:
    """The ``--json`` document of a Hasse quiver, built as one dict."""
    data = {
        "kind": "hasse",
        "order": h.order,
        "vertices": [str(v) for v in h.vertices],
        "arrows": [[str(a), str(b)] for a, b in h.arrows],
        "components": [[str(v) for v in chain] for chain in h.components],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
