"""Materialised Auslander-Reiten quivers and DOT/JSON emission.

The ungraded quiver of one cycle class is finite (its vertices are the
class's perfect paths) and periodic under the translation; the graded
quiver is infinite, so only a finite shift window is materialised, with
boundary vertices flagged incomplete.  Arrows are exactly the irreducible
maps read off the AR-triangle middle terms, with valuation (1,1)
throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .algebra import InputError, Path
from .analysis import Analysis
from .orders import CycleDecomposition, HasseQuiver
from .stable import StableObject, ar_translate_inverse, ar_triangle


@dataclass(frozen=True)
class TQVertex:
    path: Path
    shift: int | None
    bracket: tuple[int, int]
    incomplete: bool = False

    @property
    def label(self) -> str:
        i, span = self.bracket
        text = f"[{i},{i + span - 1}]"
        if self.shift is not None:
            text += f"({self.shift})"
        return text

    def key(self):
        return (self.path.sort_key(), -1 if self.shift is None else self.shift)


@dataclass(frozen=True)
class TranslationQuiver:
    """A finite (piece of a) translation quiver.

    ``arrows`` and ``tau`` are index pairs into ``vertices``; ``tau`` maps
    a vertex to its translate when both ends are materialised.
    """

    vertices: tuple[TQVertex, ...]
    arrows: tuple[tuple[int, int], ...]
    tau: tuple[tuple[int, int], ...]
    valuation: str = "(1,1)"
    identification: str | None = None

    def arrow_pairs(self) -> tuple[tuple[TQVertex, TQVertex], ...]:
        return tuple((self.vertices[a], self.vertices[b]) for a, b in self.arrows)

    def tau_pairs(self) -> tuple[tuple[TQVertex, TQVertex], ...]:
        return tuple((self.vertices[a], self.vertices[b]) for a, b in self.tau)


def _build(vertices, arrows, tau, identification=None) -> TranslationQuiver:
    verts = tuple(sorted(vertices, key=TQVertex.key))
    index = {(v.path, v.shift): k for k, v in enumerate(verts)}
    arrow_idx = sorted(
        {(index[(a.path, a.shift)], index[(b.path, b.shift)]) for a, b in arrows}
    )
    tau_idx = sorted(
        {(index[(a.path, a.shift)], index[(b.path, b.shift)]) for a, b in tau}
    )
    return TranslationQuiver(
        vertices=verts,
        arrows=tuple(arrow_idx),
        tau=tuple(tau_idx),
        identification=identification,
    )


def ungraded_ar_quiver(an: Analysis, dec: CycleDecomposition) -> TranslationQuiver:
    """The stable AR quiver of one cycle class: shape ZA_m modulo tau^|c|."""
    vertices = [
        TQVertex(p, None, dec.bracket_of(p)) for p in dec.members
    ]
    arrows = set()
    tau_pairs = set()
    for p in dec.members:
        tri = ar_triangle(an, StableObject(p, 0))
        tau_p = tri.tau_object.path
        tau_pairs.add(((p, None), (tau_p, None)))
        for mid in tri.middles:
            arrows.add(((mid.path, None), (p, None)))
            arrows.add(((tau_p, None), (mid.path, None)))
    keyed = {(v.path, v.shift): v for v in vertices}
    return _build(
        vertices,
        [(keyed[a], keyed[b]) for a, b in arrows],
        [(keyed[a], keyed[b]) for a, b in tau_pairs],
        identification=f"ZA{dec.m} / tau^{dec.size}",
    )


def disjoint_union(quivers: Iterable[TranslationQuiver]) -> TranslationQuiver:
    """One translation quiver holding the given (per-class) pieces."""
    vertices: list[TQVertex] = []
    arrows = []
    tau = []
    notes = []
    for tq in quivers:
        vertices.extend(tq.vertices)
        arrows.extend(tq.arrow_pairs())
        tau.extend(tq.tau_pairs())
        notes.append(tq.identification)
    return _build(vertices, arrows, tau, identification="; ".join(notes) or None)


def full_ungraded_ar_quiver(an: Analysis) -> TranslationQuiver:
    """Disjoint union of the per-class ungraded AR quivers."""
    return disjoint_union(ungraded_ar_quiver(an, dec) for dec in an.decompositions)


def graded_ar_window(
    an: Analysis, dec: CycleDecomposition, shift_lo: int, shift_hi: int
) -> TranslationQuiver:
    """Vertices ``pL(j)`` of one class for ``shift_lo <= j <= shift_hi``.

    A vertex is flagged incomplete when its translate, inverse translate
    or one of its triangle middle terms falls outside the window.
    """
    if shift_hi < shift_lo:
        raise InputError("empty shift window")
    in_window = {
        (p, s) for p in dec.members for s in range(shift_lo, shift_hi + 1)
    }
    vertices = {}
    arrows = []
    tau = []
    for p in dec.members:
        for s in range(shift_lo, shift_hi + 1):
            obj = StableObject(p, s)
            tri = ar_triangle(an, obj)
            inv = ar_translate_inverse(an, obj)
            refs = [tri.tau_object, inv, *tri.middles]
            incomplete = any(
                (r.path, r.shift) not in in_window for r in refs
            )
            vertices[(p, s)] = TQVertex(
                p, s, dec.bracket_of(p), incomplete=incomplete
            )
    for (p, s), vertex in vertices.items():
        tri = ar_triangle(an, StableObject(p, s))
        tp = (tri.tau_object.path, tri.tau_object.shift)
        if tp in in_window:
            tau.append((vertex, vertices[tp]))
        for mid in tri.middles:
            mp = (mid.path, mid.shift)
            if mp in in_window:
                arrows.append((vertices[mp], vertex))
                if tp in in_window:
                    arrows.append((vertices[tp], vertices[mp]))
    return _build(
        vertices.values(),
        arrows,
        tau,
        identification=f"ZA{dec.m} slice, shifts [{shift_lo}, {shift_hi}]",
    )


def _quote(text: str) -> str:
    return '"' + text.replace('"', r"\"") + '"'


def _node_id(v: TQVertex) -> str:
    if v.shift is None:
        return str(v.path)
    return f"{v.path}@{v.shift}"


def translation_quiver_dot(tq: TranslationQuiver) -> str:
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
    for a, b in tq.arrow_pairs():
        lines.append(f"  {_quote(_node_id(a))} -> {_quote(_node_id(b))};")
    for c, tc in tq.tau_pairs():
        lines.append(
            f"  {_quote(_node_id(c))} -> {_quote(_node_id(tc))} "
            f"[style=dashed, dir=none, constraint=false];"
        )
    if tq.identification:
        lines.append(f"  label={_quote(tq.identification)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def translation_quiver_json(tq: TranslationQuiver) -> str:
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
        "arrows": [[_node_id(a), _node_id(b)] for a, b in tq.arrow_pairs()],
        "tau": [[_node_id(a), _node_id(b)] for a, b in tq.tau_pairs()],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def hasse_dot(h: HasseQuiver) -> str:
    lines = [
        "digraph hasse {",
        "  rankdir=LR;",
        "  node [shape=plaintext];",
        f"  label={_quote('order: ' + h.order)};",
    ]
    for v in h.vertices:
        lines.append(f"  {_quote(str(v))};")
    for a, b in h.arrows:
        lines.append(f"  {_quote(str(a))} -> {_quote(str(b))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hasse_json(h: HasseQuiver) -> str:
    data = {
        "kind": "hasse",
        "order": h.order,
        "vertices": [str(v) for v in h.vertices],
        "arrows": [[str(a), str(b)] for a, b in h.arrows],
        "components": [[str(v) for v in chain] for chain in h.components],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def emit(quiver, fmt: str) -> str:
    """Serialize a translation quiver or Hasse quiver as ``dot`` or ``json``."""
    if fmt not in ("dot", "json"):
        raise InputError(f"unknown format {fmt!r}; use 'dot' or 'json'")
    if isinstance(quiver, TranslationQuiver):
        return (
            translation_quiver_dot(quiver)
            if fmt == "dot"
            else translation_quiver_json(quiver)
        )
    if isinstance(quiver, HasseQuiver):
        return hasse_dot(quiver) if fmt == "dot" else hasse_json(quiver)
    raise InputError(f"cannot emit object of type {type(quiver).__name__}")
