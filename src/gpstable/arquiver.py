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
from .stable import StableObject, ar_triangle


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


def ar_quiver(
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
        key=lambda row: row[0].key(),
    )
    index = {v: n for n, (_, v) in enumerate(rows)}
    return TranslationQuiver(
        vertices=tuple(vertex for vertex, _ in rows),
        arrows=tuple(sorted((index[a], index[b]) for a, b in arrows)),
        tau=tuple(sorted((index[a], index[b]) for a, b in tau)),
        identification="; ".join(notes) or None,
    )


def ungraded_ar_quiver(an: Analysis, dec: CycleDecomposition) -> TranslationQuiver:
    """The stable AR quiver of one cycle class: shape ZA_m modulo tau^|c|."""
    return ar_quiver(an, [(dec, None)])


def full_ungraded_ar_quiver(an: Analysis) -> TranslationQuiver:
    """Disjoint union of the per-class ungraded AR quivers."""
    return ar_quiver(an, [(dec, None) for dec in an.decompositions])


def graded_ar_window(
    an: Analysis, dec: CycleDecomposition, shift_lo: int, shift_hi: int
) -> TranslationQuiver:
    """Vertices ``pL(j)`` of one class for ``shift_lo <= j <= shift_hi``."""
    return ar_quiver(an, [(dec, range(shift_lo, shift_hi + 1))])


def dump_json(data) -> str:
    """The one JSON serializer of every ``--json`` output: two-space
    indent, sorted keys, a closing newline."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
    return dump_json(data)


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
    return dump_json(data)


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
