"""Frozen edge sets for the fixture algebra's stable AR quiver, and the
triangle-by-triangle builder that ``ar_quiver`` replaced.

Vertices of the edge sets are written as underlying paths rather than
bracket labels so the comparison does not depend on the rotation anchor of
the cycle.  ``quiver_from_triangles`` is the former ``ar_quiver`` kept
verbatim: it builds every vertex's ``ar_triangle`` and keys each named
object through ``Analysis.locate``, so the coordinate builder is checked
against the triangles themselves.
"""

from __future__ import annotations

from typing import Iterable

from gpstable.algebra import InputError
from gpstable.analysis import Analysis
from gpstable.arquiver import TQVertex, TranslationQuiver
from gpstable.orders import CycleDecomposition
from gpstable.stable import StableObject, ar_triangle

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
        key=lambda row: row[0].key(),
    )
    index = {v: n for n, (_, v) in enumerate(rows)}
    return TranslationQuiver(
        vertices=tuple(vertex for vertex, _ in rows),
        arrows=tuple(sorted((index[a], index[b]) for a, b in arrows)),
        tau=tuple(sorted((index[a], index[b]) for a, b in tau)),
        identification="; ".join(notes) or None,
    )
