"""Materialised Auslander-Reiten quivers and DOT/JSON emission.

The ungraded quiver of one cycle class is finite (its vertices are the
class's perfect paths) and periodic under the translation; the graded
quiver is infinite, so only a finite shift window is materialised, with
boundary vertices flagged incomplete.  Both are written down on the
bracket grid of the class, ZA_m modulo tau^|c| (or its graded cover),
with no stable object built: :meth:`CycleDecomposition.mesh`, the one
statement of the AR rule, names each vertex's translate and middle terms
by coordinates, and the arrows are exactly the irreducible maps from
each vertex's middle terms into it, with valuation (1,1) throughout.

Each kind has its own builder, and both read ``mesh``.  The ungraded one
(:func:`ungraded_ar_quiver`, :func:`full_ungraded_ar_quiver`) has one
complete vertex per perfect path, numbered in position order, so its
translates and arrows are id look-ups, with no vertex sort and no
completeness flags; the graded one (:func:`ar_quiver`) lays a shift window over each
vertex, flags the window's boundary and sorts the vertices by (position,
shift).  Run through the graded machinery with one shift, the ungraded
quiver took about twice as long (see :func:`ar_quiver`).
``tests/reference_ar.py`` keeps a builder that reads every vertex's AR
triangle off the path-keyed reference closed forms, and both agree with
it on every tested algebra.

Every ``--json`` document has the bytes of ``json.dumps(data, indent=2,
sort_keys=True)``, and :func:`dump_json` is that call.  The two quiver
documents are written row by row instead: with ``indent``, ``json.dumps``
runs the pure-Python encoder, which is slow on the AR-quiver document (the
one large output, :func:`translation_quiver_json`) and leaves a reference
cycle of closures per call that only the cyclic collector frees
(``tests/test_cyclic_garbage.py`` emits both quivers).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Iterable, NamedTuple, Sequence

from .algebra import InputError, Path
from .analysis import Analysis
from .orders import CycleDecomposition, HasseQuiver


class TQVertex(NamedTuple):
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


class TranslationQuiver(NamedTuple):
    """A finite (piece of a) translation quiver.

    ``arrows`` and ``tau`` are index pairs into ``vertices``; ``tau`` maps
    a vertex to its translate when both ends are materialised.
    """

    vertices: tuple[TQVertex, ...]
    arrows: tuple[tuple[int, int], ...]
    tau: tuple[tuple[int, int], ...]
    valuation: str = "(1,1)"
    identification: str | None = None


def ar_quiver(
    pieces: Iterable[tuple[CycleDecomposition, range]],
) -> TranslationQuiver:
    """The graded translation quiver of the given ``(decomposition, shifts)``
    pieces: the vertices ``pL(j)`` of each class, j in its shift range.

    A vertex is an integer id, numbered in grid order: piece k's vertex
    [i, span] at the x-th shift of its window of width w is base_k +
    ((i-1)·m + span-1)·w + x, where base_k counts the vertices of the
    earlier pieces.  :meth:`CycleDecomposition.mesh` names its translate
    and middle terms by coordinates and drops, so each is an id offset.
    Its arrows in are those from its middle terms; an arrow out of it ends
    at a vertex whose mesh names it, so each arrow is read once.  A vertex
    is flagged incomplete when its translate or a middle term, or its
    inverse translate (the vertex whose mesh names this one as its
    translate), falls outside the window.  Each vertex's sort key is the
    pair (position, shift), packed into one int: the position of its path
    ``windows[i-1][span-1]`` in ``PerfectPathSet.paths``, which the row
    keeps and which is its ``Path.sort_key`` rank, and the shift.  The ids
    are sorted by it, and the arrows and translates reach the sorted order
    through one position per id.  Until the sort, each field of the
    vertices is kept in a list of its own, so a vertex allocates one tuple,
    not three.

    The ungraded quiver has a builder of its own (see the module
    docstring): given one shift per vertex, this one still pays for the
    window, the flags and the sort, about 230 µs against 120 µs per
    document of the seed-1 ``classify-cycles`` workload (Python 3.11.7 on
    a shared 2-core Xeon VM, both reading the same ``mesh``).
    """
    pieces = list(pieces)
    # the key (position, shift) packed into one int: position·reach + shift - lo
    ends = [j for _, shifts in pieces if shifts for j in (shifts[0], shifts[-1])]
    lo = min(ends, default=0)
    reach = max(ends, default=0) - lo + 1
    paths, js, brackets, keys, translate, inside = [], [], [], [], [], []
    arrows, notes = [], []
    for dec, shifts in pieces:
        if not shifts:
            raise InputError("empty shift window")
        notes.append(f"ZA{dec.m} slice, shifts [{shifts[0]}, {shifts[-1]}]")
        width = len(shifts)
        stride = dec.m * width
        # [i, span] at shift index x has id base + i·stride + span·width + x
        base = len(paths) - stride - width
        for i, row in enumerate(dec.windows, 1):
            for span, (p, position) in enumerate(zip(row, row.positions), 1):
                (ti, tspan, tdrop), middles = dec.mesh(i, span)
                # each term's id at x = drop, and its drop
                t = base + ti * stride + tspan * width - tdrop
                mids = [
                    (base + mi * stride + mspan * width - d, d)
                    for mi, mspan, d in middles
                ]
                bracket = (i, span)
                key = position * reach - lo
                for x, j in enumerate(shifts):
                    v = len(paths)
                    paths.append(p)
                    js.append(j)
                    brackets.append(bracket)
                    keys.append(key + j)
                    complete = x >= tdrop
                    translate.append(t + x if complete else None)
                    for mid, drop in mids:
                        if x < drop:
                            complete = False
                        else:
                            arrows.append((mid + x, v))
                    inside.append(complete)
    # a vertex no mesh names as its translate lacks its inverse translate
    targeted = bytearray(len(paths))
    for tv in translate:
        if tv is not None:
            targeted[tv] = 1
    order = sorted(range(len(paths)), key=keys.__getitem__)
    position = [0] * len(paths)
    for n, v in enumerate(order):
        position[v] = n
    return TranslationQuiver(
        vertices=tuple([
            TQVertex(paths[v], js[v], brackets[v], not (inside[v] and targeted[v]))
            for v in order
        ]),
        arrows=tuple(sorted([(position[a], position[b]) for a, b in arrows])),
        # one translate per vertex, so these pairs come sorted
        tau=tuple([
            (n, position[translate[v]])
            for n, v in enumerate(order)
            if translate[v] is not None
        ]),
        identification="; ".join(notes) or None,
    )


def _ungraded_quiver(
    decs: Sequence[CycleDecomposition], ids: dict[int, int] | None
) -> TranslationQuiver:
    """The ungraded quiver of the given classes, ZA_m modulo tau^|c| each.

    Vertex n is the n-th of the classes' members in position order: ``ids``
    maps a member's position in ``PerfectPathSet.paths`` to its id, and
    None stands for the identity, when the classes are all of an
    analysis's, whose members' positions cover 0..P-1.  One
    :meth:`CycleDecomposition.mesh` call per vertex names its translate
    and middle terms by coordinates, each an id look-up in the class's
    grid of ids, and an arrow runs from each middle term into the vertex;
    the arrows come in target order and are sorted once.  The drops are
    not read: every vertex is complete.
    """
    count = sum([len(dec.members) for dec in decs])
    vertices: list = [None] * count
    tau: list = [None] * count
    arrows, notes = [], []
    for dec in decs:
        notes.append(f"ZA{dec.m} / tau^{dec.size}")
        grid = [
            row.positions if ids is None else [ids[x] for x in row.positions]
            for row in dec.windows
        ]
        for i, (row, vs) in enumerate(zip(dec.windows, grid), 1):
            for span, (p, v) in enumerate(zip(row, vs), 1):
                (ti, tspan, _), middles = dec.mesh(i, span)
                vertices[v] = TQVertex(p, None, (i, span))
                tau[v] = (v, grid[ti - 1][tspan - 1])
                for mi, mspan, _ in middles:
                    arrows.append((grid[mi - 1][mspan - 1], v))
    arrows.sort()
    return TranslationQuiver(
        vertices=tuple(vertices),
        arrows=tuple(arrows),
        tau=tuple(tau),
        identification="; ".join(notes) or None,
    )


def ungraded_ar_quiver(an: Analysis, dec: CycleDecomposition) -> TranslationQuiver:
    """The stable AR quiver of one cycle class: shape ZA_m modulo tau^|c|."""
    return _ungraded_quiver([dec], {x: n for n, x in enumerate(dec.members.positions)})


def full_ungraded_ar_quiver(an: Analysis) -> TranslationQuiver:
    """Disjoint union of the per-class ungraded AR quivers."""
    return _ungraded_quiver(an.decompositions, None)


def graded_ar_window(
    an: Analysis, dec: CycleDecomposition, shift_lo: int, shift_hi: int
) -> TranslationQuiver:
    """Vertices ``pL(j)`` of one class for ``shift_lo <= j <= shift_hi``."""
    return ar_quiver([(dec, range(shift_lo, shift_hi + 1))])


def dump_json(data) -> str:
    """The JSON text of every ``--json`` output but the two quivers': two-space
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
    ids = [_quote(_node_id(v)) for v in tq.vertices]
    ranks: dict[int, list[str]] = {}
    for v, vid in zip(tq.vertices, ids):
        attrs = [f"label={_quote(v.label)}", f"path={_quote(str(v.path))}"]
        if v.incomplete:
            attrs.append("style=dotted")
        lines.append(f"  {vid} [{', '.join(attrs)}];")
        ranks.setdefault(v.bracket[1], []).append(vid)
    for span in sorted(ranks):
        lines.append(f"  {{ rank=same; {' '.join(ranks[span])} }}")
    lines += [f"  {ids[a]} -> {ids[b]};" for a, b in tq.arrows]
    lines += [
        f"  {ids[a]} -> {ids[b]} [style=dashed, dir=none, constraint=false];"
        for a, b in tq.tau
    ]
    if tq.identification:
        lines.append(f"  label={_quote(tq.identification)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def translation_quiver_json(tq: TranslationQuiver) -> str:
    """The bytes :func:`dump_json` would write for the quiver's dict (kept as
    ``json_from_pairs`` in ``tests/reference_ar.py``), written row by row:
    keys in sorted order, one template per vertex record and per pair, each
    vertex id encoded once.  An ungraded vertex's id is its path."""
    ids = [_encode_str(_node_id(v)) for v in tq.vertices]
    ident = "null" if tq.identification is None else _encode_str(tq.identification)
    out = ['{\n  "arrows": ']
    _write_pairs(tq.arrows, ids, out)
    out.append(f',\n  "identification": {ident},\n  "kind": "ar_quiver",\n  "tau": ')
    _write_pairs(tq.tau, ids, out)
    out.append(f',\n  "valuation": {_encode_str(tq.valuation)},\n  "vertices": [')
    sep = "\n    {"
    for v, vid in zip(tq.vertices, ids):
        i, span = v.bracket
        path = vid if v.shift is None else _encode_str(str(v.path))
        shift = "null" if v.shift is None else v.shift
        out.append(
            f'{sep}\n      "bracket": [\n        {i},\n        {span}\n      ],'
            f'\n      "incomplete": {"true" if v.incomplete else "false"},'
            f'\n      "path": {path},\n      "shift": {shift}\n    }}'
        )
        sep = ",\n    {"
    out.append("\n  ]\n}\n" if tq.vertices else "]\n}\n")
    return "".join(out)


def _write_pairs(pairs, ids: list[str], out: list[str]) -> None:
    """Append the list of ``[id, id]`` pairs at the document's second level."""
    sep = "[\n    [\n      "
    for a, b in pairs:
        out.append(f"{sep}{ids[a]},\n      {ids[b]}\n    ]")
        sep = ",\n    [\n      "
    out.append("\n  ]" if pairs else "[]")


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
    """The bytes :func:`dump_json` would write for the Hasse quiver's dict
    (kept as ``hasse_from_dict`` in ``tests/reference_ar.py``), written row
    by row like :func:`translation_quiver_json`."""
    out = ['{\n  "arrows": ']
    _write_rows(h.arrows, out)
    out.append(',\n  "components": ')
    _write_rows(h.components, out)
    vertices = ",\n    ".join([_encode_str(str(v)) for v in h.vertices])
    vertices = f"[\n    {vertices}\n  ]" if h.vertices else "[]"
    out.append(f',\n  "kind": "hasse",\n  "order": {_encode_str(h.order)},')
    out.append(f'\n  "vertices": {vertices}\n}}\n')
    return "".join(out)


def _write_rows(rows, out: list[str]) -> None:
    """Append a list of non-empty path lists at the document's second level."""
    sep = "[\n    "
    for row in rows:
        items = ",\n      ".join([_encode_str(str(p)) for p in row])
        out.append(f"{sep}[\n      {items}\n    ]")
        sep = ",\n    "
    out.append("\n  ]" if rows else "[]")


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
