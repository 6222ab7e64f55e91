"""The CLI's exit contract on mutated input documents (ROADMAP P).

``cli.main`` runs in process on a fixture document with one mutation and
on argv drawn from every subcommand and its options.  Whatever the input,
no exception escapes; exit 1 writes one stderr line starting ``error:``;
exit 0 with ``--json`` writes one document that ``json.loads`` accepts
without reading ``NaN`` or ``Infinity``; exit 3 (a broken internal
guarantee) never happens, and neither does exit 2 (a failed battery row):
a document that parses is a valid algebra, and the battery passes on
every valid algebra.  Drawn values are bounded (``--window`` <= 50,
``--random`` <= 2), so no example allocates without bound.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from gpstable import analyze
from gpstable.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCUMENTS = {f.name: json.loads(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))}
PERFECT = {name: [str(p) for p in analyze(doc).perfect.paths] for name, doc in DOCUMENTS.items()}
HOLE = "\x00hole\x00"  # stands in the dumped text for text json.dumps cannot write

# ids, among them strings that break one (empty, outer or inner white
# space, a dot, a backslash), and the values a node may be swapped for
IDS = st.one_of(
    st.sampled_from(["zz", "", " a1", "a.b", "a\\b", "v\n1", "a\tb", "é"]),
    st.text(max_size=4),
)
SWAPS = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 7, 2.5, [], ["a1"], {}, {"id": "a1"}]), IDS
)
MUTATIONS = (
    "none", "swap", "delete", "huge", "nan", "nest", "duplicate",
    "unknown-arrow", "not-a-path", "free-cycle", "rename-arrow",
)


def nodes(value, at=()):
    """The key path of every node of a JSON value, the root first."""
    yield at
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, (*at, key))
    elif isinstance(value, list):
        for key, child in enumerate(value):
            yield from nodes(child, (*at, key))


def get(doc, at):
    """The node at key path ``at``."""
    for key in at:
        doc = doc[key]
    return doc


def put(doc, at, value):
    """``doc`` with the node at key path ``at`` replaced by ``value``."""
    if not at:
        return value
    get(doc, at[:-1])[at[-1]] = value
    return doc


@st.composite
def documents(draw):
    """(name of the fixture, mutation, document text)."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = copy.deepcopy(DOCUMENTS[name])
    kind = draw(st.sampled_from(MUTATIONS))
    arrows = [a["id"] for a in doc["arrows"]]
    raw = ""  # the text in place of HOLE
    if kind in ("swap", "huge", "nan", "nest"):
        at = draw(st.sampled_from(list(nodes(doc))))
        value = HOLE
        if kind == "swap":
            value = draw(SWAPS)
        elif kind == "huge":  # past the 4300 digits of the int conversion limit too
            raw = "9" * draw(st.integers(20, 6000))
        elif kind == "nan":
            value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        else:
            depth = draw(st.integers(1, 100_000))
            raw = "[" * depth + "]" * depth
        doc = put(doc, at, value)
    elif kind == "delete":
        objects = [at for at in nodes(doc) if isinstance(get(doc, at), dict)]
        node = get(doc, draw(st.sampled_from(objects)))
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "duplicate":
        key = draw(st.sampled_from(["vertices", "arrows"]))
        doc[key].append(copy.deepcopy(draw(st.sampled_from(doc[key]))))
    elif kind == "unknown-arrow":
        if doc["relations"]:
            relation = draw(st.sampled_from(doc["relations"]))
            relation[draw(st.integers(0, len(relation) - 1))] = "zz"
        else:
            doc["relations"].append(["zz", "zz"])
    elif kind == "not-a-path":
        ends = {a["id"]: (a["from"], a["to"]) for a in doc["arrows"]}
        apart = [[a, b] for a in arrows for b in arrows if ends[a][1] != ends[b][0]]
        doc["relations"].append(draw(st.sampled_from(apart + [[], [arrows[0]]])))
    elif kind == "free-cycle":
        vertex = draw(st.sampled_from(doc["vertices"]))
        doc["arrows"].append({"id": draw(IDS), "from": vertex, "to": vertex})
    elif kind == "rename-arrow":  # in the arrow list and every relation
        old, new = draw(st.sampled_from(arrows)), draw(IDS)
        doc["arrows"][arrows.index(old)]["id"] = new
        doc["relations"] = [[new if a == old else a for a in r] for r in doc["relations"]]
    return name, kind, json.dumps(doc).replace(json.dumps(HOLE), raw)


@st.composite
def arguments(draw, name):
    """argv after the subcommand and before the file, for any subcommand."""
    arrows = [a["id"] for a in DOCUMENTS[name]["arrows"]]
    command = draw(st.sampled_from(["analyze", "hasse", "classify", "hom", "ar-quiver", "verify"]))
    argv = [command]
    if command == "hasse" and draw(st.booleans()):
        argv.append(f"--order={draw(st.sampled_from(['prec', 'leq']))}")
    if command == "hom":
        words = st.lists(st.sampled_from([*arrows, "zz", ""]), min_size=1, max_size=6).map(".".join)
        if PERFECT[name]:
            words = st.one_of(st.sampled_from(PERFECT[name]), words)
        argv += [f"--from={draw(words)}", f"--to={draw(words)}"]
        if draw(st.booleans()):
            argv.append("--graded")
        if draw(st.booleans()):
            argv.append(f"--shift={draw(st.integers(-50, 50))}")
    if command == "ar-quiver":
        if draw(st.booleans()):
            argv.append("--graded")
        if draw(st.booleans()):
            argv.append(f"--window={draw(st.integers(-3, 50))}")
    if command == "verify":
        argv += [f"--seed={draw(st.integers(0, 10**6))}", f"--random={draw(st.integers(-1, 2))}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _no_constant(name):
    raise ValueError(f"{name} in the output")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_exit_contract(data):
    name, kind, text = data.draw(documents(), label="document")
    argv = data.draw(arguments(name), label="argv")
    output = data.draw(st.sampled_from([None, "out.txt", "missing/out.txt"]), label="output")
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(text, encoding="utf-8")
        argv = [*argv, str(doc)]
        if output:
            argv.append(f"--output={Path(tmp) / output}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = (Path(tmp) / output).read_text() if code == 0 and output else out.getvalue()
    assert code in (0, 1), (code, err.getvalue())
    if code == 1:
        lines = err.getvalue().split("\n")
        assert len(lines) == 2 and lines[0].startswith("error:") and not lines[1], err.getvalue()
    elif "--json" in argv:
        json.loads(written, parse_constant=_no_constant)
