"""The four workloads: seeded inputs, one operation, and its output checks.

A workload's ``setup(gp, seed)`` receives the freshly imported ``gpstable``
package and returns a state whose ``items`` list is one round; ``op`` runs
one timed operation on one item, and ``check`` (untimed) returns whether its
output is right.  Operations call the package through module attributes
(``gp.classify``, ``gp.oracle.verify_algebra``, ...) so the per-layer
tracer in ``layers.py`` sees every call.  Expected values come from
``inputs.py`` or from properties every correct implementation has; none is
a stored copy of the program's output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from inputs import (
    PlantedCycle,
    Shape,
    canonical_cycle,
    lambda_star_document,
    planted_document,
    relabel,
    wide_tail_document,
)


def nakayama(n: int, m: int) -> PlantedCycle:
    return PlantedCycle((1,) * n, m)


# Operations of each workload stay within a narrow band of cost (0.08 to
# 0.12 s at nominal speed for the planted shapes), so the p90 is not decided
# by which shape happens to be slowest.
CLASSIFY_SHAPES = (
    Shape((nakayama(10, 10),), ((0, "in", 2), (0, "out", 2))),
    Shape((nakayama(12, 9),)),
    Shape((nakayama(14, 8),), ((0, "in", 2),)),
    Shape((PlantedCycle((1, 1, 2, 1, 1, 1, 2, 1, 1, 1), 10),)),
    Shape((nakayama(7, 7), nakayama(8, 7))),
    Shape((nakayama(8, 8), PlantedCycle((1, 2, 1, 1), 8))),
    Shape((nakayama(6, 5), nakayama(6, 5), nakayama(6, 5))),
)

# (k, w, n, m): basis sizes 508..514, so the successor map costs the same.
WIDE_TAIL_SHAPES = ((7, 2, 2, 2), (7, 2, 3, 2), (7, 2, 2, 3), (7, 2, 3, 3))

STABLE_SHAPE = Shape(
    (nakayama(6, 6), PlantedCycle((1, 2, 1, 1, 2), 7), nakayama(4, 8)),
    ((0, "in", 2),),
)
SHIFT_PAD = 20  # graded Homs are taken over shifts -20 .. max l(q) + 19
SUSPENSION_POWERS = tuple(range(-6, 7))

# The first four have at most 51 non-trivial basis paths and the last four
# at least 82, so both sides of the oracle's full-scan limit (70) are run.
ORACLE_SHAPES = (
    Shape((nakayama(4, 4),)),
    Shape((nakayama(4, 3), PlantedCycle((2, 1), 2))),
    Shape((nakayama(3, 2), nakayama(3, 2), nakayama(1, 3))),
    Shape((nakayama(3, 2), nakayama(3, 3)), ((0, "in", 3),)),
    Shape((nakayama(4, 3), PlantedCycle((2, 1), 2)), ((1, "out", 3),)),
    Shape((nakayama(3, 3), nakayama(3, 2)), ((0, "in", 3), (1, "out", 3))),
    Shape((PlantedCycle((1, 1, 2), 3),), ((0, "in", 4), (0, "out", 4))),
    Shape((nakayama(4, 3), nakayama(2, 2)), ((0, "in", 3), (1, "out", 3))),
)


@dataclass
class Item:
    text: str
    expected: object
    pair: int = -1  # classify-cycles: index of the original/relabeled pair
    relabeled: bool = False
    rng_seed: int = 0


@dataclass
class State:
    gp: object
    items: list
    extra: dict = field(default_factory=dict)


# --- shared checks ------------------------------------------------------------


def _class_of_arrow(expected) -> dict[str, tuple[int, int]]:
    """Arrow id -> (|c|, l(c)) of the planted cycle it lies on."""
    return {a: (n, ln) for ring, n, ln, _ in expected.classes for a in ring}


def _classification_matches(an, report: dict, expected) -> bool:
    want_graded = sorted((canonical_cycle(r), m, ln) for r, _, ln, m in expected.classes)
    got_graded = sorted(
        (canonical_cycle(f["cycle"].split(".")), f["typeA_size"], f["multiplicity"])
        for f in report["graded"]
    )
    want_ungraded = sorted((n, m + 1) for _, n, _, m in expected.classes)
    got_ungraded = sorted((f["vertices"], f["radical_exponent"]) for f in report["ungraded"])
    want_classes = sorted((canonical_cycle(r), n, ln, m) for r, n, ln, m in expected.classes)
    got_classes = sorted(
        (canonical_cycle(d.anchored_cycle.arrows), d.size, d.arrow_length, d.m)
        for d in an.decompositions
    )
    return (
        not report["cm_free"]
        and got_graded == want_graded
        and got_ungraded == want_ungraded
        and got_classes == want_classes
        and len(an.perfect.paths) == expected.perfect_count
        and sum(d.m * d.size for d in an.decompositions) == expected.perfect_count
    )


def _ar_quiver_json_ok(text: str, expected) -> bool:
    """One JSON document with one vertex per perfect path, tau a bijection
    whose orbits have size |c|, and a mesh companion tau(c) -> b for every
    arrow b -> c."""
    data = json.loads(text)
    ids = [v["path"] for v in data["vertices"]]
    if len(ids) != expected.perfect_count or len(set(ids)) != len(ids):
        return False
    tau = dict(map(tuple, data["tau"]))
    if set(tau) != set(ids) or set(tau.values()) != set(ids):
        return False
    size_of = _class_of_arrow(expected)
    for start in ids:
        orbit, cur = 1, tau[start]
        while cur != start and orbit <= len(ids):
            orbit, cur = orbit + 1, tau[cur]
        if orbit != size_of[start.split(".")[0]][0]:
            return False
    arrows = set(map(tuple, data["arrows"]))
    return all((tau[c], b) in arrows for b, c in arrows)


def _summary(report: dict, arrow_map: dict | None = None) -> list:
    """The classification with cycles as canonical rotations, optionally
    renamed through ``arrow_map``; list order is dropped."""
    rename = arrow_map or {}
    graded = sorted(
        (
            canonical_cycle(rename.get(a, a) for a in f["cycle"].split(".")),
            f["typeA_size"],
            f["multiplicity"],
        )
        for f in report["graded"]
    )
    ungraded = sorted((f["vertices"], f["radical_exponent"]) for f in report["ungraded"])
    return [graded, ungraded, report["cm_free"]]


def _classify_op(state: State, item: Item):
    gp = state.gp
    an = gp.analyze(item.text)
    report = gp.classify(an)
    out = gp.emit(gp.full_ungraded_ar_quiver(an), "json")
    return an, report, out


# --- classify-cycles ------------------------------------------------------------


class ClassifyCycles:
    """Planted algebras plus lambda_star, each with a seeded relabeling."""

    name = "classify-cycles"

    @staticmethod
    def setup(gp, seed: int) -> State:
        rng = random.Random(seed)
        sources = [planted_document(rng, shape) for shape in CLASSIFY_SHAPES]
        sources.append(lambda_star_document())
        items = []
        for pair, (doc, expected) in enumerate(sources):
            new_doc, new_expected = relabel(rng, doc, expected)
            items.append(Item(json.dumps(doc), expected, pair))
            items.append(Item(json.dumps(new_doc), new_expected, pair, relabeled=True))
        return State(gp, items, {"reports": {}})

    op = staticmethod(_classify_op)

    @staticmethod
    def check(state: State, item: Item, result) -> bool:
        an, report, out = result
        report = report.to_json_dict()
        ok = _classification_matches(an, report, item.expected) and _ar_quiver_json_ok(
            out, item.expected
        )
        originals = state.extra["reports"]
        if not item.relabeled:
            originals[item.pair] = report
            return ok
        original = originals.pop(item.pair, None)
        return (
            ok
            and original is not None
            and _summary(report) == _summary(original, item.expected.arrow_map)
        )


# --- wide-tail ---------------------------------------------------------------------


class WideTail:
    """W(k, w; n, m): a wide acyclic tail beside a small Nakayama cycle."""

    name = "wide-tail"

    @staticmethod
    def setup(gp, seed: int) -> State:
        rng = random.Random(seed)
        items = [
            Item(json.dumps(doc), expected)
            for doc, expected in (
                wide_tail_document(rng, *shape) for shape in WIDE_TAIL_SHAPES
            )
        ]
        return State(gp, items)

    op = staticmethod(_classify_op)

    @staticmethod
    def check(state: State, item: Item, result) -> bool:
        an, report, out = result
        return (
            an.algebra.dim == item.expected.basis_size
            and _classification_matches(an, report.to_json_dict(), item.expected)
            and _ar_quiver_json_ok(out, item.expected)
        )


# --- stable-queries ---------------------------------------------------------------


class StableQueries:
    """The neighbourhood of one object pL(0) on a warm multi-class Analysis."""

    name = "stable-queries"

    @staticmethod
    def setup(gp, seed: int) -> State:
        doc, expected = planted_document(random.Random(seed), STABLE_SHAPE)
        an = gp.analyze(json.dumps(doc))
        an.decompositions  # noqa: B018 - builds every cached stage
        paths = an.perfect.paths
        longest = max(p.length for p in paths)
        window = [
            (q, k) for q in paths for k in range(-SHIFT_PAD, longest + SHIFT_PAD)
        ]
        return State(
            gp,
            list(paths),
            {"an": an, "window": window, "expected": expected, "paths": paths},
        )

    @staticmethod
    def op(state: State, p):
        gp, an = state.gp, state.extra["an"]
        obj = gp.StableObject
        x = obj(p, 0)
        graded = [
            gp.graded_stable_hom(an, x, obj(q, k)).dimension
            for q, k in state.extra["window"]
        ]
        ungraded = [
            gp.ungraded_stable_hom(an, p, q).dimension for q in state.extra["paths"]
        ]
        suspensions = [gp.suspend(an, x, s) for s in SUSPENSION_POWERS]
        triangle = gp.ar_triangle(an, x)
        orbit = [x, gp.ar_translate(an, x)]
        while orbit[-1].path != p and len(orbit) <= len(state.items):
            orbit.append(gp.ar_translate(an, orbit[-1]))
        return graded, ungraded, suspensions, triangle, orbit

    @staticmethod
    def check(state: State, p, result) -> bool:
        gp, an = state.gp, state.extra["an"]
        graded, ungraded, suspensions, triangle, orbit = result
        obj = gp.StableObject
        x = obj(p, 0)
        window = state.extra["window"]
        dims = dict(zip(window, graded))
        size, length = _class_of_arrow(state.extra["expected"])[p.arrows[0]]
        serre = gp.suspend(an, gp.ar_translate(an, x), 1)
        inverse = gp.stable.ar_translate_inverse
        return (
            set(graded) <= {0, 1}
            and dims[(p, 0)] == 1
            and all(
                u == sum(dims[(q, k)] for k in range(q.length))
                for q, u in zip(state.extra["paths"], ungraded)
            )
            and all(
                gp.suspend(an, y, -s) == x for s, y in zip(SUSPENSION_POWERS, suspensions)
            )
            and inverse(an, gp.ar_translate(an, x)) == x
            and triangle.target == x
            and triangle.tau_object == orbit[1]
            and len(orbit) - 1 == size
            and orbit[-1] == obj(p, -length)
            and all(
                d == gp.graded_stable_hom(an, obj(q, k), serre).dimension
                for (q, k), d in dims.items()
            )
        )


# --- oracle-battery ------------------------------------------------------------------


class OracleBattery:
    """parse_algebra + verify_algebra on small planted algebras."""

    name = "oracle-battery"

    @staticmethod
    def setup(gp, seed: int) -> State:
        rng = random.Random(seed)
        items, modes = [], set()
        for shape in ORACLE_SHAPES:
            doc, expected = planted_document(rng, shape)
            items.append(Item(json.dumps(doc), expected, rng_seed=rng.getrandbits(32)))
            nontrivial = expected.basis_size - len(doc["vertices"])
            modes.add(nontrivial <= gp.oracle.FULL_PAIR_SCAN_LIMIT)
        classes = [it.expected.classes for it in items]
        floor = (
            all(it.expected.perfect_count > 0 for it in items)
            and any(len(c) >= 2 for c in classes)
            and any(m > 1 for c in classes for *_, m in c)
            and modes == {True, False}
        )
        if not floor:
            raise SystemExit("oracle-battery inputs miss their coverage floor")
        return State(gp, items)

    @staticmethod
    def op(state: State, item: Item):
        gp = state.gp
        alg = gp.parse_algebra(item.text)
        return alg, gp.oracle.verify_algebra(alg, random.Random(item.rng_seed))

    @staticmethod
    def check(state: State, item: Item, result) -> bool:
        alg, checks = result
        an = state.gp.Analysis(alg)
        return (
            len(checks) > 0
            and all(c.ok for c in checks)
            and alg.dim == item.expected.basis_size
            and _classification_matches(an, state.gp.classify(an).to_json_dict(), item.expected)
        )


WORKLOADS = {w.name: w for w in (ClassifyCycles, WideTail, StableQueries, OracleBattery)}


def describe(seed: int) -> None:
    """Print every workload's inputs with the expected values the checks use."""
    rows = [("classify-cycles", planted_document(random.Random(seed), s)) for s in CLASSIFY_SHAPES]
    rows.append(("classify-cycles", lambda_star_document()))
    rng = random.Random(seed)
    rows += [("wide-tail", wide_tail_document(rng, *s)) for s in WIDE_TAIL_SHAPES]
    rows.append(("stable-queries", planted_document(random.Random(seed), STABLE_SHAPE)))
    rows += [("oracle-battery", planted_document(random.Random(seed), s)) for s in ORACLE_SHAPES]
    print("workload         basis  non-trivial  perfect  classes (|c|, l(c), m_c)")
    for name, (doc, expected) in rows:
        nontrivial = expected.basis_size - len(doc["vertices"])
        classes = " ".join(f"({n},{ln},{m})" for _, n, ln, m in expected.classes)
        print(f"{name:<16}{expected.basis_size:>6}{nontrivial:>13}{expected.perfect_count:>9}  {classes}")


if __name__ == "__main__":
    import sys

    describe(int(sys.argv[1]) if len(sys.argv) > 1 else 1)
