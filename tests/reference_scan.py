"""Literal references for the relation-driven perfect pairs and Hasse covers.

The annihilators here scan every non-zero path, the successor map tries
every non-zero path, the covering relations come from a transitive
reduction, and the cycle classes are grouped on ``Path`` products: O(B²),
O(P³) and path-level readings of the definitions, kept only to pin the fast
versions down on a shared family of algebras.
"""

import random
from functools import lru_cache, reduce
from pathlib import Path as FilePath

from gpstable import fixtures
from gpstable.algebra import Path, parse_algebra
from gpstable.oracle import random_algebra
from gpstable.orders import PREC

FIXTURES = FilePath(__file__).resolve().parent.parent / "fixtures"


def scan_right_annihilators(alg, p):
    killers = {
        q
        for q in alg.nontrivial_basis
        if q.source == p.target and alg.concat_zero(p, q)
    }
    minimal = [
        q
        for q in killers
        if not any(q.prefix(k) in killers for k in range(1, q.length))
    ]
    return tuple(sorted(minimal, key=Path.sort_key))


def scan_left_annihilators(alg, p):
    killers = {
        q
        for q in alg.nontrivial_basis
        if q.target == p.source and alg.concat_zero(q, p)
    }
    minimal = [
        q
        for q in killers
        if not any(q.suffix(k) in killers for k in range(1, q.length))
    ]
    return tuple(sorted(minimal, key=Path.sort_key))


def scan_successor_map(alg):
    sigma = {}
    for p in alg.nontrivial_basis:
        right = scan_right_annihilators(alg, p)
        if len(right) == 1 and scan_left_annihilators(alg, right[0]) == (p,):
            sigma[p] = right[0]
    return sigma


def reduction_hasse_arrows(paths, order):
    """Covering pairs (greater, covered) by transitive reduction, sorted."""
    verts = set(paths)

    def below(p, q):
        return p.left_divides(q) if order == PREC else q.right_divides(p)

    strict = {(p, q) for p in verts for q in verts if p != q and below(p, q)}
    arrows = [
        (q, p)
        for p, q in strict
        if not any((p, r) in strict and (r, q) in strict for r in verts)
    ]
    return tuple(sorted(arrows, key=lambda e: (e[0].sort_key(), e[1].sort_key())))


def rotation(cycle, s):
    """The cycle read from arrow position ``s`` on, as a ``Path`` product."""
    return cycle if s == 0 else cycle.window(s, cycle.length) * cycle.window(0, s)


def path_cycle_classes(pset):
    """(cycle, members) per class: each successor cycle's product, its
    primitive root and least rotation taken on ``Path``s."""
    grouped = {}
    for seq in pset.sequences:
        product = reduce(lambda a, b: a * b, seq)
        n = product.length
        root = next(
            product.prefix(d)
            for d in range(1, n + 1)
            if n % d == 0 and product.prefix(d).arrows * (n // d) == product.arrows
        )
        canon = min(
            (rotation(root, s) for s in range(root.length)), key=Path.sort_key
        )
        grouped.setdefault(canon, set()).update(seq)
    return tuple(
        (canon, tuple(sorted(members, key=Path.sort_key)))
        for canon, members in sorted(grouped.items(), key=lambda kv: kv[0].sort_key())
    )


@lru_cache(maxsize=None)
def equivalence_algebras():
    """Every fixture document, loops x^{m+1} = 0 for m <= 4, N(n, m) for
    n, m <= 6 and 300 draws of ``random_algebra(random.Random(4))`` with
    up to 5 vertices, 8 arrows and 6 relations."""
    algs = [parse_algebra(f.read_text()) for f in sorted(FIXTURES.glob("*.json"))]
    algs += [fixtures.loop(m) for m in range(1, 5)]
    algs += [fixtures.nakayama(n, m) for n in range(1, 7) for m in range(1, 7)]
    rng = random.Random(4)
    algs += [
        random_algebra(rng, max_vertices=5, max_arrows=8, max_relations=6)
        for _ in range(300)
    ]
    return tuple(algs)
