"""Canonical small algebras used across tests, demos and documentation."""

from __future__ import annotations

from .algebra import MonomialAlgebra, parse_algebra


def lambda_star_document() -> dict:
    """Two cycles of lengths 3 and 2 joined by a bridge arrow, with one
    long relation winding around each cycle family."""
    return {
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


def lambda_star() -> MonomialAlgebra:
    return parse_algebra(lambda_star_document())


def a2_document() -> dict:
    return {
        "vertices": ["1", "2"],
        "arrows": [{"id": "a", "from": "1", "to": "2"}],
        "relations": [],
    }


def a2() -> MonomialAlgebra:
    return parse_algebra(a2_document())


def loop_document(m: int) -> dict:
    """L(m): one loop x with x^(m+1) = 0."""
    if m < 1:
        raise ValueError("loop algebra needs m >= 1")
    return {
        "vertices": ["1"],
        "arrows": [{"id": "x", "from": "1", "to": "1"}],
        "relations": [["x"] * (m + 1)],
    }


def loop(m: int) -> MonomialAlgebra:
    return parse_algebra(loop_document(m))


def nakayama_document(n: int, m: int) -> dict:
    """N(n, m): cyclic quiver on n vertices, all paths of length m+1 zero."""
    if n < 1 or m < 1:
        raise ValueError("nakayama algebra needs n, m >= 1")
    vertices = [str(k) for k in range(1, n + 1)]
    arrows = [
        {"id": f"a{k}", "from": str(k), "to": str(k % n + 1)}
        for k in range(1, n + 1)
    ]
    relations = [
        [f"a{(k + t) % n + 1}" for t in range(m + 1)] for k in range(n)
    ]
    return {"vertices": vertices, "arrows": arrows, "relations": relations}


def nakayama(n: int, m: int) -> MonomialAlgebra:
    return parse_algebra(nakayama_document(n, m))


def wide_tail_document(k: int, w: int, n: int, m: int) -> dict:
    """W(k, w; n, m): a chain t0 -> ... -> tk with ``w`` parallel arrows per
    step, beside the Nakayama cycle N(n, m) (relations: every m+1
    consecutive arrows)."""
    arrows = [
        {"id": f"x{j}_{c}", "from": f"t{j}", "to": f"t{j + 1}"}
        for j in range(k)
        for c in range(w)
    ]
    arrows += [
        {"id": f"a{j}", "from": f"c{j}", "to": f"c{(j + 1) % n}"} for j in range(n)
    ]
    return {
        "vertices": [f"t{j}" for j in range(k + 1)] + [f"c{j}" for j in range(n)],
        "arrows": arrows,
        "relations": [[f"a{(j + t) % n}" for t in range(m + 1)] for j in range(n)],
    }


def quadratic_document() -> dict:
    """A quadratic monomial algebra: a 2-cycle with both composites zero
    plus a square-zero loop on a separate vertex."""
    return {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"id": "a", "from": "1", "to": "2"},
            {"id": "b", "from": "2", "to": "1"},
            {"id": "z", "from": "3", "to": "3"},
        ],
        "relations": [["a", "b"], ["b", "a"], ["z", "z"]],
    }


def quadratic() -> MonomialAlgebra:
    return parse_algebra(quadratic_document())
