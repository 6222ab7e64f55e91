"""
Building a monomial algebra and exploring its non-zero paths
============================================================

A monomial algebra is a quiver plus a list of forbidden paths.  Paths that
avoid every forbidden factor form a finite basis.  It is enumerated on
first use: the brute-force oracle reads it, the closed forms never do.
"""

from gpstable import parse_algebra
from gpstable.fixtures import lambda_star_document

# The running example: two cycles (lengths 3 and 2) joined by a bridge
# arrow b2, with one long relation winding around each cycle family.
alg = parse_algebra(lambda_star_document())
print(alg)

# The basis is enumerated once, trivial paths included.
print("dimension:", alg.dim)
print("nilpotency bound:", alg.nilpotency)
longest = max(alg.basis, key=lambda p: p.length)
print("a longest non-zero path:", longest, f"(length {longest.length})")

# Zero tests read the path through the relation automaton built at parse.
q = alg.quiver
print("a1.a2.a3 zero?", alg.is_zero(q.path(["a1", "a2", "a3"])))
r1 = q.path(["a1", "a2", "a3", "a1", "a2", "a3", "a1", "a2"])
print(r1, "zero?", alg.is_zero(r1))

# A left divisor comes with its complement, which recomposes exactly.
p = q.path(["a1", "a2"])
whole = q.path(["a1", "a2", "a3", "a1", "a2"])
print(f"{p} inside {whole}:")
print("  left divisor?", p.left_divides(whole))
right = whole.window(p.length, whole.length)
print("  complement:", right)
assert p * right == whole

# Non-admissible inputs are rejected with a witness cycle.
from gpstable import NonAdmissibleError

try:
    parse_algebra(
        {
            "vertices": ["1"],
            "arrows": [{"id": "x", "from": "1", "to": "1"}],
            "relations": [],
        }
    )
except NonAdmissibleError as exc:
    print("free loop rejected; witness cycle:", exc.witness)
