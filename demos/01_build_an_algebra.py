"""
Building a monomial algebra and exploring its non-zero paths
============================================================

A monomial algebra is a quiver plus a list of forbidden paths.  Paths that
avoid every forbidden factor form a finite basis; everything else in this
package is computed from that basis.
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

# Zero tests are substring scans against the relation list.
q = alg.quiver
print("a1.a2.a3 zero?", alg.is_zero(q.path(["a1", "a2", "a3"])))
r1 = q.path(["a1", "a2", "a3", "a1", "a2", "a3", "a1", "a2"])
print(r1, "zero?", alg.is_zero(r1))

# Divisibility comes with explicit witnesses that recompose exactly.
p = q.path(["a1", "a2"])
whole = q.path(["a1", "a2", "a3", "a1", "a2"])
occ = next(iter(p.occurrences_in(whole)))
left, right = whole.window(0, occ), whole.window(occ + p.length, whole.length)
print(f"{p} inside {whole}:")
print("  left divisor?", p.left_divides(whole))
print("  complements:", left, "|", right)
assert left * p * right == whole

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
