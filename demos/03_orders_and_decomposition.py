"""
The two divisibility orders and the cycle decomposition
=======================================================

Perfect paths are ordered by left division ("prec") and by right division
("leq").  Both Hasse quivers split into chains; sources of the first are
the elementary paths, its sinks the co-elementary ones, and every perfect
path factors uniquely through the co-elementary alphabet.  The bracket
coordinates of a perfect path name that factorization.
"""

from functools import reduce
from operator import mul

from gpstable import analyze, cycle_predicates
from gpstable.fixtures import lambda_star, nakayama

an = analyze(lambda_star())
alg = an.algebra
q = alg.quiver

a12 = q.path(["a1", "a2"])
a12312 = q.path(["a1", "a2", "a3", "a1", "a2"])
# p is below q in the prefix order when p left-divides q, and in the
# suffix order when q right-divides p.
print("a1.a2 below a1.a2.a3.a1.a2 (prefix order):", a12.left_divides(a12312))
print("a1.a2.a3.a1.a2 below a3.a1.a2 (suffix order):",
      q.path(["a3", "a1", "a2"]).right_divides(a12312))

print("\nprefix-order chains (read top to bottom):")
for chain in an.hasse_prec.components:
    print("  " + " -> ".join(map(str, chain)))

print("elementary:   ", ", ".join(map(str, an.elementary)))
print("co-elementary:", ", ".join(map(str, an.coelementary)))

# Unique factorization through the co-elementary alphabet: a perfect path
# with coordinates (i, span) is the factor window r_i ... r_{i+span-1}.
p = q.path(["a1", "a2", "a3", "a1", "a2", "a3"])
dec, i, span = an.locate(p)
print(f"\n{p} = [{i},{i + span - 1}] =",
      " * ".join(str(dec.factor(t)) for t in range(i, i + span)))

# The decomposition anchors each cycle at a co-elementary boundary and
# hands out bracket coordinates [i, j] for every perfect path of the class.
for dec in an.decompositions:
    print(f"\ncycle {dec.anchored_cycle}: factors",
          [str(f) for f in dec.factors],
          f"|c|={dec.size} l(c)={dec.arrow_length} m_c={dec.m}")
    print("  chain:", ", ".join(map(str, dec.chain)))

dec = an.locate(a12)[0]
print("\n[1,4] realizes", dec.realize(1, 4))
print("[7,7] realizes", dec.realize(7, 7), "(indices wrap modulo |c|)")
# m_c + 1 factors are no longer perfect: their product is a relation.
b = reduce(mul, (dec.factor(t) for t in range(1, dec.m + 2)))
print(f"r_1 ... r_{dec.m + 1} is zero?", alg.is_zero(b), "-", b, "is a relation")

# Cycle predicates: a self-injective Nakayama algebra is the model case
# where every arrow of the cycle is perfect and relations slide along it.
nak = analyze(nakayama(3, 2))
preds = cycle_predicates(nak.algebra, nak.decompositions[0], nak.perfect.paths)
print("\nN(3,2) cycle predicates:", preds)
preds_star = cycle_predicates(alg, dec, an.perfect.paths)
print("three-cycle class of the running example:", preds_star)
