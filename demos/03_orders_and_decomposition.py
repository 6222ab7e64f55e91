"""
The two divisibility orders and the cycle decomposition
=======================================================

Perfect paths are ordered by left division ("prec") and by right division
("leq").  Both Hasse quivers split into chains; sources of the first are
the elementary paths, its sinks the co-elementary ones, and every perfect
path factors uniquely through the co-elementary alphabet.
"""

from gpstable import analyze, coelementary_factorization, cycle_predicates, order_compare
from gpstable.fixtures import lambda_star, nakayama

an = analyze(lambda_star())
alg = an.algebra
q = alg.quiver

a12 = q.path(["a1", "a2"])
a12312 = q.path(["a1", "a2", "a3", "a1", "a2"])
print("a1.a2 vs a1.a2.a3.a1.a2 (prefix order):", order_compare(a12, a12312, "prec"))
print("a1.a2.a3.a1.a2 vs a3.a1.a2 (suffix order):",
      order_compare(a12312, q.path(["a3", "a1", "a2"]), "leq"))

print("\nprefix-order chains (read top to bottom):")
for chain in an.hasse_prec.components:
    print("  " + " -> ".join(map(str, chain)))

print("elementary:   ", ", ".join(map(str, an.elementary)))
print("co-elementary:", ", ".join(map(str, an.coelementary)))

# Unique factorization through the co-elementary alphabet.
p = q.path(["a1", "a2", "a3", "a1", "a2", "a3"])
print(f"\n{p} =", " * ".join(map(str, coelementary_factorization(p, an.coelementary))))

# The decomposition anchors each cycle at a co-elementary boundary and
# hands out bracket coordinates [i, j] for every perfect path of the class.
for dec in an.decompositions:
    print(f"\ncycle {dec.anchored_cycle}: factors",
          [str(f) for f in dec.factors],
          f"|c|={dec.size} l(c)={dec.arrow_length} m_c={dec.m}")
    print("  chain:", ", ".join(map(str, dec.chain)))

dec = an.decomposition_for(a12)
print("\n[1,4] realizes", dec.realize(1, 4))
print("[7,7] realizes", dec.realize(7, 7), "(indices wrap modulo |c|)")
b = dec.realize(1, dec.m + 1)
print(f"[1,{dec.m + 1}] is zero?", alg.is_zero(b), "-", b, "is a relation")

# Cycle predicates: a self-injective Nakayama algebra is the model case
# where every arrow of the cycle is perfect and relations slide along it.
nak = analyze(nakayama(3, 2))
preds = cycle_predicates(nak.algebra, nak.decompositions[0], nak.perfect.paths)
print("\nN(3,2) cycle predicates:", preds)
preds_star = cycle_predicates(alg, dec, an.perfect.paths)
print("three-cycle class of the running example:", preds_star)
