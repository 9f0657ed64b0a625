"""
Equivariance certificates, re-proved by matrix multiplication
=============================================================

Each closed-form equivalence used by the classifier is backed by an explicit
homeomorphism: a signed permutation S of the moment-angle coordinates that
intertwines the two free torus actions after reparametrizing the torus by a
2x2 unimodular matrix T.  S keeps each factor's block of coordinates
together, so the proof obligation collapses to one integer matrix
identity, S * U = U' * T, where U and U' are the weight matrices of the
two actions, read off the two characteristic pairs.  This script rebuilds
each certificate family and checks the identity.
"""

from qtoric import builtin_witness, kernel_span_vectors, witness_check

# Family 1: over a segment factor, one twist entry can be copied into every
# slot.  Source twists (b, 0), target twists (b, b).
source, target, w = builtin_witness("repeat-fill", n=2, a=1, b=2)
print("repeat-fill weight matrices (rows = coordinates):")
print("  source:", tuple(zip(*kernel_span_vectors(source))))
print("  target:", tuple(zip(*kernel_span_vectors(target))))
print("  T =", w.t.rows)
print("  identity holds:", witness_check(source, target, w))

# Family 2: the r-fold. The class (s, r) maps onto (s, n+1-r) by cycling
# the first coordinate block and conjugating part of the second.
certificate = builtin_witness("fold-r", n=3, m=2, s=1, r=1)
print()
print("fold-r (s=1, r=1 -> r'=3):", witness_check(*certificate))

# Family 3: the s-fold, the mirror move on the other block.
certificate = builtin_witness("fold-s", n=3, m=2, s=1, r=1)
print("fold-s (s=1 -> s'=2, r=1):", witness_check(*certificate))

# The full acceptance suite runs these over every parameter in range; a
# single failure would mean the classifier rests on a broken equivalence.
count = 0
for family in ("fold-r", "fold-s"):
    for n in range(1, 5):
        for m in range(1, 5):
            for s in range(1, m + 1):
                for r in range(1, n + 1):
                    assert witness_check(*builtin_witness(family, n=n, m=m, s=s, r=r))
                    count += 1
print()
print("checked %d fold certificates, all pass" % count)
