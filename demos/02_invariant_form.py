"""The symplectic form a monodromy group preserves.

Both generators preserve a single antisymmetric bilinear form up to
scalar.  Rather than deriving it entry by entry, we solve the linear
system tA X A = X, tB X B = X over the six free entries of an
antisymmetric matrix; the kernel is one-dimensional for every valid pair.
This script computes the form for one pair, checks the invariance
identities, and shows that v is orthogonal to the first three axes.
"""

import random

from sp4mono import (
    GroupWord,
    MatrixQ,
    VectorQ,
    check_symplectic,
    evaluate_word,
    from_exponents,
    invariance_system,
    invariant_form,
    levelt_triple,
)
from sp4mono.cyclotomic import ExponentVector

alpha = ExponentVector.from_strings(["1/2", "1/2", "1/3", "2/3"])
beta = ExponentVector.from_strings(["1/4", "1/4", "3/4", "3/4"])
triple = levelt_triple(from_exponents(alpha), from_exponents(beta))

system = invariance_system(triple)
print("invariance system: %d equations in 6 unknowns" % system.nrows)
print("kernel dimension:", len(system.nullspace()))

form = invariant_form(triple)
print("\nnormalized invariant form (integer entries, gcd 1):")
print(form.omega)

print("\ntA . omega . A == omega:", triple.A.transpose() * form.omega * triple.A == form.omega)
print("tB . omega . B == omega:", triple.B.transpose() * form.omega * triple.B == form.omega)

print("\npairings of v with the standard axes:")
for i in range(4):
    print("  omega(v, e%d) =" % (i + 1), form.pair(triple.v, VectorQ.unit(4, i)))

rng = random.Random(0)
words = [
    GroupWord(tuple((rng.choice("AB"), rng.choice((1, -1))) for _ in range(rng.randint(1, 12))))
    for _ in range(200)
]
ok = all(check_symplectic(evaluate_word(triple, w), form) for w in words)
print("\n200 random words preserve the form:", ok)
