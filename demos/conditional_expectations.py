"""
Exact conditional expectations on a finite space
================================================

A decreasing filtration on a finite sample space is just a sequence of
partitions, each coarser than the last.  revmax stores it as an integer
label matrix: one row per level, giving each atom its block label.  Conditional expectation at a level
is the probability-weighted block average, so the structural identities of
the theory can be checked exactly, atom by atom.
"""

from revmax import (
    DecreasingFiltration,
    FiniteProbSpace,
    RandomVector,
    cond_expect,
    decomposition_residual,
    orthogonality_gap,
    random_instance,
    reverse_mart_diff,
)

# four equally likely atoms, refined -> pairs -> everything
space = FiniteProbSpace([0.25, 0.25, 0.25, 0.25])
filtration = DecreasingFiltration(
    space, [[0, 1, 2, 3], [0, 0, 1, 1], [0, 0, 0, 0]]
)
# the same filtration written as lists of blocks, as in the problem JSON
same = DecreasingFiltration.from_blocks(
    space, [[[0], [1], [2], [3]], [[0, 1], [2, 3]], [[0, 1, 2, 3]]]
)
print("level-2 labels   :", filtration.labels(2), "from blocks:", same.labels(2))
X = RandomVector(space, [1.0, 3.0, 5.0, 7.0])

print("X                :", X.values.ravel())
print("block averages   :", cond_expect(X, filtration, 2).values.ravel())
print("grand mean       :", cond_expect(X, filtration, 3).values.ravel())

# the increment between consecutive levels averages to zero on every block
# of the coarser level: a reverse martingale difference
D = reverse_mart_diff(X, filtration, 1)
print("level-1 increment:", D.values.ravel())
print("its level-2 block sums:", cond_expect(D, filtration, 2).values.ravel())

# the endpoint decomposition of a partial sum holds to rounding error on
# any randomly generated adapted sequence
instance = random_instance(seed=0, atoms=32, levels=13, n=12, dim=2)
print("\nrandom instance: 32 atoms, 12 terms, dimension 2")
print("decomposition residual:", decomposition_residual(instance.sequence, 12))

lhs, rhs = orthogonality_gap(instance.sequence, 12)
print("orthogonality identity: lhs = %.15f, rhs = %.15f" % (lhs, rhs))
