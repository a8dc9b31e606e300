"""Branching multiplicities computed three independent ways.

A Weyl module attached to an r-component shape decomposes, after restricting
to the product of one-component quantum groups, into products of
one-component highest-weight modules. The multiplicity of each summand is an
integer the engine computes by three unrelated algorithms; watching them
agree is the best smoke test there is.
"""

from weylchar import (
    MultiPartition,
    ShapeBound,
    multipartitions,
    multiplicity,
    multiplicity_matrix,
    multiplicity_row_by_solve,
)

n, r = 3, 2
bound = ShapeBound.for_size(n, r)

print(f"All {len(multipartitions(n, r))} shapes of size {n} with {r} components,")
print("in the canonical order (most dominant first):")
for la in multipartitions(n, r):
    print("  ", la)

# Pick one shape and compute its full multiplicity row three ways.
la = MultiPartition([[2], [1]])
print(f"\nMultiplicity row of {la}:")
print(f"{'weight':>22}  singular  chain  solve")
solve_row = multiplicity_row_by_solve(la)
for mu in multipartitions(n, r):
    s = multiplicity(la, mu, method="singular")
    c = multiplicity(la, mu, method="chain")
    v = solve_row[mu]
    assert s == c == v
    print(f"{str(mu):>22}  {s:>8}  {c:>5}  {v:>5}")

# The whole matrix is unitriangular along the canonical order: ones on the
# diagonal, zeros below, and a nonzero entry forces dominance.
print(f"\nFull multiplicity matrix at n={n}, r={r}:")
mat = multiplicity_matrix(n, bound)
width = max(len(str(mp)) for mp in mat.order)
for mp, row in zip(mat.order, mat.rows):
    print(f"  {str(mp):>{width}}  {list(row)}")

# With a single component the restriction does nothing and the matrix
# collapses to the identity.
b1 = ShapeBound.for_size(4, 1)
print("\nOne component, n=4:", multiplicity_matrix(4, b1).rows)
