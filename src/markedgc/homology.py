"""Exact homology of equivariant complexes, with characters and
irreducible decompositions.

Ranks come from integer elimination; character values on homology use
the identity chi_H(s) = chi_C(s) - tr(s|im d_{i+1}) - tr(s|im d_i),
where traces on images follow from a one-time column factorization of
each differential (the group acts on the columns by a signed
permutation).  The factorization eliminates from the last column and
keeps every coordinate as integers over one denominator, so a trace is a
few integer sums, one per denominator; its pivot count must equal the
rank, which the other elimination loop found.  Decomposition into
irreducibles is one integer inner product per irreducible.  The tests
recompute every image trace by direct linear solves and by the
input-order `Fraction` factorization, and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import EquivariantComplex, action_trace, group_action_matrix
from .linalg import (
    column_factorization,
    rank,
    trace_on_image,
)
from .partitions import Partition, cycle_types
from .reptheory import (
    ClassFunction,
    IrrDecomposition,
    cycle_type_representative,
    decompose,
)


@dataclass(frozen=True)
class HomologyProfile:
    g: int
    n: int
    r: int
    dims: dict[int, int]
    characters: dict[int, ClassFunction]
    decompositions: dict[int, IrrDecomposition]

    def nonzero_degrees(self) -> list[int]:
        return sorted(i for i, d in self.dims.items() if d)

    def multiplicity(self, i: int, lam: Partition) -> int:
        dec = self.decompositions.get(i)
        return dec[lam] if dec is not None else 0

    def to_json(self) -> list[dict]:
        return [
            {
                "degree": i,
                "dim": self.dims[i],
                "decomposition": self.decompositions[i].to_json(),
            }
            for i in sorted(self.dims)
        ]


def differential_ranks(c: EquivariantComplex) -> dict[int, int]:
    return {i: rank(c.diff[i]) for i in c.degrees()}


def homology_dimensions(c: EquivariantComplex, ranks: dict[int, int]) -> dict[int, int]:
    """dim H_i = dim C_i - rank d_i - rank d_{i+1}, from ``differential_ranks``."""
    dims = {}
    for i in c.degrees():
        dims[i] = c.dim(i) - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if dims[i] < 0:
            raise AssertionError(f"negative homology dimension in degree {i}")
    return dims


def homology_characters(
    c: EquivariantComplex, degrees: list[int], ranks: dict[int, int]
) -> dict[int, ClassFunction]:
    """Characters of the S_n action on H_i for each i in ``degrees``.

    Each differential that a trace needs is column-factorized once, and
    the action of each cycle type on each degree is computed once: the
    action on C_i gives the chain trace and the trace on im d_i, the
    action on C_{i+1} the trace on im d_{i+1}.  Each factorization's
    pivot count must equal the differential's entry in ``ranks`` (from
    `differential_ranks`), which the other elimination loop computed."""
    acted = sorted({k for i in degrees for k in (i, i + 1) if c.diff.get(k)})
    factorizations = {k: column_factorization(c.diff[k]) for k in acted}
    for k, (pivots, _) in factorizations.items():
        if len(pivots) != ranks[k]:
            raise AssertionError(
                f"d_{k}: column factorization has {len(pivots)} pivots, "
                f"rank gives {ranks[k]}"
            )
    values: dict[int, dict[Partition, Fraction]] = {i: {} for i in degrees}
    for mu in cycle_types(c.n):
        sigma = cycle_type_representative(mu)
        actions = {k: group_action_matrix(c, k, sigma) for k in acted}
        for i in degrees:
            total = action_trace(actions[i])
            if i + 1 in actions:
                total -= trace_on_image(actions[i + 1], factorizations[i + 1])
            total -= trace_on_image(actions[i], factorizations[i])
            values[i][mu] = Fraction(total)
    return {i: ClassFunction(c.n, v) for i, v in values.items()}


def _zero_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: Fraction(0) for mu in cycle_types(n)})


def homology_decomposition(c: EquivariantComplex) -> HomologyProfile:
    """Full homology profile; characters are computed only in degrees with
    nonzero homology (elsewhere the module is zero)."""
    ranks = differential_ranks(c)
    dims = homology_dimensions(c, ranks)
    euler_hom = sum((-1) ** i * d for i, d in dims.items())
    if c.euler_characteristic() != euler_hom:
        raise AssertionError("Euler characteristic mismatch")

    chars = homology_characters(c, [i for i in sorted(dims) if dims[i]], ranks)
    characters: dict[int, ClassFunction] = {}
    decompositions: dict[int, IrrDecomposition] = {}
    for i in sorted(dims):
        if dims[i] == 0:
            characters[i] = _zero_character(c.n)
            decompositions[i] = IrrDecomposition(c.n, {})
            continue
        chi = chars[i]
        if chi.dim != dims[i]:
            raise AssertionError(
                f"character dimension {chi.dim} != rank-nullity {dims[i]}"
            )
        characters[i] = chi
        decompositions[i] = decompose(chi)
    return HomologyProfile(
        g=c.g, n=c.n, r=c.r,
        dims=dims, characters=characters, decompositions=decompositions,
    )

