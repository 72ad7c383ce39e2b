"""Exact homology of equivariant complexes, with characters and
irreducible decompositions.

Ranks come from integer elimination; character values on homology use
the identity chi_H(s) = chi_C(s) - tr(s|im d_{i+1}) - tr(s|im d_i),
where traces on images follow from a one-time column factorization of
each differential (the group acts on the columns by a signed
permutation).  An optional cross-check recomputes every image trace by
direct linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    EquivariantComplex,
    chain_character,
    group_action_matrix,
)
from .linalg import (
    column_factorization,
    rank,
    span_solver,
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


def homology_character(
    c: EquivariantComplex, i: int, factorizations: dict
) -> ClassFunction:
    """Character of the S_n action on H_i.  ``factorizations`` holds the
    column factorization of each differential, filled in as needed and
    shared between degrees."""

    def fact(k):
        if k not in factorizations:
            factorizations[k] = column_factorization(c.diff.get(k, []))
        return factorizations[k]

    chain = chain_character(c, i)
    values: dict[Partition, Fraction] = {}
    for mu in cycle_types(c.n):
        sigma = cycle_type_representative(mu)
        total = chain(mu)
        if c.diff.get(i + 1):
            total -= trace_on_image(
                c.diff[i + 1], group_action_matrix(c, i + 1, sigma), fact(i + 1)
            )
        if c.diff.get(i):
            total -= trace_on_image(
                c.diff[i], group_action_matrix(c, i, sigma), fact(i)
            )
        values[mu] = Fraction(total)
    return ClassFunction(c.n, values)


def _zero_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: Fraction(0) for mu in cycle_types(n)})


def homology_decomposition(
    c: EquivariantComplex, cross_check: bool = False
) -> HomologyProfile:
    """Full homology profile; characters are computed only in degrees with
    nonzero homology (elsewhere the module is zero)."""
    ranks = differential_ranks(c)
    dims = homology_dimensions(c, ranks)
    euler_chain = sum((-1) ** i * c.dim(i) for i in c.degrees())
    euler_hom = sum((-1) ** i * d for i, d in dims.items())
    if euler_chain != euler_hom:
        raise AssertionError("Euler characteristic mismatch")

    factorizations: dict = {}
    characters: dict[int, ClassFunction] = {}
    decompositions: dict[int, IrrDecomposition] = {}
    for i in sorted(dims):
        if dims[i] == 0:
            characters[i] = _zero_character(c.n)
            decompositions[i] = IrrDecomposition(c.n, {})
            continue
        chi = homology_character(c, i, factorizations)
        if chi.dim != dims[i]:
            raise AssertionError(
                f"character dimension {chi.dim} != rank-nullity {dims[i]}"
            )
        if cross_check and chi != _character_by_solves(c, i):
            raise AssertionError(f"cross-check failed in degree {i}")
        characters[i] = chi
        decompositions[i] = decompose(chi)
    return HomologyProfile(
        g=c.g, n=c.n, r=c.r,
        dims=dims, characters=characters, decompositions=decompositions,
    )


def _character_by_solves(c: EquivariantComplex, i: int) -> ClassFunction:
    """Independent recomputation: image traces by explicit linear solves
    against a pivot-column basis of each image."""

    def image_trace_fn(k):
        cols = c.diff.get(k, [])
        if not cols:
            return lambda sigma: Fraction(0)
        pivots, _ = column_factorization(cols)
        basis = [cols[l] for l in pivots]
        solve = span_solver(basis)

        def image_trace(sigma) -> Fraction:
            action = group_action_matrix(c, k, sigma)
            total = Fraction(0)
            for pos, l in enumerate(pivots):
                (img, sign), = action[l].items()
                coords = solve(cols[img])
                if coords is None:
                    raise AssertionError("action left the image subspace")
                total += sign * coords.get(pos, Fraction(0))
            return total

        return image_trace

    upper = image_trace_fn(i + 1)
    lower = image_trace_fn(i)
    chain = chain_character(c, i)
    values = {}
    for mu in cycle_types(c.n):
        sigma = cycle_type_representative(mu)
        values[mu] = chain(mu) - upper(sigma) - lower(sigma)
    return ClassFunction(c.n, values)
