"""Exact homology of equivariant complexes, with characters and
irreducible decompositions.

Ranks come from integer elimination; character values on homology use
the identity chi_H(s) = chi_C(s) - tr(s|im d_{i+1}) - tr(s|im d_i),
where traces on images follow from a one-time column factorization of
each differential (the group acts on the columns by a signed
permutation).  Each degree's actions, one per cycle type, come from
one walk of `complexes.cycle_type_actions`, which takes coset minima
only for (0 1) and the n-cycle and composes the others; the walk serves
the chain trace and the image trace alike.  The factorization
eliminates from the last column and keeps every coordinate as integers
over one denominator, so a trace is a few integer sums, one per
denominator; its pivot count must equal the rank.  Decomposition into
irreducibles is one integer inner product per irreducible.  The tests
recompute every image trace by direct linear solves and by the
input-order `Fraction` factorization, and compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import EquivariantComplex, action_trace, cycle_type_actions
from .linalg import (
    column_factorization,
    rank,
    trace_on_image,
)
from .partitions import Partition, cycle_types
from .reptheory import ClassFunction, IrrDecomposition, decompose


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


def _degree_traces(
    c: EquivariantComplex, k: int, rank_k: int
) -> dict[Partition, tuple[int, Fraction]]:
    """Per cycle type, the chain trace on C_k and the trace on im d_k, from
    one walk of `cycle_type_actions` over C_k.

    d_k is column-factorized here, and the pivot count must equal
    ``rank_k`` (from `differential_ranks`): `rank` eliminates the rows of
    d_k, the factorization its columns.  The factorization and the walk's
    swap table are dropped on return."""
    factorization = column_factorization(c.diff[k])
    pivots, _ = factorization
    if len(pivots) != rank_k:
        raise AssertionError(
            f"d_{k}: column factorization has {len(pivots)} pivots, "
            f"rank gives {rank_k}"
        )
    return {
        mu: (action_trace(action), trace_on_image(action, factorization))
        for mu, action in cycle_type_actions(c, k)
    }


def homology_characters(
    c: EquivariantComplex, degrees: list[int], ranks: dict[int, int]
) -> dict[int, ClassFunction]:
    """Characters of the S_n action on H_i for each i in ``degrees``.

    The acted degrees k, i and i + 1 for each i where C_k is nonzero, are
    taken one at a time by `_degree_traces`, so only one degree's
    factorization and swap table are alive at once.  Then
    chi_{H_i} = chain_i - im_i - im_{i+1}."""
    acted = sorted({k for i in degrees for k in (i, i + 1) if c.diff.get(k)})
    traces = {k: _degree_traces(c, k, ranks[k]) for k in acted}
    characters = {}
    for i in degrees:
        above = traces.get(i + 1)
        values = {}
        for mu in cycle_types(c.n):
            chain, image = traces[i][mu]
            values[mu] = chain - image - (above[mu][1] if above else 0)
        characters[i] = ClassFunction(c.n, values)
    return characters


def _zero_character(n: int) -> ClassFunction:
    return ClassFunction(n, {mu: Fraction(0) for mu in cycle_types(n)})


def homology_decomposition(c: EquivariantComplex) -> HomologyProfile:
    """Full homology profile; characters are computed only in degrees with
    nonzero homology (elsewhere the module is zero)."""
    ranks = differential_ranks(c)
    dims = homology_dimensions(c, ranks)
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

