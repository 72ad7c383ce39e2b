"""Exact homology of equivariant complexes, with characters and
irreducible decompositions.

Ranks come from integer elimination.  Characters come from one pass up
the degrees (`homology_characters`), which factorizes only a d_{i+1}
directly above a nonzero H_i: none when all homology sits in the top
degree, as at genus 1.  A trace on im d_{i+1} is read off its column
factorization (the group acts on the columns by a signed permutation),
which keeps every coordinate as integers over one denominator.  Each
walk over a degree, one action per cycle type, is one run of
`complexes.cycle_type_actions`.  Decomposition into irreducibles is one
integer inner product per irreducible.

Checks: every degree keeps d^2 = 0 (at build time) and a non-negative
rank-nullity dimension; a factorized d_{i+1} keeps its pivot count
against `rank`; a nonzero H_i keeps its character's dimension against
rank-nullity (true by construction) and `decompose`'s exact integrality
and non-negativity.  The tests recompute the characters by linear solves.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import EquivariantComplex, chain_character, cycle_type_actions
from .linalg import column_factorization, rank, trace_on_image
from .partitions import Partition, cycle_types
from .reptheory import ClassFunction, IrrDecomposition, decompose


class HomologyProfile:
    def __init__(self, g: int, n: int, r: int, dims, characters, decompositions):
        self.g, self.n, self.r = g, n, r
        self.dims: dict[int, int] = dims
        self.characters: dict[int, ClassFunction] = characters
        self.decompositions: dict[int, IrrDecomposition] = decompositions

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
                "decomposition": (
                    self.decompositions[i].to_json() if self.dims[i] else []
                ),
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


def _image_traces(
    c: EquivariantComplex, k: int, rank_k: int
) -> dict[Partition, Fraction]:
    """Per cycle type, the trace on im d_k, from one walk of
    `cycle_type_actions` over C_k.  The column factorization's pivot count
    must equal ``rank_k``, the row rank from `differential_ranks`."""
    factorization = column_factorization(c.diff[k])
    pivots, _ = factorization
    if len(pivots) != rank_k:
        raise AssertionError(
            f"d_{k}: column factorization has {len(pivots)} pivots, "
            f"rank gives {rank_k}"
        )
    return {
        mu: trace_on_image(action, factorization)
        for mu, action in cycle_type_actions(c, k)
    }


def homology_characters(
    c: EquivariantComplex, dims: dict[int, int], ranks: dict[int, int]
) -> dict[int, ClassFunction]:
    """Characters of the S_n action on H_i wherever ``dims[i]`` is nonzero.

    With Z_i = ker d_i and B_i = im d_{i+1}, the equivariant exact
    sequences 0 -> Z_i -> C_i -> B_{i-1} -> 0 and 0 -> B_i -> Z_i -> H_i
    -> 0 split over Q, so chi(Z_i) = chi(C_i) - chi(B_{i-1}) and chi(H_i)
    = chi(Z_i) - chi(B_i).  B is zero below the bottom degree, and
    B_{k-1} = B_k = 0 where C_k = 0, so a missing degree is skipped.  B_i
    = Z_i where H_i = 0, and elsewhere chi(B_i) is the trace on im d_{i+1}
    (zero when C_{i+1} is).  The pass stops at the last nonzero H_i."""
    characters = {}
    boundaries = dict.fromkeys(cycle_types(c.n), 0)  # chi(B_{i-1})
    top = max((i for i, d in dims.items() if d), default=-1)
    for i in c.degrees():
        if i > top:
            break
        chain = chain_character(c, i)
        cycles = {mu: chain(mu) - boundaries[mu] for mu in boundaries}
        if not dims[i]:
            boundaries = cycles
            continue
        boundaries = (
            _image_traces(c, i + 1, ranks[i + 1])
            if c.diff.get(i + 1) else dict.fromkeys(cycles, 0)
        )
        characters[i] = ClassFunction(
            c.n, {mu: cycles[mu] - boundaries[mu] for mu in cycles}
        )
    return characters


def homology_decomposition(c: EquivariantComplex) -> HomologyProfile:
    """Full homology profile; characters and decompositions are kept only
    in degrees with nonzero homology (elsewhere the module is zero)."""
    ranks = differential_ranks(c)
    dims = homology_dimensions(c, ranks)
    characters = homology_characters(c, dims, ranks)
    for i, chi in characters.items():
        if chi.dim != dims[i]:
            raise AssertionError(
                f"character dimension {chi.dim} != rank-nullity {dims[i]}"
            )
    return HomologyProfile(
        g=c.g, n=c.n, r=c.r, dims=dims, characters=characters,
        decompositions={i: decompose(chi) for i, chi in characters.items()},
    )
