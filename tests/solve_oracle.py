"""Homology characters by explicit linear solves, the cross-check for
`homology_characters`: every image trace is recomputed by solving for the
action's images in a pivot-column basis of the image, instead of reading
it off a column factorization."""

from fractions import Fraction

from markedgc.complexes import (
    EquivariantComplex,
    chain_character,
    group_action_matrix,
)
from markedgc.linalg import Echelon, SparseColumns, _push, _reduce, column_factorization
from markedgc.partitions import cycle_types
from markedgc.reptheory import ClassFunction, cycle_type_representative


def span_solver(basis: SparseColumns):
    """Return a function solving basis · x = target exactly.

    The basis columns must be linearly independent.  The returned solver
    maps a sparse target vector to its coordinate dict, or None when the
    target lies outside the span.
    """
    echelon: Echelon = {}
    for j, col in enumerate(basis):
        if not _push(echelon, _reduce(echelon, {**col, ~j: 1})[0]):
            raise ValueError("span_solver requires independent columns")

    def solve(target) -> dict[int, Fraction] | None:
        w, s = _reduce(echelon, target)
        if any(i >= 0 for i in w):
            return None
        return {~k: Fraction(-v, s) for k, v in w.items()}

    return solve


def trace_by_solves(cols: SparseColumns):
    """Return a function giving the trace of a signed permutation of the
    columns on their span: it solves for the image of each pivot column
    in the pivot columns."""
    pivots, _ = column_factorization(cols)
    solve = span_solver([cols[l] for l in pivots])

    def trace(action) -> Fraction:
        images, signs = action
        total = Fraction(0)
        for pos, l in enumerate(pivots):
            coords = solve(cols[images[l]])
            if coords is None:
                raise AssertionError("action left the image subspace")
            total += signs[l] * coords.get(pos, Fraction(0))
        return total

    return trace


def character_by_solves(c: EquivariantComplex, i: int) -> ClassFunction:
    """The character of H_i, with image traces by explicit linear solves
    against a pivot-column basis of each image."""
    upper = trace_by_solves(c.diff.get(i + 1, []))
    lower = trace_by_solves(c.diff.get(i, []))
    chain = chain_character(c, i)
    values = {}
    for mu in cycle_types(c.n):
        sigma = cycle_type_representative(mu)
        values[mu] = chain(mu)
        if c.diff.get(i + 1):
            values[mu] -= upper(group_action_matrix(c, i + 1, sigma))
        if c.diff.get(i):
            values[mu] -= lower(group_action_matrix(c, i, sigma))
    return ClassFunction(c.n, values)
