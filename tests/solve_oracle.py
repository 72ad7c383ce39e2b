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
    echelon: Echelon = []
    for j, col in enumerate(basis):
        w, acc, s = _reduce(echelon, col)
        if not w:
            raise ValueError("span_solver requires independent columns")
        _push(echelon, j, w, acc, s)

    def solve(target) -> dict[int, Fraction] | None:
        w, acc, s = _reduce(echelon, target)
        if w:
            return None
        return {l: Fraction(v, s) for l, v in acc.items()}

    return solve


def character_by_solves(c: EquivariantComplex, i: int) -> ClassFunction:
    """The character of H_i, with image traces by explicit linear solves
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
