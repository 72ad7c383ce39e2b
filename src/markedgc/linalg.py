"""Exact sparse linear algebra over the rationals.

Matrices are stored column-sparse: a list with one {row: value} dict per
column.  Everything here is exact: ranks and column factorizations both
eliminate over the integers by cross-multiplication with gcd
normalization, and rationals (``Fraction``) appear only in the returned
coordinates.  No floating point, no modular arithmetic.

There are two elimination loops, on purpose.  `rank` only counts, so it
may pick each pivot Markowitz style (sparsest column, shortest row).
`_reduce` must keep the pivot columns in input order and track each
column's coordinates, which column factorizations and image traces need.
Counting `_reduce` pivots in place of `rank` is slower: on the 92
matrices one `homology` benchmark sample ranks, 0.09-0.14 s in all
against 0.05-0.08 s, and on the largest (435 columns, 1,965 nonzeros)
0.05-0.20 s against 0.02-0.05 s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

SparseColumns = list[dict[int, int]]


def rank(cols: SparseColumns) -> int:
    """Rank by integer Gaussian elimination with Markowitz-style pivoting.

    Rows are combined by cross-multiplication and re-divided by their
    content, so all intermediate entries stay integral.
    """
    rows: dict[int, dict[int, int]] = {}
    for j, col in enumerate(cols):
        for i, v in col.items():
            if v:
                rows.setdefault(i, {})[j] = v
    col_support: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            col_support.setdefault(j, set()).add(i)

    result = 0
    while rows:
        # cheapest pivot: scan the sparsest column, take its shortest row
        pivot_col = min(col_support, key=lambda j: len(col_support[j]))
        pivot_row = min(
            col_support[pivot_col],
            key=lambda i: (len(rows[i]), abs(rows[i][pivot_col])),
        )
        prow = rows.pop(pivot_row)
        pval = prow[pivot_col]
        for j in prow:
            col_support[j].discard(pivot_row)

        for i in list(col_support[pivot_col]):
            row = rows[i]
            rval = row.pop(pivot_col)
            col_support[pivot_col].discard(i)
            for j in row:
                row[j] *= pval
            for j, v in prow.items():
                if j == pivot_col:
                    continue
                new = row.get(j, 0) - rval * v
                if new:
                    if j not in row:
                        col_support.setdefault(j, set()).add(i)
                    row[j] = new
                elif j in row:
                    del row[j]
                    col_support[j].discard(i)
            if row:
                content = 0
                for v in row.values():
                    content = gcd(content, v)
                if content > 1:
                    for j in row:
                        row[j] //= content
            else:
                del rows[i]
        del col_support[pivot_col]
        for j in [j for j, s in col_support.items() if not s]:
            del col_support[j]
        result += 1
    return result


# An echelon entry (pivot_row, vector, coords) holds an integer vector with
# vector[pivot_row] > 0 together with its integer coordinates in the
# pivot columns: vector = sum coords[l] * col_l.
Echelon = list[tuple[int, dict[int, int], dict[int, int]]]


def _reduce(
    echelon: Echelon, col: dict[int, int]
) -> tuple[dict[int, int], dict[int, int], int]:
    """Reduce an integer column against the echelon, fraction-free.

    Returns (w, acc, s) with s > 0 and s * col = w + sum acc[l] * col_l.
    ``w`` is zero in every pivot row; it is empty exactly when ``col``
    lies in the span of the echelon.  Each step cross-multiplies by the
    gcd-reduced pivot and then divides out the common content of
    (w, acc, s), so all intermediate values stay integral and coprime.
    """
    w = {i: v for i, v in col.items() if v}
    acc: dict[int, int] = {}
    s = 1
    for pivot_row, vec, coord in echelon:
        t = w.get(pivot_row)
        if not t:
            continue
        a = vec[pivot_row]
        g = gcd(a, t)
        if g > 1:
            a //= g
            t //= g
        if a != 1:
            for i in w:
                w[i] *= a
            for l in acc:
                acc[l] *= a
            s *= a
        for i, v in vec.items():
            new = w.get(i, 0) - t * v
            if new:
                w[i] = new
            else:
                del w[i]
        for l, v in coord.items():
            new = acc.get(l, 0) + t * v
            if new:
                acc[l] = new
            else:
                del acc[l]
        if s > 1:  # the content divides s, so s == 1 means none
            g = gcd(s, *w.values(), *acc.values())
            if g > 1:
                s //= g
                for i in w:
                    w[i] //= g
                for l in acc:
                    acc[l] //= g
    return w, acc, s


def _push(
    echelon: Echelon, j: int, w: dict[int, int], acc: dict[int, int], s: int
) -> None:
    """Append the reduced column j (from ``_reduce``) as a new pivot."""
    pivot_row = min(w, key=lambda i: (abs(w[i]), i))
    sign = 1 if w[pivot_row] > 0 else -1
    coord = {l: -sign * v for l, v in acc.items()}
    coord[j] = sign * s
    echelon.append((pivot_row, {i: sign * v for i, v in w.items()}, coord))


def column_factorization(
    cols: SparseColumns,
) -> tuple[list[int], list[dict[int, Fraction]]]:
    """Greedy column echelon with coordinate tracking.

    Returns (pivots, coeffs): ``pivots`` lists the indices of a maximal
    independent subset of the columns (in order), and ``coeffs[j]``
    expresses column j as a combination of the pivot columns,
    cols[j] = sum coeffs[j][l] * cols[l] over l in pivots.
    """
    pivots: list[int] = []
    echelon: Echelon = []
    coeffs: list[dict[int, Fraction]] = []
    for j, col in enumerate(cols):
        w, acc, s = _reduce(echelon, col)
        if w:
            _push(echelon, j, w, acc, s)
            pivots.append(j)
            coeffs.append({j: Fraction(1)})
        else:
            coeffs.append({l: Fraction(v, s) for l, v in acc.items()})
    return pivots, coeffs


def trace_on_image(
    action_cols: SparseColumns,
    factorization: tuple[list[int], list[dict[int, Fraction]]],
) -> Fraction:
    """Trace of an equivariant signed permutation on the column span of d.

    ``action_cols`` is the signed permutation action on the *source* of d
    (one {image: sign} entry per column).  Equivariance makes the action
    permute the columns of d up to sign, so the trace on the image follows
    from ``factorization``, the `column_factorization` of d, alone.
    """
    pivots, coeffs = factorization
    total = Fraction(0)
    for l in pivots:
        (img, sign), = action_cols[l].items()
        total += sign * coeffs[img].get(l, Fraction(0))
    return total

