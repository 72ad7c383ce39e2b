"""The Markowitz-pivoting rank that `linalg.rank` replaced, kept as the
tests' oracle.  It eliminates the rows of a column-sparse matrix and picks
each pivot from the sparsest column and, in it, the shortest row, so it
shares no pivot order and no code with `linalg`'s `_reduce` kernel."""

from math import gcd


def markowitz_rank(cols: list[dict[int, int]]) -> int:
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
