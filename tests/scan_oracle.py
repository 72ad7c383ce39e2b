"""The full-scan reduction that `linalg._reduce` replaced, kept as the
tests' oracle.  It visits every echelon entry in position order and acts
where the vector is nonzero at the entry's pivot row; `_reduce` visits
only the pivots the vector reaches and must return the same (w, s), with
the same key order in w."""

from math import gcd

from markedgc.linalg import Echelon


def scan_reduce(echelon: Echelon, vec: dict[int, int]) -> tuple[dict[int, int], int]:
    w = {i: v for i, v in vec.items() if v}
    s = 1
    for pivot_row, (_, piv) in echelon.items():
        t = w.get(pivot_row)
        if not t:
            continue
        a = piv[pivot_row]
        g = gcd(a, t)
        if g > 1:
            a //= g
            t //= g
        if a != 1:
            for i in w:
                w[i] *= a
            s *= a
        for i, v in piv.items():
            new = w.get(i, 0) - t * v
            if new:
                w[i] = new
            else:
                del w[i]
        if s > 1:
            g = gcd(s, *w.values())
            if g > 1:
                s //= g
                for i in w:
                    w[i] //= g
    return w, s
