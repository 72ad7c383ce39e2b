"""The `Fraction` paths that the integer kernels replaced, kept as oracles.

`fraction_column_factorization` is the greedy column echelon in input
order with rational coordinates, `fraction_trace_on_image` reads an image
trace off it one `Fraction` at a time, and `fraction_decompose` takes one
rational inner product per irreducible.  `linalg.column_factorization`
eliminates from the last column and keeps integer coordinates, so it
equals `reversed_factorization`; `linalg.trace_on_image` and
`reptheory.decompose` must equal the other two exactly.
"""

from fractions import Fraction
from math import factorial

from markedgc.partitions import cycle_types, enumerate_partitions, size
from markedgc.reptheory import (
    ClassFunction,
    IrrDecomposition,
    character_value,
    class_size,
    decompose,
)


def fraction_column_factorization(cols):
    """Reference greedy column echelon in Fraction arithmetic.

    Returns (pivots, coeffs): the greedy pivot columns in input order and
    the (unique) coordinates of every column in them,
    cols[j] = sum coeffs[j][l] * cols[l].
    """
    pivots = []
    echelon = []
    coeffs = []
    for j, col in enumerate(cols):
        w = {i: Fraction(v) for i, v in col.items() if v}
        acc = {}
        for pivot_row, vec, coord in echelon:
            t = w.get(pivot_row)
            if not t:
                continue
            for i, v in vec.items():
                new = w.get(i, Fraction(0)) - t * v
                if new:
                    w[i] = new
                elif i in w:
                    del w[i]
            for l, v in coord.items():
                new = acc.get(l, Fraction(0)) + t * v
                if new:
                    acc[l] = new
                elif l in acc:
                    del acc[l]
        if w:
            pivot_row = min(w, key=lambda i: (len(str(w[i])), i))
            scale = w[pivot_row]
            vec = {i: v / scale for i, v in w.items()}
            coord = {l: -v / scale for l, v in acc.items()}
            coord[j] = 1 / scale
            echelon.append((pivot_row, vec, coord))
            pivots.append(j)
            coeffs.append({j: Fraction(1)})
        else:
            coeffs.append(acc)
    return pivots, coeffs


def reversed_factorization(cols):
    """The oracle run on the reversed column list, indices mapped back:
    what `linalg.column_factorization` must return, with its integer
    coordinates (acc, s) read as acc / s."""
    last = len(cols) - 1
    pivots, coeffs = fraction_column_factorization(cols[::-1])
    return (
        [last - l for l in pivots],
        [{last - l: v for l, v in coeffs[last - j].items()} for j in range(len(cols))],
    )


def fraction_trace_on_image(action, factorization):
    """Trace of a signed permutation on the image, from a
    `fraction_column_factorization`, summed one Fraction at a time."""
    images, signs = action
    pivots, coeffs = factorization
    total = Fraction(0)
    for l in pivots:
        total += signs[l] * coeffs[images[l]].get(l, Fraction(0))
    return total


def irreducible_character(lam) -> ClassFunction:
    n = size(lam)
    return ClassFunction(
        n, {mu: Fraction(character_value(lam, mu)) for mu in cycle_types(n)}
    )


def inner(a: ClassFunction, b: ClassFunction) -> Fraction:
    """The character inner product <a, b> = (1/n!) sum_g a(g) b(g)."""
    total = sum(
        class_size(mu) * a.values[mu] * b.values[mu] for mu in cycle_types(a.n)
    )
    return Fraction(total, factorial(a.n))


def fraction_decompose(chi: ClassFunction) -> IrrDecomposition:
    """Inner-product decomposition in Fractions; rejects non-characters
    with the message `reptheory.decompose` gives."""
    mult = {}
    for lam in enumerate_partitions(chi.n):
        coeff = inner(chi, irreducible_character(lam))
        if coeff.denominator != 1 or coeff < 0:
            raise ValueError(f"not a genuine character: <chi, {lam}> = {coeff}")
        if coeff:
            mult[lam] = int(coeff)
    return IrrDecomposition(chi.n, mult)


def assert_decompose_matches(chi: ClassFunction) -> None:
    """`reptheory.decompose` of ``chi`` equals the oracle's decomposition,
    or raises ValueError with the oracle's message."""
    try:
        expected = fraction_decompose(chi)
    except ValueError as err:
        try:
            decompose(chi)
        except ValueError as got:
            assert str(got) == str(err)
        else:
            raise AssertionError(f"accepted a non-character: {err}")
        return
    assert decompose(chi) == expected
