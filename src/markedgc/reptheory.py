"""Symmetric group representation theory over the rationals.

Characters are computed by the Murnaghan-Nakayama rule with memoization,
decompositions by exact character inner products over one common
denominator, induced products by Littlewood-Richardson tableau
enumeration, and characters induced from explicit subgroups by counting
each cycle type's elements in the subgroup (no sum over S_n).
Everything is exact: values are Python ints or Fractions, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .partitions import (
    Partition,
    conjugate,
    cycle_types,
    enumerate_partitions,
    double,
    size,
)

Permutation = tuple[int, ...]  # images of 0..n-1


# ---------------------------------------------------------------------------
# characters


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type ``mu``."""
    out = 1
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    for j, a in counts.items():
        out *= j**a * factorial(a)
    return out


def class_size(mu: Partition) -> int:
    return factorial(size(mu)) // centralizer_order(mu)


def _beta_set(lam: Partition) -> list[int]:
    k = len(lam)
    return [lam[i] + (k - 1 - i) for i in range(k)]


def _beta_to_partition(beta: list[int]) -> Partition:
    beta = sorted(beta, reverse=True)
    k = len(beta)
    return tuple(b - (k - 1 - i) for i, b in enumerate(beta) if b - (k - 1 - i) > 0)


def border_strips(lam: Partition, length: int):
    """Yield (partition after removal, strip height) for every removable
    border strip of the given length."""
    beta = _beta_set(lam)
    present = set(beta)
    for b in beta:
        target = b - length
        if target >= 0 and target not in present:
            height = sum(1 for c in beta if target < c < b)
            rest = [c for c in beta if c != b] + [target]
            yield _beta_to_partition(rest), height


@cache
def character_value(lam: Partition, mu: Partition) -> int:
    """chi_lambda evaluated on cycle type mu, via Murnaghan-Nakayama."""
    if size(lam) != size(mu):
        raise ValueError("partition sizes differ")
    if not lam:
        return 1
    head, rest = mu[0], mu[1:]
    total = 0
    for nu, height in border_strips(lam, head):
        total += (-1) ** height * character_value(nu, rest)
    return total


@cache
def irreducible_dimension(lam: Partition) -> int:
    return character_value(lam, (1,) * size(lam)) if lam else 1


@dataclass(frozen=True)
class ClassFunction:
    """A rational class function on S_n, one value per cycle type."""

    n: int
    values: dict[Partition, Fraction] = field(compare=False)

    def __post_init__(self):
        expected = cycle_types(self.n)
        if set(self.values) != set(expected):
            raise ValueError("class function must assign a value to every cycle type")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __call__(self, mu: Partition) -> Fraction:
        return self.values[mu]

    @property
    def dim(self) -> Fraction:
        return self.values[(1,) * self.n] if self.n else Fraction(1)

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        return ClassFunction(
            self.n, {mu: self.values[mu] + other.values[mu] for mu in self.values}
        )

    def __mul__(self, other: "ClassFunction") -> "ClassFunction":
        """Pointwise product, i.e. the character of a tensor product."""
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        return ClassFunction(
            self.n, {mu: self.values[mu] * other.values[mu] for mu in self.values}
        )

    def restrict(self) -> "ClassFunction":
        """Restriction to S_{n-1}: evaluate after re-adding a fixed point."""
        if self.n < 1:
            raise ValueError("cannot restrict below S_0")
        vals = {}
        for mu in cycle_types(self.n - 1):
            padded = tuple(sorted(mu + (1,), reverse=True))
            vals[mu] = self.values[padded]
        return ClassFunction(self.n - 1, vals)


@dataclass(frozen=True)
class IrrDecomposition:
    """Multiplicities of irreducibles of S_n; zero entries are omitted."""

    n: int
    mult: dict[Partition, int] = field(compare=False)

    def __post_init__(self):
        clean = {lam: m for lam, m in self.mult.items() if m}
        for lam, m in clean.items():
            if size(lam) != self.n or m < 0:
                raise ValueError(f"bad multiplicity entry {lam}: {m}")
        object.__setattr__(self, "mult", clean)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IrrDecomposition)
            and self.n == other.n
            and self.mult == other.mult
        )

    def __getitem__(self, lam: Partition) -> int:
        return self.mult.get(tuple(lam), 0)

    @property
    def dim(self) -> int:
        return sum(m * irreducible_dimension(lam) for lam, m in self.mult.items())

    def is_zero(self) -> bool:
        return not self.mult

    def items(self):
        """(partition, multiplicity) pairs in canonical partition order."""
        return [(lam, self.mult[lam]) for lam in cycle_types(self.n) if lam in self.mult]

    def character(self) -> ClassFunction:
        vals = {mu: Fraction(0) for mu in cycle_types(self.n)}
        for lam, m in self.mult.items():
            for mu in vals:
                vals[mu] += m * character_value(lam, mu)
        return ClassFunction(self.n, vals)

    def __add__(self, other: "IrrDecomposition") -> "IrrDecomposition":
        if self.n != other.n:
            raise ValueError("mismatched symmetric groups")
        merged = dict(self.mult)
        for lam, m in other.mult.items():
            merged[lam] = merged.get(lam, 0) + m
        return IrrDecomposition(self.n, merged)

    def to_json(self) -> list[dict]:
        return [
            {"partition": list(lam), "mult": m} for lam, m in self.items()
        ]

    def __str__(self) -> str:
        if not self.mult:
            return "0"
        terms = []
        for lam, m in self.items():
            body = ",".join(str(p) for p in lam)
            terms.append(f"{m}({body})" if m != 1 else f"({body})")
        return " + ".join(terms)


def decompose(chi: ClassFunction) -> IrrDecomposition:
    """Inner-product decomposition; rejects non-characters.

    With D the least common denominator of chi's values, the multiplicity
    of lambda is sum_mu |class mu| chi_lambda(mu) (D chi(mu)), an integer,
    divided exactly by n! D."""
    values = [(mu, v) for mu, v in chi.values.items() if v]
    denom = lcm(*(v.denominator for _, v in values))
    weights = [
        (mu, class_size(mu) * v.numerator * (denom // v.denominator))
        for mu, v in values
    ]
    order = factorial(chi.n) * denom
    mult = {}
    for lam in enumerate_partitions(chi.n):
        total = sum(w * character_value(lam, mu) for mu, w in weights)
        coeff, rest = divmod(total, order)
        if rest or coeff < 0:
            raise ValueError(
                f"not a genuine character: <chi, {lam}> = {Fraction(total, order)}"
            )
        if coeff:
            mult[lam] = coeff
    return IrrDecomposition(chi.n, mult)


# ---------------------------------------------------------------------------
# Littlewood-Richardson


@cache
def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """The Littlewood-Richardson coefficient N_{lam,mu,nu}: the multiplicity
    of V_lam in the induced product V_mu o V_nu.  Counts LR skew tableaux of
    shape lam/mu with content nu."""
    if size(lam) != size(mu) + size(nu):
        return 0
    rows = len(lam)
    if len(mu) > rows or len(nu) > rows:
        return 0
    mu_padded = tuple(mu) + (0,) * (rows - len(mu))
    if any(mu_padded[i] > lam[i] for i in range(rows)):
        return 0
    if not nu:
        return 1 if lam == mu else 0

    # cells of lam/mu in reverse reading order: top row first, right to left
    cells = []
    for r in range(rows):
        for c in range(lam[r] - 1, mu_padded[r] - 1, -1):
            cells.append((r, c))

    nparts = len(nu)
    grid = [[0] * lam[r] for r in range(rows)]  # mu boxes stay 0
    counts = [0] * (nparts + 1)

    def fill(idx: int) -> int:
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        lo = grid[r - 1][c] + 1 if r > 0 else 1  # strict down columns
        hi = grid[r][c + 1] if c + 1 < lam[r] else nparts  # weak along rows
        total = 0
        for t in range(lo, hi + 1):
            if counts[t] >= nu[t - 1]:
                continue
            if t > 1 and counts[t] >= counts[t - 1]:
                continue  # lattice condition on the reverse reading word
            grid[r][c] = t
            counts[t] += 1
            total += fill(idx + 1)
            counts[t] -= 1
            grid[r][c] = 0
        return total

    return fill(0)


def induce_product(a: IrrDecomposition, b: IrrDecomposition) -> IrrDecomposition:
    """Bilinear extension of the induced product V_mu o V_nu to decompositions."""
    n = a.n + b.n
    mult: dict[Partition, int] = {}
    for lam in enumerate_partitions(n):
        total = 0
        for mu, am in a.mult.items():
            for nu, bm in b.mult.items():
                total += am * bm * lr_coefficient(lam, mu, nu)
        if total:
            mult[lam] = total
    return IrrDecomposition(n, mult)


def sign_decomposition(n: int) -> IrrDecomposition:
    lam = (1,) * n if n else ()
    return IrrDecomposition(n, {lam: 1})


def tensor_sign(a: IrrDecomposition) -> IrrDecomposition:
    """Tensor with the alternating representation: conjugate every partition."""
    return IrrDecomposition(a.n, {conjugate(lam): m for lam, m in a.mult.items()})


def hyperoctahedral_doubles(y: int) -> IrrDecomposition:
    """Decomposition of Ind from the hyperoctahedral subgroup S_2 wr S_y of
    S_{2y} of the trivial representation: each double 2*tau once."""
    if y < 0:
        raise ValueError("y must be non-negative")
    if y == 0:
        return IrrDecomposition(0, {(): 1})
    return IrrDecomposition(2 * y, {double(tau): 1 for tau in enumerate_partitions(y)})


def decomposition_rows(a: IrrDecomposition) -> int:
    """Largest number of rows over partitions with positive multiplicity."""
    if a.is_zero():
        raise ValueError("rows of the zero decomposition is undefined")
    return max(len(lam) for lam in a.mult)


# ---------------------------------------------------------------------------
# permutations and induction from explicit subgroups


def identity(n: int) -> Permutation:
    return tuple(range(n))


def perm_cycles(p: Permutation) -> list[list[int]]:
    """Cycles of a 0-indexed permutation, each starting at its least
    element, listed by least element."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cyc.append(cur)
            seen[cur] = True
            cur = p[cur]
        cycles.append(cyc)
    return cycles


def perm_cycle_type(p: Permutation) -> Partition:
    return tuple(sorted(map(len, perm_cycles(p)), reverse=True))


def perm_sign(p) -> int:
    """Sign of a 0-indexed permutation given as any sequence of images."""
    # a bare cycle walk: canonical forms call this for every orientation
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def cycle_type_representative(mu: Partition) -> Permutation:
    """A fixed permutation of cycle type ``mu`` (consecutive cycles)."""
    out = []
    start = 0
    for part in mu:
        out.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(out)


def _induce(n: int, order: int, values) -> ClassFunction:
    """Ind_H^{S_n} of a function on a subgroup H of order ``order``, given
    as (h, value) pairs over H.

    Counts classes instead of summing over S_n: the x in S_n with
    x g x^-1 = h number |C(mu)| for each h of g's cycle type mu, so
    Ind(mu) = |C(mu)|/|H| times the sum of the values on H's elements of
    type mu.  Linear in the function, which need not be a character.
    """
    sums = {mu: Fraction(0) for mu in cycle_types(n)}
    for h, value in values:
        sums[perm_cycle_type(h)] += value
    return ClassFunction(
        n, {mu: centralizer_order(mu) * total / order for mu, total in sums.items()}
    )


def induce_from_subgroup(
    n: int, chi: dict[Permutation, int | Fraction]
) -> ClassFunction:
    """Character of Ind_H^{S_n} of a one-dimensional character of H.

    ``chi`` maps each element of a subgroup H of S_n (images of 0..n-1)
    to a rational; its keys are H.  One pass over H x H checks that H is
    closed and chi multiplicative.  The induction formula is evaluated by
    counting classes (`_induce`).
    """
    if identity(n) not in chi:
        raise ValueError("not a subgroup of S_n")
    for a, chi_a in chi.items():
        for b, chi_b in chi.items():
            chi_ab = chi.get(tuple([a[x] for x in b]))
            if chi_ab is None:
                raise ValueError("not a subgroup of S_n")
            if chi_ab != chi_a * chi_b:
                raise ValueError("character of H is not multiplicative")
    return _induce(n, len(chi), chi.items())
