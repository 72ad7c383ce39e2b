"""Genus-1 oracles: Stirling dimensions, the configuration-space
restriction character, and the degree-shift recursion, checked against
computed homology of B(1,n,r).

The homology of B(1,n,r) is concentrated in degree 2(n-r), where it has
the dimension of an unsigned Stirling number of the first kind.  Its
restriction to S_{n-1} decomposes as a sum of one-dimensional characters
induced from centralizers of permutations with r-1 cycles, and the whole
family satisfies a two-step recursion in n and r.  This module builds
those three oracles independently of the chain complexes and compares.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd, lcm

from .complexes import build_complex
from .homology import HomologyProfile, homology_decomposition
from .partitions import cycle_types
from .reptheory import (
    ClassFunction,
    IrrDecomposition,
    _induce,
    cycle_type_representative,
    decompose,
    perm_cycles,
    perm_sign,
)


@cache
def stirling_cycle_count(n: int, k: int) -> int:
    """Number of permutations of n letters with exactly k cycles
    (unsigned Stirling number of the first kind)."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return stirling_cycle_count(n - 1, k - 1) + (n - 1) * stirling_cycle_count(n - 1, k)


@cache
def _mobius(d: int) -> int:
    result = 1
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@cache
def _totient(d: int) -> int:
    return sum(1 for a in range(1, d + 1) if gcd(a, d) == 1)


def _rational_average(exponent: Fraction) -> Fraction:
    """Average of exp(2*pi*i*exponent) over its Galois conjugates.

    A sum of roots of unity that is known to be rational is unchanged by
    averaging each term over the Galois group, and the average of a
    primitive d-th root of unity is mu(d)/phi(d).
    """
    e = exponent - int(exponent)
    if e < 0:
        e += 1
    d = e.denominator
    return Fraction(_mobius(d), _totient(d))


class _CentralizerCharacter:
    """The one-dimensional character Y of the centralizer Z(sigma).

    Z(sigma) is a product over cycle lengths k of wreath products
    Z_k wr S_{a_k}.  Y sends a one-step rotation of a k-cycle to
    zeta_k * (-1)^(k-1) and the exchange of two k-cycles to (-1)^k.
    Values are roots of unity; only their rational Galois averages are
    ever returned.
    """

    def __init__(self, sigma: tuple[int, ...]):
        self.sigma = sigma
        self.cycles = perm_cycles(sigma)
        self.cycle_of = {}
        self.position = {}
        for ci, cyc in enumerate(self.cycles):
            for pos, x in enumerate(cyc):
                self.cycle_of[x] = ci
                self.position[x] = pos
        self.order = lcm(2, *(len(c) for c in self.cycles))

    def centralizes(self, z: tuple[int, ...]) -> bool:
        s = self.sigma
        return all(z[s[i]] == s[z[i]] for i in range(len(s)))

    def rational_value(self, z: tuple[int, ...]) -> Fraction:
        """Galois average of Y(z) for z in Z(sigma)."""
        by_length: dict[int, dict[int, int]] = {}
        exponent = Fraction(0)
        for ci, cyc in enumerate(self.cycles):
            k = len(cyc)
            image = z[cyc[0]]
            cj = self.cycle_of[image]
            shift = self.position[image]
            by_length.setdefault(k, {})[ci] = cj
            # rotation part: zeta_k * (-1)^(k-1) raised to the shift
            exponent += shift * (Fraction(1, k) + Fraction(k - 1, 2))
        for k, mapping in by_length.items():
            indices = sorted(mapping)
            relabel = {ci: pos for pos, ci in enumerate(indices)}
            pi = [relabel[mapping[ci]] for ci in indices]
            if k % 2 == 1 and perm_sign(pi) == -1:
                exponent += Fraction(1, 2)
        return _rational_average(exponent)


def config_restriction_character(n: int, r: int) -> ClassFunction:
    """Character of the S_{n-1} action on H_{2(n-r)}(B(1,n,r)).

    Built independently of any chain complex: a sum over conjugacy
    classes of S_{n-1} with r-1 cycles of the one-dimensional character Y
    induced from the centralizer of a class representative.  Y is taken
    through its rational Galois average, which is no longer multiplicative;
    induction is linear, so the class-counting formula still applies.
    """
    if not 2 <= r <= n - 1 <= 7:
        raise ValueError("config_restriction_character requires 2 <= r <= n-1 <= 7")
    k = n - 1
    elements = list(permutations(range(k)))
    total = ClassFunction(k, {mu: Fraction(0) for mu in cycle_types(k)})
    for mu in cycle_types(k):
        if len(mu) != r - 1:
            continue
        character = _CentralizerCharacter(cycle_type_representative(mu))
        centralizer = [z for z in elements if character.centralizes(z)]
        total += _induce(
            k,
            len(centralizer),
            ((z, character.rational_value(z)) for z in centralizer),
        )
    return total


class GenusOneReport:
    def __init__(self, checks: list[dict], violations: list[str]):
        self.checks, self.violations = checks, violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "checks": self.checks, "violations": self.violations}


def _profile(g: int, n: int, r: int, store: dict) -> HomologyProfile:
    """The homology of B(g, n, r), computed once per ``store``."""
    if (g, n, r) not in store:
        store[g, n, r] = homology_decomposition(build_complex(g, n, r))
    return store[g, n, r]


def _recursion_holds(left: HomologyProfile, lower_r: HomologyProfile,
                     same_r: HomologyProfile, n: int) -> bool:
    """Restriction of H_i(B(1,n+1,r)) to S_n must match
    H_i(B(1,n,r-1)) + H_{i-2}(B(1,n,r)) tensored with the standard
    (n-1,1) representation, in every degree."""
    degrees = set(left.dims) | set(lower_r.dims) | {i + 2 for i in same_r.dims}
    for i in degrees:
        lhs = (
            decompose(left.characters[i].restrict())
            if left.dims.get(i, 0)
            else IrrDecomposition(n, {})
        )
        rhs = IrrDecomposition(n, {})
        if lower_r.dims.get(i, 0):
            rhs += decompose(lower_r.characters[i])
        if same_r.dims.get(i - 2, 0):
            standard = IrrDecomposition(n, {(n - 1, 1): 1})
            rhs += decompose(same_r.characters[i - 2] * standard.character())
        if lhs != rhs:
            return False
    return True


def whitehouse_checks(n_max: int) -> GenusOneReport:
    """Verify the four genus-1 identities for 2 <= r <= n <= n_max:
    concentration, Stirling dimension, restriction character, recursion.

    The recursion between (n+1, r) and (n, r-1)/(n, r) is checked for
    every instance whose three constituents all fall inside the window.
    """
    checks: list[dict] = []
    violations: list[str] = []
    profiles: dict = {}
    pairs = [(n, r) for n in range(2, n_max + 1) for r in range(2, n + 1)]
    for n, r in pairs:
        profile = _profile(1, n, r, profiles)
        entry: dict = {"n": n, "r": r}
        top = 2 * (n - r)
        concentrated = profile.nonzero_degrees() in ([top], [])
        entry["concentrated_in_degree"] = top
        if not concentrated:
            violations.append(
                f"B(1,{n},{r}): homology not concentrated in degree {top}"
            )
        expected_dim = stirling_cycle_count(n - 1, r - 1)
        entry["dim"] = profile.dims.get(top, 0)
        entry["stirling_dim"] = expected_dim
        if profile.dims.get(top, 0) != expected_dim:
            violations.append(
                f"B(1,{n},{r}): dim {profile.dims.get(top, 0)} != "
                f"Stirling count {expected_dim}"
            )
        if 2 <= r <= n - 1 <= 7:
            oracle = config_restriction_character(n, r)
            matches = profile.characters[top].restrict() == oracle
            entry["restriction_matches"] = matches
            if not matches:
                violations.append(
                    f"B(1,{n},{r}): restriction character differs from "
                    "centralizer-induced oracle"
                )
        checks.append(entry)
    for n, r in pairs:
        # recursion instance: all three constituents inside the window
        if n + 1 > n_max or r - 1 < 1 or (1, n, r) not in profiles:
            continue
        left = _profile(1, n + 1, r, profiles)
        lower_r = _profile(1, n, r - 1, profiles)
        same_r = profiles[(1, n, r)]
        holds = _recursion_holds(left, lower_r, same_r, n)
        checks.append({"recursion": [n + 1, r], "holds": holds})
        if not holds:
            violations.append(f"recursion fails at B(1,{n + 1},{r})")
    return GenusOneReport(checks=checks, violations=violations)
