from fractions import Fraction
from itertools import permutations

import pytest

from markedgc.partitions import cycle_types
from markedgc.reptheory import (
    ClassFunction,
    cycle_type_representative,
    decompose,
)
from markedgc.whitehouse import (
    _CentralizerCharacter,
    config_restriction_character,
    stirling_cycle_count,
    whitehouse_checks,
)
from perms import compose, inverse


def brute_cycle_count(n, k):
    """Oracle: count permutations of n letters with exactly k cycles."""
    total = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
        if cycles == k:
            total += 1
    return total


@pytest.mark.parametrize("n", range(0, 8))
def test_stirling_against_brute_force(n):
    for k in range(n + 2):
        assert stirling_cycle_count(n, k) == brute_cycle_count(n, k)


def test_stirling_examples():
    assert stirling_cycle_count(3, 2) == 3
    assert stirling_cycle_count(4, 2) == 11
    assert all(stirling_cycle_count(n, n) == 1 for n in range(6))


def test_stirling_rejects_negative():
    with pytest.raises(ValueError):
        stirling_cycle_count(-1, 0)


# ---------------------------------------------------------------------------
# restriction character


def test_smallest_restriction_is_trivial():
    chi = config_restriction_character(3, 2)
    assert chi.n == 2
    assert all(v == Fraction(1) for v in (chi(mu) for mu in cycle_types(2)))


@pytest.mark.parametrize(
    "n,r", [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 3), (6, 5)]
)
def test_restriction_dimension_is_stirling(n, r):
    chi = config_restriction_character(n, r)
    assert chi.dim == stirling_cycle_count(n - 1, r - 1)
    # the character must be an honest (integral, nonnegative) character
    dec = decompose(chi)
    assert dec.dim == chi.dim
    assert all(m > 0 for _, m in dec.items())


def test_restriction_out_of_regime():
    with pytest.raises(ValueError):
        config_restriction_character(3, 3)
    with pytest.raises(ValueError):
        config_restriction_character(10, 2)


def oracle_config_restriction_character(n, r):
    """The restriction character by the conjugation sum over S_{n-1}."""
    k = n - 1
    values = {mu: Fraction(0) for mu in cycle_types(k)}
    elements = list(permutations(range(k)))
    for mu in cycle_types(k):
        if len(mu) != r - 1:
            continue
        character = _CentralizerCharacter(cycle_type_representative(mu))
        order = sum(1 for z in elements if character.centralizes(z))
        for tau_type in values:
            tau = cycle_type_representative(tau_type)
            total = Fraction(0)
            for x in elements:
                z = compose(compose(x, tau), inverse(x))
                if character.centralizes(z):
                    total += character.rational_value(z)
            values[tau_type] += total / order
    return ClassFunction(k, values)


@pytest.mark.parametrize(
    "n,r", [(n, r) for n in range(3, 8) for r in range(2, n)], ids=str
)
def test_restriction_character_matches_conjugation_sum(n, r):
    assert config_restriction_character(n, r) == (
        oracle_config_restriction_character(n, r)
    )


def test_known_decomposition_4_3():
    # classes of S_3 with 2 cycles: type (2,1) only
    dec = decompose(config_restriction_character(4, 3))
    assert dict(dec.items()) == {(3,): 1, (2, 1): 1}


# ---------------------------------------------------------------------------
# full genus-1 verification


def test_whitehouse_checks_window():
    report = whitehouse_checks(5)
    assert report.ok, report.violations
    entries = {(e["n"], e["r"]): e for e in report.checks if "n" in e}
    assert entries[(4, 3)]["dim"] == 3
    assert entries[(5, 3)]["dim"] == 11
    assert entries[(4, 3)]["restriction_matches"] is True
    recursions = [e for e in report.checks if "recursion" in e]
    assert recursions and all(e["holds"] for e in recursions)
    payload = report.to_json()
    assert payload["ok"] is True and payload["violations"] == []
