import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from markedgc.partitions import (
    conjugate,
    cycle_types,
    enumerate_partitions,
    size,
)
from markedgc.reptheory import (
    ClassFunction,
    IrrDecomposition,
    centralizer_order,
    character_value,
    class_size,
    cycle_type_representative,
    decompose,
    decomposition_rows,
    hyperoctahedral_doubles,
    identity,
    induce_from_subgroup,
    induce_product,
    irreducible_dimension,
    lr_coefficient,
    perm_cycle_type,
    perm_sign,
    sign_decomposition,
    tensor_sign,
)
from fraction_oracle import (
    assert_decompose_matches,
    irreducible_character,
    lr_by_characters,
)
from perms import compose, cycle_walk_sign, generated_subgroup, inverse


# ---------------------------------------------------------------------------
# character values


def hook_length_dimension(lam):
    """Independent dimension oracle via the hook length formula."""
    from math import factorial

    col = conjugate(lam)
    prod = 1
    for i, row in enumerate(lam):
        for j in range(row):
            prod *= row - j + col[j] - i - 1
    return factorial(size(lam)) // prod


@pytest.mark.parametrize("n", range(1, 8))
def test_dimensions_match_hook_lengths(n):
    for lam in enumerate_partitions(n):
        assert character_value(lam, (1,) * n) == hook_length_dimension(lam)
        assert irreducible_dimension(lam) == hook_length_dimension(lam)


def test_known_character_table_s3():
    # standard S_3 table
    assert character_value((3,), (3,)) == 1
    assert character_value((2, 1), (3,)) == -1
    assert character_value((2, 1), (2, 1)) == 0
    assert character_value((1, 1, 1), (2, 1)) == -1


@pytest.mark.parametrize("n", range(1, 8))
def test_character_orthogonality(n):
    from math import factorial

    irreps = enumerate_partitions(n)
    for a in irreps:
        for b in irreps:
            total = sum(
                class_size(mu) * character_value(a, mu) * character_value(b, mu)
                for mu in cycle_types(n)
            )
            assert total == (factorial(n) if a == b else 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_centralizer_class_size_product(n):
    from math import factorial

    for mu in cycle_types(n):
        assert centralizer_order(mu) * class_size(mu) == factorial(n)


def test_sign_character_is_conjugation():
    for n in range(1, 6):
        for lam in enumerate_partitions(n):
            for mu in cycle_types(n):
                sign = perm_sign(cycle_type_representative(mu))
                assert character_value(conjugate(lam), mu) == sign * character_value(
                    lam, mu
                )


# ---------------------------------------------------------------------------
# decomposition


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_class_function_dim_is_the_identity_value(n):
    """dim reads the value at (1^n), on S_0 too, where (1^0) = ()."""
    for value in (0, 1, 3, Fraction(-1, 2)):
        chi = ClassFunction(n, {mu: Fraction(value) for mu in cycle_types(n)})
        assert chi.dim == value


def test_decompose_regular_representation():
    n = 5
    from math import factorial

    values = {mu: Fraction(0) for mu in cycle_types(n)}
    values[(1,) * n] = Fraction(factorial(n))
    dec = decompose(ClassFunction(n, values))
    for lam in enumerate_partitions(n):
        assert dec[lam] == irreducible_dimension(lam)


def test_decompose_rejects_non_character():
    values = {mu: Fraction(1, 2) for mu in cycle_types(3)}
    with pytest.raises(ValueError, match=r"<chi, \(3,\)> = 1/2"):
        decompose(ClassFunction(3, values))


def test_class_function_needs_every_cycle_type():
    values = {mu: Fraction(1) for mu in cycle_types(4)}
    del values[(2, 2)]
    with pytest.raises(ValueError, match="every cycle type"):
        ClassFunction(4, values)


@pytest.mark.parametrize(
    "mult", [{(2, 1): -1}, {(2, 2): 1}, {(3,): 1, (2,): 1}],
    ids=["negative", "partition of 4", "partition of 2"],
)
def test_irr_decomposition_rejects_bad_entries(mult):
    with pytest.raises(ValueError, match="bad multiplicity entry"):
        IrrDecomposition(3, mult)


def test_irr_decomposition_drops_zero_entries():
    dec = IrrDecomposition(3, {(3,): 2, (2, 1): 0, (1, 1, 1): 0})
    assert dec.mult == {(3,): 2}
    assert dec == IrrDecomposition(3, {(3,): 2})
    assert str(dec) == "2(3)"


@pytest.mark.parametrize("seed", range(40))
def test_decompose_matches_fraction_oracle(seed):
    """Characters, virtual characters and class functions with
    denominators decompose, or are rejected, as the oracle does."""
    rng = random.Random(seed)
    n = rng.randint(0, 6)
    values = {mu: Fraction(0) for mu in cycle_types(n)}
    for lam in enumerate_partitions(n):
        m = rng.choice([0, 0, 1, 2, 5])
        if m:
            for mu in values:
                values[mu] += m * character_value(lam, mu)
    kind = rng.choice(["character", "virtual", "fraction"])
    if kind != "character":
        lam = rng.choice(enumerate_partitions(n))
        scale = -1 if kind == "virtual" else Fraction(1, rng.choice([2, 3, 7]))
        for mu in values:
            values[mu] += scale * character_value(lam, mu)
    assert_decompose_matches(ClassFunction(n, values))


def test_decomposition_statistics():
    dec = IrrDecomposition(6, {(4, 2): 1, (3, 1, 1, 1): 2})
    assert decomposition_rows(dec) == 4
    with pytest.raises(ValueError):
        decomposition_rows(IrrDecomposition(3, {}))


def test_paper_style_rendering():
    dec = IrrDecomposition(6, {(3, 3): 2, (4, 1, 1): 1})
    assert str(dec) == "(4,1^2) + 2(3,3)"


# ---------------------------------------------------------------------------
# Littlewood-Richardson


@pytest.mark.parametrize("n", range(2, 9))
def test_lr_against_character_inner_products(n):
    for lam in enumerate_partitions(n):
        for a in range(n + 1):
            for mu in enumerate_partitions(a):
                for nu in enumerate_partitions(n - a):
                    assert lr_coefficient(lam, mu, nu) == lr_by_characters(
                        lam, mu, nu
                    )


def test_pieri_rule_example():
    # (2,1) * (2) expands by adding a horizontal 2-strip
    expanded = {
        lam: lr_coefficient(lam, (2, 1), (2,)) for lam in enumerate_partitions(5)
    }
    assert {k for k, v in expanded.items() if v} == {
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
    }
    assert all(v in (0, 1) for v in expanded.values())


def test_induce_product_dimension():
    from math import comb

    a = IrrDecomposition(3, {(2, 1): 1})
    b = IrrDecomposition(2, {(1, 1): 1})
    prod = induce_product(a, b)
    assert prod.dim == comb(5, 3) * 2 * 1


# ---------------------------------------------------------------------------
# standard constructions


def test_trivial_and_sign():
    assert sign_decomposition(4)[(1, 1, 1, 1)] == 1
    assert tensor_sign(IrrDecomposition(4, {(4,): 1})) == sign_decomposition(4)


def branching_rule(lam):
    """Restriction of V_lam to S_{n-1}: remove one corner box in every way."""
    mult = {}
    for i in range(len(lam)):
        if i + 1 < len(lam) and lam[i] == lam[i + 1]:
            continue  # not a removable corner
        below = tuple(p - 1 if j == i else p for j, p in enumerate(lam))
        below = tuple(p for p in below if p)
        mult[below] = mult.get(below, 0) + 1
    return IrrDecomposition(size(lam) - 1, mult)


def test_restrict_matches_character_restriction():
    assert dict(branching_rule((2, 1)).items()) == {(2,): 1, (1, 1): 1}
    for lam in enumerate_partitions(5):
        by_char = decompose(irreducible_character(lam).restrict())
        assert branching_rule(lam) == by_char


@pytest.mark.parametrize("y", [0, 1, 2, 3])
def test_hyperoctahedral_doubles_against_direct_induction(y):
    doubles = hyperoctahedral_doubles(y)
    if y == 0:
        assert doubles.dim == 1
        return
    n = 2 * y
    gens = []
    for i in range(y):
        swap = list(range(n))
        swap[2 * i], swap[2 * i + 1] = swap[2 * i + 1], swap[2 * i]
        gens.append(tuple(swap))
    for i in range(y - 1):
        block = list(range(n))
        block[2 * i], block[2 * i + 2] = block[2 * i + 2], block[2 * i]
        block[2 * i + 1], block[2 * i + 3] = block[2 * i + 3], block[2 * i + 1]
        gens.append(tuple(block))
    subgroup = generated_subgroup(n, gens)
    from math import factorial

    assert len(subgroup) == 2**y * factorial(y)
    induced = decompose(
        induce_from_subgroup(n, {h: 1 for h in subgroup})
    )
    assert induced == doubles


# ---------------------------------------------------------------------------
# permutation helpers


perm_strategy = st.integers(1, 6).flatmap(
    lambda n: st.permutations(list(range(n)))
)


@given(perm_strategy)
def test_compose_inverse(p):
    p = tuple(p)
    assert compose(p, inverse(p)) == identity(len(p))
    assert perm_sign(inverse(p)) == perm_sign(p)


@given(perm_strategy)
def test_cycle_type_is_partition_of_n(p):
    p = tuple(p)
    mu = perm_cycle_type(p)
    assert size(mu) == len(p)
    assert perm_cycle_type(cycle_type_representative(mu)) == mu


@settings(deadline=None)
@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
def test_sign_multiplicative(p, q):
    p, q = tuple(p), tuple(q)
    assert perm_sign(compose(p, q)) == perm_sign(p) * perm_sign(q)


def test_perm_sign_matches_cycle_walk_on_every_small_permutation():
    for n in range(7):
        for p in permutations(range(n)):
            assert perm_sign(p) == cycle_walk_sign(p), p


@given(st.lists(st.integers(-50, 50), max_size=12, unique=True))
def test_perm_sign_is_the_parity_of_the_argsort(seq):
    argsort = tuple(sorted(range(len(seq)), key=seq.__getitem__))
    assert perm_sign(seq) == cycle_walk_sign(argsort)


def test_induce_from_subgroup_rejects_a_set_that_is_not_closed():
    with pytest.raises(ValueError, match="not a subgroup"):
        induce_from_subgroup(3, {(0, 1, 2): 1, (1, 2, 0): 1})
    with pytest.raises(ValueError, match="not a subgroup"):
        induce_from_subgroup(3, {(1, 2, 0): 1, (2, 0, 1): 1})


def test_induce_from_subgroup_rejects_bad_character():
    cyclic = generated_subgroup(3, [(1, 2, 0)])
    bad = {h: (2 if h != identity(3) else 1) for h in cyclic}
    with pytest.raises(ValueError):
        induce_from_subgroup(3, bad)


def test_induce_sign_from_alternating():
    # Ind_{A_3}^{S_3}(triv) = triv + sign
    a3 = generated_subgroup(3, [(1, 2, 0)])
    dec = decompose(induce_from_subgroup(3, {h: 1 for h in a3}))
    assert dict(dec.items()) == {(3,): 1, (1, 1, 1): 1}


# ---------------------------------------------------------------------------
# induction by class counting against the conjugation sum over S_n


def oracle_induce_from_subgroup(n, subgroup, chi):
    """Ind_H^{S_n} chi by the conjugation sum over all n! permutations."""
    elements = frozenset(subgroup)
    values = {}
    for mu in cycle_types(n):
        rep = cycle_type_representative(mu)
        total = Fraction(0)
        for x in permutations(range(n)):
            conj = compose(compose(x, rep), inverse(x))
            if conj in elements:
                total += chi[conj]
        values[mu] = total / len(elements)
    return ClassFunction(n, values)


def _orbits(n, elements):
    orbit_of = list(range(n))
    for h in elements:
        for i in range(n):
            a, b = orbit_of[i], orbit_of[h[i]]
            if a != b:
                orbit_of = [a if o == b else o for o in orbit_of]
    orbits = {}
    for i, o in enumerate(orbit_of):
        orbits.setdefault(o, []).append(i)
    return list(orbits.values())


def genus_two_leg_groups():
    """The distinct leg groups, with det-signs, of the genus-2 cores of type
    (2, k, u) with k <= 6 and u >= k - 2, and of their cut graphs with at
    most six legs."""
    from markedgc.graphs import canonical_form, cut_edge
    from markedgc.stability import enumerate_core_graphs

    graphs = []
    for k in range(7):
        for u in range(max(k - 2, 0), (3 + k) // 2 + 1):
            for xi in enumerate_core_graphs(2, k, u):
                graphs.append(xi.graph)
                if k + 2 <= 6:
                    for e in xi.graph.edges:
                        try:
                            graphs.append(cut_edge(xi.graph, e))
                        except ValueError:
                            continue
    groups = {}
    for graph in graphs:
        group = canonical_form(graph)[0].leg_group
        if group is None:
            continue
        symmetry = group.elements()
        groups.setdefault(frozenset(symmetry.items()), (group.n, symmetry))
    return list(groups.values())


def test_induce_from_subgroup_matches_conjugation_sum_on_core_leg_groups():
    groups = genus_two_leg_groups()
    assert len(groups) > 40
    for k, symmetry in groups:
        assert induce_from_subgroup(k, symmetry) == (
            oracle_induce_from_subgroup(k, symmetry.keys(), symmetry)
        )


@st.composite
def subgroups_with_sign_characters(draw):
    """A subgroup of S_n (n <= 5) from random generators, with the +-1
    character h -> prod over chosen H-orbits A of sign(h restricted to A)."""
    n = draw(st.integers(1, 5))
    gens = draw(st.lists(st.permutations(list(range(n))), max_size=3))
    elements = generated_subgroup(n, gens)
    orbits = _orbits(n, elements)
    chosen = [orb for orb in orbits if draw(st.booleans())]
    chi = {}
    for h in elements:
        value = 1
        for orb in chosen:
            value *= perm_sign([orb.index(h[i]) for i in orb])
        chi[h] = value
    return n, elements, chi


@settings(max_examples=150, deadline=None)
@given(subgroups_with_sign_characters())
def test_induce_from_subgroup_matches_conjugation_sum(case):
    n, elements, chi = case
    assert induce_from_subgroup(n, chi) == oracle_induce_from_subgroup(
        n, elements, chi
    )
