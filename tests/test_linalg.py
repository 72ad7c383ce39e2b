import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from markedgc.complexes import build_complex, group_action_matrix
from markedgc.linalg import (
    column_factorization,
    rank,
    trace_on_image,
)
from markedgc.partitions import cycle_types
from markedgc.reptheory import cycle_type_representative, perm_cycles
from fraction_oracle import (
    fraction_column_factorization,
    fraction_trace_on_image,
    reversed_factorization,
)
from solve_oracle import span_solver, trace_by_solves


def dense_rank(cols, nrows):
    """Reference rank by dense fraction-based Gaussian elimination."""
    mat = [[Fraction(col.get(i, 0)) for col in cols] for i in range(nrows)]
    r = 0
    for j in range(len(cols)):
        pivot = next((i for i in range(r, nrows) if mat[i][j]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][j]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][j]:
                f = mat[i][j]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def as_fractions(factorization):
    """Integer coordinates (acc, s) as the rationals acc / s, each checked
    to be in lowest terms with s > 0."""
    pivots, coords = factorization
    coeffs = []
    for acc, s in coords:
        assert s > 0 and gcd(s, *acc.values()) == 1
        coeffs.append({l: Fraction(v, s) for l, v in acc.items()})
    return pivots, coeffs


def assert_matches_oracle(cols):
    """The integer kernel returns exactly the Fraction oracle's output on
    the reversed columns, and span solves against the pivot columns
    return the same coordinates."""
    pivots, coeffs = as_fractions(column_factorization(cols))
    assert (pivots, coeffs) == reversed_factorization(cols)
    if pivots:
        solve = span_solver([cols[l] for l in pivots])
        for j, col in enumerate(cols):
            assert solve(col) == {
                pos: coeffs[j][l]
                for pos, l in enumerate(pivots)
                if l in coeffs[j]
            }


def random_cols(rng, nrows, ncols, density=0.4, lo=-5, hi=5):
    return [
        {
            i: rng.randint(lo, hi) or 1
            for i in range(nrows)
            if rng.random() < density
        }
        for _ in range(ncols)
    ]


@pytest.mark.parametrize("seed", range(40))
def test_rank_matches_dense_reference(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 12)
    ncols = rng.randint(1, 12)
    cols = random_cols(rng, nrows, ncols)
    assert rank(cols) == dense_rank(cols, nrows)


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank([{0: 2}, {0: -3}]) == 1
    assert rank([{0: 1}, {1: 1}, {0: 1, 1: 1}]) == 2


@pytest.mark.parametrize("seed", range(40))
def test_column_factorization_reconstructs_columns(seed):
    rng = random.Random(seed)
    nrows = rng.randint(1, 10)
    ncols = rng.randint(1, 10)
    cols = random_cols(rng, nrows, ncols)
    pivots, coords = column_factorization(cols)
    assert len(pivots) == dense_rank(cols, nrows)
    for j, col in enumerate(cols):
        acc, s = coords[j]
        rebuilt: dict[int, int] = {}
        for l, c in acc.items():
            assert l in pivots
            for i, v in cols[l].items():
                rebuilt[i] = rebuilt.get(i, 0) + c * v
        assert {i: v for i, v in rebuilt.items() if v} == {
            i: s * v for i, v in col.items() if v
        }


def combine(rng, cols, lo, hi):
    """A random integer combination of some of ``cols``."""
    out = {}
    for col in rng.sample(cols, rng.randint(1, len(cols))):
        c = rng.randint(lo, hi) or 1
        for i, v in col.items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


@pytest.mark.parametrize("seed", range(60))
def test_column_factorization_matches_fraction_oracle(seed):
    """Large entries, zero columns, repeated columns and dependent columns
    all give the oracle's pivots and coordinates exactly."""
    rng = random.Random(seed)
    bound = rng.choice([5, 1000, 10**6])
    nrows = rng.randint(1, 14)
    cols = random_cols(
        rng, nrows, rng.randint(1, 10), rng.uniform(0.2, 0.9), -bound, bound
    )
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(["zero", "repeat", "dependent"])
        if kind == "zero":
            col = {}
        elif kind == "repeat":
            col = dict(rng.choice(cols))
        else:
            col = combine(rng, cols, -bound, bound)
        cols.insert(rng.randint(0, len(cols)), col)
    assert_matches_oracle(cols)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.integers(0, 7), st.integers(-(10**6), 10**6), max_size=8
        ),
        max_size=10,
    )
)
def test_column_factorization_oracle_property(cols):
    assert_matches_oracle(cols)


ACCEPTANCE_COMPLEXES = [(2, 5, 5), (2, 6, 6), (3, 6, 7)]


@pytest.mark.parametrize("key", ACCEPTANCE_COMPLEXES)
def test_column_factorization_oracle_on_differentials(key):
    """On every differential: the factorization is the oracle's on the
    reversed columns, and every cycle type's image trace equals the
    input-order oracle's and the one by linear solves."""
    c = build_complex(*key)
    sigmas = [cycle_type_representative(mu) for mu in cycle_types(c.n)]
    for i in c.degrees():
        cols = c.diff.get(i, [])
        factorization = column_factorization(cols)
        assert as_fractions(factorization) == reversed_factorization(cols)
        if not cols:
            continue
        oracle = fraction_column_factorization(cols)
        by_solves = trace_by_solves(cols)
        for sigma in sigmas:
            action = group_action_matrix(c, i, sigma)
            got = trace_on_image(action, factorization)
            assert got == fraction_trace_on_image(action, oracle)
            assert got == by_solves(action)


@pytest.mark.parametrize("seed", range(20))
def test_span_solver_solves_and_rejects(seed):
    rng = random.Random(seed)
    nrows = rng.randint(2, 10)
    cols = random_cols(rng, nrows, nrows + 3)
    pivots, _ = column_factorization(cols)
    basis = [cols[l] for l in pivots]
    if not basis:
        return
    solve = span_solver(basis)
    # every original column must be expressible
    for col in cols:
        coords = solve(col)
        assert coords is not None
        rebuilt: dict[int, Fraction] = {}
        for pos, c in coords.items():
            for i, v in basis[pos].items():
                rebuilt[i] = rebuilt.get(i, Fraction(0)) + c * v
        assert {i: v for i, v in rebuilt.items() if v} == {
            i: Fraction(v) for i, v in col.items() if v
        }
    # a vector outside the span must be rejected
    if len(pivots) < nrows:
        in_span = {i for col in basis for i in col}
        outside_row = next(i for i in range(nrows + 1) if i not in in_span)
        assert solve({outside_row: 1}) is None or len(pivots) == nrows


def test_span_solver_requires_independence():
    with pytest.raises(ValueError):
        span_solver([{0: 1}, {0: 2}])


def equivariant_matrix(rng):
    """Columns closed under a signed row permutation tau, with tau's
    signed permutation of the columns: (cols, action).

    Each orbit is s_k tau^k v for k < L, with L twice the order of tau's
    row permutation (so tau^L = 1) and random signs s_k; tau sends column
    k of an orbit to s_k s_{k+1} times column k + 1.  Orbits of random
    integer vectors in few rows give many dependent columns with
    non-trivial denominators.
    """
    nrows = rng.randint(1, 6)
    perm = list(range(nrows))
    rng.shuffle(perm)
    row_signs = [rng.choice([1, -1]) for _ in range(nrows)]
    period = 2 * lcm(*map(len, perm_cycles(perm)))
    cols, action = [], []
    for _ in range(rng.randint(1, 3)):
        vec = {i: rng.randint(-4, 4) for i in range(nrows)}
        vec = {i: v for i, v in vec.items() if v}
        signs = [rng.choice([1, -1]) for _ in range(period)]
        first = len(cols)
        for k in range(period):
            nxt = (k + 1) % period
            cols.append({i: signs[k] * v for i, v in vec.items()})
            action.append((first + nxt, signs[k] * signs[nxt]))
            vec = {perm[i]: row_signs[i] * v for i, v in vec.items()}
        assert vec == {i: v * signs[0] for i, v in cols[first].items()}
    shuffle = list(range(len(cols)))
    rng.shuffle(shuffle)
    where = {old: new for new, old in enumerate(shuffle)}
    return (
        [cols[old] for old in shuffle],
        [(where[action[old][0]], action[old][1]) for old in shuffle],
    )


@pytest.mark.parametrize("seed", range(40))
def test_trace_on_image_signed_permutation(seed):
    """The trace equals the input-order Fraction oracle's and the one by
    linear solves, on columns closed under a signed permutation."""
    cols, action = equivariant_matrix(random.Random(seed))
    got = trace_on_image(action, column_factorization(cols))
    assert got == fraction_trace_on_image(
        action, fraction_column_factorization(cols)
    )
    assert got == trace_by_solves(cols)(action)


def test_trace_on_image_identity_action():
    cols = [{0: 1, 1: 2}, {1: 1}, {0: 1, 1: 3}]
    action = [(j, 1) for j in range(3)]
    assert trace_on_image(action, column_factorization(cols)) == rank(cols)
