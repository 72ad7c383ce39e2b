"""The rank-based stability conditions 1 and 2 that `stability` replaced
by reading psi's columns, kept as the tests' oracle: condition 1 is the
rank of the stabilization map psi in each degree, condition 2 the rank
of psi stacked over the n + 1 coset representatives of S_{n+1}/S_n."""

from markedgc.complexes import ChainMap, group_action_matrix
from markedgc.linalg import rank


def _injective(psi: ChainMap) -> bool:
    return all(
        rank(psi.cols[i]) == psi.source.dim(i) for i in psi.source.degrees()
    )


def _generating(psi: ChainMap) -> bool:
    """Does the S_{n+1}-orbit of the image span the target?

    Coset representatives of S_{n+1}/S_n suffice: the identity and the
    transpositions (j, n+1).
    """
    target = psi.target
    n1 = target.n
    reps = [tuple(range(n1))]
    for j in range(n1 - 1):
        t = list(range(n1))
        t[j], t[n1 - 1] = t[n1 - 1], t[j]
        reps.append(tuple(t))
    for i in target.degrees():
        dim = target.dim(i)
        if not dim:
            continue
        psi_cols = psi.cols.get(i, [])
        stacked = []
        for sigma in reps:
            images, signs = group_action_matrix(target, i, sigma)
            stacked += [
                {images[row]: signs[row] * v for row, v in col.items()}
                for col in psi_cols
            ]
        if rank(stacked) < dim:
            return False
    return True


def conditions(psi: ChainMap) -> tuple[bool, bool]:
    """(condition 1, condition 2) by rank."""
    return _injective(psi), _generating(psi)
