"""The rank-based stability conditions 1 and 2 that `stability` replaced
by set checks on psi's images, kept as the tests' oracle: condition 1 is
the rank of the stabilization map psi in each degree, condition 2 the
rank of psi stacked over the n + 1 coset representatives of S_{n+1}/S_n.
psi and the S_{n+1} action are signed maps (images, signs); each is read
as its columns, one {row: sign} per source basis element."""

from markedgc.complexes import _then, group_action_matrix
from markedgc.linalg import rank


def columns(signed_map):
    images, signs = signed_map
    return [{image: sign} for image, sign in zip(images, signs)]


def _injective(psi) -> bool:
    return all(rank(columns(psi_i)) == len(psi_i[0]) for psi_i in psi.values())


def _generating(psi, target) -> bool:
    """Does the S_{n+1}-orbit of the image span the target?

    Coset representatives of S_{n+1}/S_n suffice: the identity and the
    transpositions (j, n+1).  sigma·psi is psi followed by sigma's action.
    """
    n1 = target.n
    reps = [tuple(range(n1))]
    for j in range(n1 - 1):
        t = list(range(n1))
        t[j], t[n1 - 1] = t[n1 - 1], t[j]
        reps.append(tuple(t))
    for i in target.degrees():
        psi_i = psi.get(i, ([], []))
        stacked = []
        for sigma in reps:
            stacked += columns(_then(psi_i, group_action_matrix(target, i, sigma)))
        if rank(stacked) < target.dim(i):
            return False
    return True


def conditions(psi, target) -> tuple[bool, bool]:
    """(condition 1, condition 2) by rank."""
    return _injective(psi), _generating(psi, target)
