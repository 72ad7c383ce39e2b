"""The rank-based stability conditions 1 and 2 that `stability` replaced
by set checks on psi's images, kept as the tests' oracle: condition 1 is
the rank of the stabilization map psi in each degree, condition 2 the
rank of the closure of psi's image under S_{n+1}, which judges any map,
not only one whose image is S_n-stable.  psi and the S_{n+1} action are
signed maps (images, signs); each is read as its columns, one
{row: sign} per source basis element."""

from markedgc.complexes import group_action_matrix
from markedgc.linalg import _push, _reduce, rank
from markedgc.reptheory import cycle_type_representative


def columns(signed_map):
    images, signs = signed_map
    return [{image: sign} for image, sign in zip(images, signs)]


def _injective(psi) -> bool:
    return all(rank(columns(psi_i)) == len(psi_i[0]) for psi_i in psi.values())


def _generating(psi, target) -> bool:
    """Does the S_{n+1}-orbit of the image span the target?

    The orbit spans the least subspace that holds the image and is stable
    under (0 1) and the (n+1)-cycle, which generate S_{n+1}.  Every
    vector that enlarges the span so far is pushed through both
    generators, until no translate enlarges it.
    """
    n1 = target.n
    generator_types = [(k,) + (1,) * (n1 - k) for k in (2, n1)] if n1 >= 2 else []
    for i in target.degrees():
        generators = [
            group_action_matrix(target, i, cycle_type_representative(mu))
            for mu in generator_types
        ]
        echelon = {}
        pending = columns(psi.get(i, ([], [])))
        while pending:
            vec = pending.pop()
            if _push(echelon, _reduce(echelon, vec)[0]):
                for images, signs in generators:
                    pending.append({images[p]: signs[p] * v for p, v in vec.items()})
        if len(echelon) < target.dim(i):
            return False
    return True


def conditions(psi, target) -> tuple[bool, bool]:
    """(condition 1, condition 2) by rank."""
    return _injective(psi), _generating(psi, target)
