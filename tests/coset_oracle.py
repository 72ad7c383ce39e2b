"""The per-labeling coset arithmetic that `complexes.build_complex` and
`complexes.group_action_matrix` replaced, kept as an oracle: every
column of a differential and every generator's action by one
`LegGroup.coset_min` per term or basis element, with no orbit and no
equivariance."""

from markedgc.complexes import _targets, boundary_terms


def differential(c, i):
    """The columns of d_i: the boundary of [xi, id] relabeled by rho,
    each term [eta, rho∘tau] reduced to chi·[eta, rho'] at its coset
    minimum rho'."""
    below = c.basis.get(i - 1, {})
    cols = []
    for xi, positions in c.basis[i].items():
        targets = _targets(boundary_terms(xi), below, i)
        for rho in positions:
            col = {}
            for group, images, tau, coeff in targets:
                image, chi = group.coset_min(tuple([rho[k] for k in tau]))
                pos = images[image]
                col[pos] = col.get(pos, 0) + coeff * chi
            cols.append({pos: v for pos, v in col.items() if v})
    return cols


def group_action(c, i, sigma):
    """sigma·[xi, rho] = [xi, sigma∘rho] = chi·[xi, rho'], one coset
    minimum per basis element, as (images, signs)."""
    images, signs = [], []
    for xi, positions in c.basis.get(i, {}).items():
        for rho in positions:
            image, chi = xi.leg_group.coset_min(tuple([sigma[x] for x in rho]))
            images.append(positions[image])
            signs.append(chi)
    return images, signs
