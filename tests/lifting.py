"""Views of the lift that only the tests use: a lifted relation as the
problem file writes it, and the inverse relabelling back to the
determining system."""

from typing import Optional

from cartanframes.pseudogroup import JetKey, LinComb, MCRelationSet


def relation_one_step(mc: MCRelationSet, key: JetKey) -> Optional[LinComb]:
    """Lifted right side as originally written (one substitution step)."""
    rhs = mc.system.original.get(key)
    if rhs is None:
        return None
    return {k: mc.lift_coeff(c) for k, c in rhs.items()}


def unlift(mc: MCRelationSet, key: JetKey, lc: LinComb) -> tuple[LinComb, LinComb]:
    """Rename iota(z) -> z, mu -> zeta: returns (lhs, rhs) determining
    relation for consistency checks."""
    jc = mc.system.jc
    unmap = {jc.invariant_var(coord).vid: jc.coord_var(coord).vid for coord in mc.system.base_coords}
    return {key: jc.ratfn(1)}, {k: c.rename(unmap) for k, c in lc.items()}
