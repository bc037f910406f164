"""Infinitesimal determining systems, their prolongation and lift, prolonged
group action, and prolongation of infinitesimal generators.

A determining system is stored in solved (triangular) form: each relation
expresses one field jet -- the *lead* -- as a linear combination of other
field jets with coefficients rational in the base coordinates.  Prolongations
are derived lazily: the relation for a derivative of a lead is obtained by
formally differentiating its parent relation and re-reducing, so the system
can be queried at any order without a completion pass.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from .exact import ExactError, ExpKey, Poly, RatFn, _add_term
from .jets import (
    Coord,
    Counts,
    Field,
    JetContext,
    lifted_total_derivative_matrix,
    mi_bump,
    mi_divides,
    mi_order,
    mi_up_to,
    mi_zero,
)

JetKey = tuple[int, Counts]  # (field index, derivative multi-index over M)

# A linear combination of field jets with RatFn coefficients.
LinComb = dict[JetKey, RatFn]


class DeterminingSystem:
    """Linear relations on the jets of vector-field coefficients.

    ``fields`` must contain one coefficient field per base coordinate of the
    ambient manifold, in coordinate order; multi-indices run over those same
    base coordinates.
    """

    def __init__(self, jc: JetContext, fields: Sequence[Field]):
        self.jc = jc
        self.fields = list(fields)
        self.m = len(fields)
        self.base_coords: list[Coord] = list(fields[0].base) if fields else []
        for f in fields:
            if f.base != self.base_coords:
                raise ExactError("all coefficient fields must share the same base")
        self.original: dict[JetKey, LinComb] = {}
        self._reduced: dict[JetKey, LinComb] = {}
        self._in_progress: set[JetKey] = set()

    # -- construction -----------------------------------------------------

    def add_relation(self, lead: JetKey, rhs: LinComb) -> None:
        """Record ``lead = rhs`` (solved form)."""
        if lead in self.original:
            raise ExactError(f"duplicate solved jet {lead}")
        self.original[lead] = rhs
        self._reduced.clear()

    # -- solved-set structure ------------------------------------------------

    def lead_for(self, key: JetKey) -> Optional[JetKey]:
        """The first declared lead whose derivative cone contains ``key``."""
        for lead in self.original:
            if lead[0] == key[0] and mi_divides(lead[1], key[1]):
                return lead
        return None

    def is_solved(self, key: JetKey) -> bool:
        return self.lead_for(key) is not None

    def basis_jets(self, order: int) -> list[JetKey]:
        return self._jets(order, solved=False)

    def solved_jets(self, order: int) -> list[JetKey]:
        return self._jets(order, solved=True)

    def _jets(self, order: int, solved: bool) -> list[JetKey]:
        return [(f, B) for f in range(self.m) for B in mi_up_to(self.m, order) if self.is_solved((f, B)) == solved]

    # -- differentiation and reduction ---------------------------------------

    def z_derivative(self, lc: LinComb, a: int) -> LinComb:
        """Formal total derivative D_{z^a} of a linear combination of jets."""
        var = self.jc.coord_var(self.base_coords[a])
        out: LinComb = {}
        for (f, B), coeff in lc.items():
            _add_term(out, (f, mi_bump(B, a)), coeff)
            dc = coeff.partial(var)
            if dc:
                _add_term(out, (f, B), dc)
        return out

    def relation(self, key: JetKey) -> LinComb:
        """Fully reduced right side for a solved jet (over basis jets only)."""
        cached = self._reduced.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            raise ExactError(f"circular relation derivation at {key}")
        self._in_progress.add(key)
        try:
            if key in self.original:
                rhs = self.reduce(self.original[key])
            else:
                lead = self.lead_for(key)
                if lead is None:
                    raise ExactError(f"{key} is not a solved jet")
                f, B = key
                a = max(i for i in range(self.m) if B[i] > lead[1][i])
                parent = (f, tuple(c - 1 if i == a else c for i, c in enumerate(B)))
                rhs = self.reduce(self.z_derivative(self.relation(parent), a))
            self._reduced[key] = rhs
            return rhs
        finally:
            self._in_progress.discard(key)

    def reduce(self, lc: LinComb) -> LinComb:
        out: LinComb = {}
        for key, coeff in lc.items():
            if self.is_solved(key):
                for k, c in self.relation(key).items():
                    _add_term(out, k, c * coeff)
            else:
                _add_term(out, key, coeff)
        return out

    def prolong(self, k: int) -> "DeterminingSystem":
        """Materialize all relations up to order k (idempotent; returns self)."""
        for key in self.solved_jets(k):
            self.relation(key)
        return self


# -- the lift ---------------------------------------------------------------------


class MCRelationSet:
    """Linear relations among Maurer-Cartan symbols obtained by the formal lift
    z -> iota(z), zeta^a_B -> mu^a_B of a determining system.

    The relation data is shared with the source system; only the coefficients
    change, each mapped by ``lift_coeff``."""

    def __init__(self, system: DeterminingSystem, coeff: Callable[[RatFn], RatFn]):
        self.system = system
        self.lift_coeff = coeff

    def relation(self, key: JetKey) -> LinComb:
        """Lifted, fully reduced right side of a solved MC symbol."""
        return {k: self.lift_coeff(c) for k, c in self.system.relation(key).items()}


def lift_system(system: DeterminingSystem, coeff: Optional[Callable[[RatFn], RatFn]] = None) -> MCRelationSet:
    """The lift of ``system`` with coefficient map ``coeff``.  By default each
    base coordinate is renamed to its invariant, a one-to-one relabelling
    (``RatFn.rename``) for the ``lift`` and ``structure`` reports; the
    recurrence engine passes its ``iota``, which evaluates each coefficient
    on the cross-section."""
    if coeff is None:
        jc = system.jc
        lift_map = {jc.coord_var(coord).vid: jc.invariant_var(coord).vid for coord in system.base_coords}
        return MCRelationSet(system, lambda f: f.rename(lift_map))
    return MCRelationSet(system, coeff)


# -- prolonged action ------------------------------------------------------------


def prolonged_action(jc: JetContext, targets_x: Sequence[RatFn], targets_u: Sequence[RatFn], k: int):
    """Explicit prolonged action: U^alpha_J = D_X^J U^alpha for #J <= k.

    ``targets_x``/``targets_u`` are the target components of the group element
    as rational functions of base coordinates and group-jet parameters.
    Returns a dict mapping ("x", i) and ("u", alpha, J) to RatFn.
    """
    W = lifted_total_derivative_matrix(jc, list(targets_x))
    p, q = jc.p, jc.q

    def lifted_d(f: RatFn, i: int) -> RatFn:
        out = jc.ratfn(0)
        for j in range(p):
            if W[j][i].is_zero():
                continue
            df = jc.total_derivative(f, j)
            if not isinstance(df, RatFn):
                df = RatFn(df, jc.poly(1))
            out = out + W[j][i] * df
        return out

    out: dict[tuple, RatFn] = {}
    for i in range(p):
        out[("x", i)] = targets_x[i]
    level: dict[Counts, list[RatFn]] = {mi_zero(p): list(targets_u)}
    for alpha in range(q):
        out[("u", alpha, mi_zero(p))] = targets_u[alpha]
    for order in range(1, k + 1):
        next_level: dict[Counts, list[RatFn]] = {}
        for J, vals in level.items():
            for i in range(p):
                J2 = mi_bump(J, i)
                if J2 in next_level or mi_order(J2) != order:
                    continue
                # canonical derivation: differentiate along the last raised slot
                next_level[J2] = [lifted_d(v, i) for v in vals]
        for J2, vals in next_level.items():
            for alpha in range(q):
                out[("u", alpha, J2)] = vals[alpha]
        level = next_level
    return out


def identity_targets(jc: JetContext) -> tuple[list[RatFn], list[RatFn]]:
    tx = [jc.rvar(jc.x_var(i)) for i in range(jc.p)]
    tu = [jc.rvar(jc.u_var(alpha, mi_zero(jc.p))) for alpha in range(jc.q)]
    return tx, tu


# -- infinitesimal generators -------------------------------------------------------


class InfinitesimalGenerator:
    """A vector field xi^i d/dx^i + phi_alpha d/du^alpha with polynomial
    coefficients (which may involve symbolic coefficient fields)."""

    def __init__(self, jc: JetContext, xi: Sequence[Poly], phi: Sequence[Poly]):
        if len(xi) != jc.p or len(phi) != jc.q:
            raise ExactError("coefficient count mismatch")
        self.jc = jc
        self.xi = list(xi)
        self.phi = list(phi)
        # Q^alpha = phi_alpha - sum_i xi^i u^alpha_i
        self._characteristic = []
        for alpha in range(jc.q):
            qa = self.phi[alpha]
            for i in range(jc.p):
                qa = qa - self.xi[i] * jc.pvar(jc.u_var(alpha, mi_bump(mi_zero(jc.p), i)))
            self._characteristic.append(qa)

    def prolong(self, alpha: int, J: Counts, survives: Callable[[ExpKey, Counts], bool]) -> Poly:
        """Coefficient phi^J_alpha = D_J Q^alpha + sum_i xi^i u^alpha_{J,i},
        less the monomials that ``survives`` rejects.

        ``survives(key, R)`` tells whether the monomial ``key`` can still
        yield a kept term once the total derivatives left in the multi-index
        ``R`` are applied.  The test is made on Q^alpha and after each
        derivative, so a rejected monomial is never differentiated."""
        jc = self.jc
        R = list(J)

        def kept(f: Poly) -> Poly:
            rest = tuple(R)
            return Poly(jc.ctx, {key: c for key, c in f.terms.items() if survives(key, rest)})

        total = kept(self._characteristic[alpha])
        for i, count in enumerate(J):
            for _ in range(count):
                R[i] -= 1
                total = kept(jc.total_derivative_poly(total, i))
        for i in range(jc.p):
            total = total + self.xi[i] * jc.pvar(jc.u_var(alpha, mi_bump(J, i)))
        return kept(total)


def universal_generator(jc: JetContext, system: DeterminingSystem) -> InfinitesimalGenerator:
    """The symbolic generator whose coefficients are the order-0 jets of the
    system's coefficient fields (one per base coordinate of M)."""
    m = system.m
    zero = mi_zero(m)
    coeffs = [jc.pvar(jc.field_var(system.fields[a], zero)) for a in range(m)]
    return InfinitesimalGenerator(jc, coeffs[: jc.p], coeffs[jc.p :])
