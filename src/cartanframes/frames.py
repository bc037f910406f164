"""The moving-frame engine: lifted-invariant recurrence relations,
cross-section normalization (full and partial frames), normalized
Maurer-Cartan forms, the d^2 = 0 audit, commutator invariants, isotropy
annihilator extraction, ODE branch classification and the numeric signature
comparator.

The engine never needs coordinate formulas for the invariants: a recurrence
relation is assembled from the symbolic prolonged generator, evaluated on the
cross-section (each coordinate goes to its invariant or its normalized value,
each vector-field jet zeta^a_B to mu^a_B, solved jets through the determining
system), and phantom relations are solved linearly for the Maurer-Cartan
forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .exact import ExactError, ExpKey, Poly, Q, RatFn, _add_term, _merge_exp, scalar, solve_linear
from .exterior import (
    EquationSet,
    ExteriorForm,
    FormContext,
    exterior_derivative,
    mc_expansion,
    substitute,
)
from .involution import TPoly
from .jets import (
    Coord,
    Counts,
    JetContext,
    mi_add,
    mi_bump,
    mi_divides,
    mi_order,
    mi_up_to,
    mi_zero,
)
from .pseudogroup import DeterminingSystem, JetKey, lift_system, universal_generator


class CrossSectionError(ExactError):
    pass


class Pattern:
    """A normalization family like q_{p^2 u^j x} = 0: fixed exponents on some
    slots, unconstrained ("wildcard") exponents elsewhere."""

    def __init__(self, alpha: int, fixed: Sequence[Optional[int]], value: int | Fraction):
        self.alpha = alpha
        self.fixed = tuple(fixed)  # None marks a wildcard slot
        self.value = scalar(value)

    def matches(self, alpha: int, J: Counts) -> bool:
        if alpha != self.alpha:
            return False
        return all(f is None or f == c for f, c in zip(self.fixed, J))


class CrossSection:
    """Ordered normalizations plus non-degeneracy and vanishing declarations.

    ``entries`` are explicit (coordinate, constant) normalizations in
    normalization order; ``patterns`` normalize whole families; a vanishing
    module declares every jet divisible by one of its generators to be
    identically zero (an invariant subbundle).  Each constant is stored
    as an exact scalar (``exact.scalar``): an int when it is integral.
    """

    def __init__(self, jc: JetContext):
        self.jc = jc
        self.entries: list[tuple[Coord, int | Fraction]] = []
        self.patterns: list[Pattern] = []
        self.vanish_generators: list[tuple[int, Counts]] = []
        self.nonvanishing: list[Coord] = []

    def normalize_coord(self, coord: Coord, value) -> None:
        self.entries.append((coord, scalar(value)))

    def add_pattern(self, alpha: int, fixed: Sequence[Optional[int]], value=0) -> None:
        self.patterns.append(Pattern(alpha, fixed, value))

    def declare_vanishing(self, alpha: int, gen: Counts) -> None:
        self.vanish_generators.append((alpha, gen))

    def declare_nonvanishing(self, coord: Coord) -> None:
        self.nonvanishing.append(coord)

    def value(self, coord: Coord) -> Optional[int | Fraction]:
        """The constant a normalized or vanishing coordinate is fixed at, or
        None when the cross-section leaves the coordinate free."""
        for entry, value in self.entries:
            if entry == coord:
                return value
        if coord[0] == "u":
            alpha, J = coord[1], coord[2]
            for pat in self.patterns:
                if pat.matches(alpha, J):
                    return pat.value
            for valpha, gen in self.vanish_generators:
                if valpha == alpha and mi_divides(gen, J):
                    return 0
        return None

    def validate_prefix(self) -> None:
        """Syntactic cross-order compatibility: explicit normalizations must be
        listed in non-decreasing jet order, so every lower-order prefix is
        itself a cross-section."""
        last = -1
        for coord, _ in self.entries:
            order = 0 if coord[0] == "x" else mi_order(coord[2])
            if order < last:
                raise CrossSectionError(
                    "cross-section entries out of order: lower-order prefix property violated"
                )
            last = max(last, order)


class FrameState:
    """Resolved Maurer-Cartan expressions from a (partial) moving frame.

    ``blocked`` holds, per stratum with a blocked pivot, the invariant
    variables (sorted by name) whose symbolic coefficients blocked it: the
    user must declare them nonvanishing or identically zero and re-run."""

    def __init__(self, engine: "RecurrenceEngine"):
        self.engine = engine
        self.resolved: dict[JetKey, ExteriorForm] = {}
        self.blocked: list[list] = []
        self.residual_relations: list[ExteriorForm] = []

    def require_complete(self) -> None:
        """Raise CrossSectionError unless every phantom relation was solved.

        A phantom relation that no Maurer-Cartan symbol absorbs is an equation
        among the invariant horizontal forms.  With a constant coefficient on
        some w^i it holds on no submanifold jet: the cross-section is
        unreachable.  With invariant coefficients only, like a blocked pivot,
        it holds only where those invariants vanish: a branch to declare."""
        jc = self.engine.jc
        branch = {var for blockers in self.blocked for var in blockers}
        for form in self.residual_relations:
            if any(c.is_constant() for c in form.terms.values()):
                raise CrossSectionError(f"unreachable cross-section: phantom relation {form.pretty()} = 0")
            branch.update(jc.ctx.var_by_id(v) for c in form.terms.values() for v in c.variables())
        names = set()
        for var in branch:  # an invariant is declared through its coordinate: Q_P4 by q_p4
            kind, *where = jc.decode(var)
            names.add(jc.coord_name(where[0]) if kind == "inv" else var.name)
        if names:
            raise CrossSectionError(
                f"undeclared branch on {', '.join(sorted(names))}: declare each with assume <coordinate> != 0 or == 0 in xsec"
            )

    def residual_keys(self, mc_order: int) -> list[JetKey]:
        """Basis Maurer-Cartan symbols up to mc_order left unresolved."""
        return [key for key in self.engine.system.basis_jets(mc_order) if key not in self.resolved]

    def reduce(self, form: ExteriorForm) -> ExteriorForm:
        """Substitute resolved basis Maurer-Cartan symbols into a form,
        chasing chains of resolutions to a fixed point.

        Values are stored as solved within their stratum, so an early value may
        mention a symbol that a later stratum resolves; iteration (which always
        moves to strictly later strata) terminates."""
        fc = self.engine.fc
        while True:
            mapping = {}
            for sid in form.symbols():
                got = self.resolved.get(fc.by_id(sid).key)
                if got is not None:
                    mapping[sid] = got
            if not mapping:
                return form
            form = substitute(form, mapping)

    def mu_value(self, key: JetKey) -> ExteriorForm:
        """Frame value of any Maurer-Cartan symbol (basis or solved)."""
        return self.reduce(self.engine.mu_form(key))


class RecurrenceEngine:
    """Produces recurrence relations and frames for one problem."""

    def __init__(self, system: DeterminingSystem, cs: CrossSection, fc: FormContext):
        self.system = system
        self.jc = system.jc
        self.cs = cs
        self.fc = fc
        self.generator = universal_generator(self.jc, self.system)
        self.mc = lift_system(system, self.iota)
        self._mu_cache: dict[JetKey, ExteriorForm] = {}
        self._iota_cache: dict[int, tuple[int | Fraction, ExpKey]] = {}
        self._field_jet: dict[int, JetKey | bool] = {}
        self._depth_cache: dict[tuple[int, Counts], int] = {}
        self._vanishes: dict[Coord, bool] = {}

    # -- invariantization ------------------------------------------------------

    def iota_coord(self, coord: Coord) -> RatFn:
        value = self.cs.value(coord)
        if value is not None:
            return self.jc.ratfn(value)
        return self.jc.rvar(self.jc.invariant_var(coord))

    def _iota_var(self, vid: int) -> tuple[int | Fraction, ExpKey]:
        """iota of one variable as (constant, monomial key): x^i, u^a_J or the
        invariant of either gives (value, ()) when the cross-section fixes the
        coordinate, and (1, its invariant) otherwise."""
        got = self._iota_cache.get(vid)
        if got is not None:
            return got
        var = self.jc.ctx.var_by_id(vid)
        coord = self.jc.decode(var)  # ("x", i) and ("u", alpha, J) are coordinates
        if coord[0] == "inv":
            coord = coord[1]
        elif coord[0] not in ("x", "u"):
            raise ExactError(f"cannot invariantize {var.name}")
        value = self.cs.value(coord)
        if value is None:
            got = (1, ((self.jc.invariant_var(coord).vid, 1),))
        else:
            got = (value, ())
        self._iota_cache[vid] = got
        return got

    def _iota_terms(self, p: Poly) -> Poly:
        """Invariantize a polynomial by substituting the monomial image of each
        variable."""
        out: dict[ExpKey, int | Fraction] = {}
        for key, c in p.terms.items():
            mono: ExpKey = ()
            for vid, e in key:
                const, ikey = self._iota_var(vid)
                if not const:
                    break
                if const != 1:
                    c = c * const**e
                if ikey:
                    mono = _merge_exp(mono, ikey if e == 1 else tuple((v, k * e) for v, k in ikey))
            else:
                _add_term(out, mono, c)
        return Poly(self.jc.ctx, out)

    def iota_poly(self, p: Poly) -> RatFn:
        """iota of a polynomial, normalized once, at the end."""
        return RatFn(self._iota_terms(p), self.jc.poly(1))

    def iota(self, f: RatFn) -> RatFn:
        """iota of a rational function: its value on the cross-section, in
        the invariants of the coordinates the cross-section leaves free."""
        return RatFn(self._iota_terms(f.num), self._iota_terms(f.den))

    # -- Maurer-Cartan expansion --------------------------------------------------

    def mu_form(self, key: JetKey) -> ExteriorForm:
        """Basis expansion of mu^a_B through the lift ``self.mc``, its
        coefficients evaluated on the cross-section."""
        got = self._mu_cache.get(key)
        if got is None:
            got = self._mu_cache[key] = mc_expansion(self.fc, self.mc, key)
        return got

    def horizontal(self, alpha: int, J: Counts) -> ExteriorForm:
        """The horizontal part of d(u^alpha_J) on the cross-section:
        sum_j iota(u^alpha_{J,j}) omega^j."""
        fc = self.fc
        out = {}
        for j in range(self.jc.p):
            coeff = self.iota_coord(("u", alpha, mi_bump(J, j)))
            if coeff:
                out[(fc.omega(j).sid,)] = coeff
        return ExteriorForm(fc, out)

    # -- recurrence relations --------------------------------------------------------

    def _field_jet_key(self, vid: int):
        """(field index, multi-index) if ``vid`` is a field jet, else False;
        stored in ``_field_jet``."""
        decoded = self.jc.decode(self.jc.ctx.var_by_id(vid))
        got = self._field_jet[vid] = (decoded[1], decoded[2]) if decoded[0] == "f" else False
        return got

    def lift_linear(self, phi: Poly) -> ExteriorForm:
        """Lift of a polynomial that is linear in the coefficient-field jets."""
        fc = self.fc
        # field jet -> terms of its coefficient; each term of phi is one
        # (field jet, coefficient monomial) pair, so no two of them collide
        coeffs: dict[JetKey, dict[ExpKey, int | Fraction]] = {}
        field_jet = self._field_jet
        for key, c in phi.terms.items():
            fkey = None
            for pos, (vid, e) in enumerate(key):
                got = field_jet.get(vid)
                if got is None:
                    got = self._field_jet_key(vid)
                if got:
                    if fkey is not None or e != 1:
                        raise ExactError("lift: polynomial is not linear in field jets")
                    fkey, rest = got, key[:pos] + key[pos + 1 :]
            if fkey is None:
                raise ExactError("lift: term without a field jet")
            coeffs.setdefault(fkey, {})[rest] = c
        out = fc.form()
        for fkey, terms in coeffs.items():
            coeff = self.iota_poly(Poly(self.jc.ctx, terms))
            if coeff.is_zero():
                continue
            out = out + self.mu_form(fkey).scale(coeff)
        return out

    def _depth(self, vid: int, R: Counts) -> int:
        """The fewest total derivatives, drawn from the multiset ``R``, that
        turn the variable ``vid`` into a coordinate that iota does not send to
        0; ``|R| + 1`` when no such derivatives exist.  A field jet counts 0:
        the lift sends it to a Maurer-Cartan form, never to 0.  ``D_J Q``
        holds no independent variable.  Stored in ``_depth_cache``."""
        decoded = self.jc.decode(self.jc.ctx.var_by_id(vid))
        depth = 0
        if decoded[0] == "u":
            alpha, K = decoded[1], decoded[2]
            vanishes = self._vanishes
            depth = sum(R) + 1
            for L in product(*(range(r + 1) for r in R)):
                coord = ("u", alpha, mi_add(K, L))
                zero = vanishes.get(coord)
                if zero is None:
                    zero = vanishes[coord] = self.cs.value(coord) == 0
                if not zero:
                    depth = min(depth, mi_order(L))
        self._depth_cache[(vid, R)] = depth
        return depth

    def _survives(self, key: ExpKey, R: Counts) -> bool:
        """Whether the monomial ``key`` can still have a nonzero iota value
        once the total derivatives in the multiset ``R`` are applied.  Each
        derivative hits one factor, so a factor v^e needs e * depth(v) of
        them, and the factors together need at most |R|.  This is exact:
        a rejected monomial contributes nothing to the lift."""
        budget = sum(R)
        need = 0
        depths = self._depth_cache
        for vid, e in key:
            depth = depths.get((vid, R))
            if depth is None:
                depth = self._depth(vid, R)
            need += e * depth
            if need > budget:
                return False
        return True

    def recurrence(self, subject: Coord) -> ExteriorForm:
        """d(iota(subject)): a one-form in omega^j and basis Maurer-Cartan symbols."""
        fc = self.fc
        if subject[0] == "x":
            i = subject[1]
            return fc.one_form(fc.omega(i)) + self.mu_form((i, mi_zero(self.system.m)))
        alpha, J = subject[1], subject[2]
        return self.horizontal(alpha, J) + self.lift_linear(self.generator.prolong(alpha, J, self._survives))

    # -- normalization -----------------------------------------------------------------

    def phantom_subjects(self, inv_order: int) -> list[tuple[int, Coord]]:
        """(stratum, coordinate) pairs for every normalized or vanishing
        coordinate up to the working order, stratified by jet order."""
        subjects = []
        for i in range(self.jc.p):
            if self.cs.value(("x", i)) is not None:
                subjects.append((0, ("x", i)))
        for alpha in range(self.jc.q):
            for J in mi_up_to(self.jc.p, inv_order):
                if self.cs.value(("u", alpha, J)) is not None:
                    subjects.append((mi_order(J), ("u", alpha, J)))
        return subjects

    def normalize(self, inv_order: int) -> FrameState:
        """Solve all phantom relations up to the working order, stratified by
        subject order (parameters are normalized as soon as possible)."""
        self.cs.validate_prefix()
        state = FrameState(self)
        subjects = self.phantom_subjects(inv_order)
        nonvanishing_vars = {
            self.jc.invariant_var(c).vid for c in self.cs.nonvanishing
        }

        def invertible(c: RatFn) -> bool:
            # Asked of nonzero entries only; a constant uses no variables.
            return c.variables() <= nonvanishing_vars

        for stratum in range(inv_order + 1):
            relations = []
            for order, coord in subjects:
                if order != stratum:
                    continue
                form = state.reduce(self.recurrence(coord))
                if not form.is_zero():
                    relations.append(form)
            if not relations:
                continue
            self._solve_stratum(state, relations, invertible)
        return state

    def _solve_stratum(self, state: FrameState, relations: list[ExteriorForm], invertible) -> None:
        fc = self.fc

        def max_mc_order(form: ExteriorForm) -> int:
            orders = [mi_order(key[1]) for key in (fc.by_id(s).key for s in form.symbols()) if key]
            return max(orders) if orders else -1

        # Relations touching only low-order Maurer-Cartan symbols make the
        # cleanest pivot rows; this keeps truncation-boundary symbols out of
        # the resolved expressions for low-order forms.
        relations = sorted(enumerate(relations), key=lambda ir: (max_mc_order(ir[1]), ir[0]))
        relations = [form for _, form in relations]
        unknown_keys: list[JetKey] = []
        seen = set()
        for form in relations:
            for sid in form.symbols():
                key = fc.by_id(sid).key
                if key and key not in seen:
                    seen.add(key)
                    unknown_keys.append(key)
        # Highest-order columns first: a relation pairing a low-order form with
        # a truncation-boundary symbol then pivots the boundary symbol, leaving
        # the low-order form for the clean phantom that determines it (this is
        # the choice the recursive normalization procedure makes).
        unknown_keys.sort(key=lambda k: (-mi_order(k[1]), k[0], k[1]))
        columns = {key: i for i, key in enumerate(unknown_keys)}
        rows = []
        rhs = []
        for form in relations:
            row = [self.jc.ratfn(0)] * len(unknown_keys)
            omega_part = fc.form()
            for word, c in form.terms.items():
                key = fc.by_id(word[0]).key if len(word) == 1 else None
                if key:
                    row[columns[key]] = c
                else:
                    omega_part = omega_part + ExteriorForm(fc, {word: c})
            rows.append(row)
            rhs.append(-omega_part)
        result = solve_linear(rows, unknown_keys, rhs, invertible=invertible, scale=lambda c, v: v.scale(c))
        for key, (omega_value, coeffs) in result.solved.items():
            value = omega_value
            for other, coeff in coeffs.items():
                value = value + self.mu_form(other).scale(coeff)
            state.resolved[key] = state.reduce(value)
        if result.blocked:
            blockers = {self.jc.ctx.var_by_id(v) for _, blocker in result.blocked for v in blocker.variables()}
            state.blocked.append(sorted(blockers, key=lambda var: var.name))
        for coeffs, leftover in result.residual:
            if coeffs:
                continue
            if not leftover.is_zero():
                state.residual_relations.append(leftover)

    # -- reduced recurrences and structure equations ------------------------------------

    def reduced_recurrence(self, subject: Coord, state: FrameState) -> ExteriorForm:
        return state.reduce(self.recurrence(subject))

    def invariant_coords(self, order: int) -> list[Coord]:
        """The coordinates whose invariants stay free: every x^i, then each
        u-jet up to ``order`` that the cross-section leaves free."""
        coords: list[Coord] = [("x", i) for i in range(self.jc.p)]
        for alpha in range(self.jc.q):
            for J in mi_up_to(self.jc.p, order):
                if self.cs.value(("u", alpha, J)) is None:
                    coords.append(("u", alpha, J))
        return coords

    def invariant_differential(self, state: FrameState, inv_order: int, vids: set[int]) -> dict[int, ExteriorForm]:
        """Map invariant-variable id -> its reduced recurrence form, for the
        ids in ``vids`` that belong to a coordinate of ``invariant_coords``.

        Every such coordinate's invariant variable is registered first, in a
        fixed order, so variable ids do not depend on ``vids``."""
        coords = {self.jc.invariant_var(coord).vid: coord for coord in self.invariant_coords(inv_order)}
        return {vid: self.reduced_recurrence(coord, state) for vid, coord in coords.items() if vid in vids}

    def audit_d_squared(self, state: FrameState, eqs: EquationSet, inv_order: int):
        """The d^2 = 0 audit of a normalized equation set: d of each closed
        right side (every symbol it mentions has an equation), through the
        equations for the symbols and the reduced recurrence relations of the
        coefficient invariants, built for the closed equations only.  An
        equation that is not closed (a residual isotropy form, or one beyond
        the truncation) is skipped.  Returns (failures, audited, skipped):
        failures are (symbol, nonzero 2-form) pairs, the others symbols."""
        fc = self.fc
        closed = {sid for sid, rhs in eqs.equations.items() if rhs.symbols() <= eqs.equations.keys()}
        vids = set().union(*(c.variables() for sid in closed for c in eqs.equations[sid].terms.values()))
        diff_map = self.invariant_differential(state, inv_order, vids)

        def coeff_rule(c: RatFn) -> ExteriorForm:
            out = fc.form()
            for vid in sorted(c.variables()):
                var = self.jc.ctx.var_by_id(vid)
                rule = diff_map.get(vid)
                if rule is None:
                    raise ExactError(f"cannot differentiate coefficient {var.name}")
                partial = c.partial(var)
                if not partial.is_zero():
                    out = out + rule.scale(partial)
            return out

        failures, audited, skipped = [], [], []
        for sym, rhs in eqs.items():
            if sym.sid not in closed:
                skipped.append(sym)
                continue
            dd = exterior_derivative(rhs, eqs.get, coeff_rule)
            if dd.is_zero():
                audited.append(sym)
            else:
                failures.append((sym, dd))
        return failures, audited, skipped


def normalized_structure_equations(engine: RecurrenceEngine, state: FrameState, eqs: EquationSet) -> EquationSet:
    """Pull back structure equations of the diffeomorphism pseudo-group by the
    frame, each in one substitution: sigma^i -> omega^i, sigma^{p+alpha} ->
    the horizontal part of d(u^alpha), and each Maurer-Cartan symbol that the
    determining system solves or the frame resolves -> its frame value.

    Returns equations for d(omega^i) and for the basis Maurer-Cartan forms the
    frame leaves unresolved, in the order of ``eqs``."""
    fc = engine.fc
    p = engine.jc.p
    mapping = {fc.sigma(i).sid: fc.one_form(fc.omega(i)) for i in range(p)}
    for alpha in range(engine.jc.q):
        mapping[fc.sigma(p + alpha).sid] = engine.horizontal(alpha, mi_zero(p))
    for sid in set().union(*[rhs.symbols() for rhs in eqs.equations.values()]):
        key = fc.by_id(sid).key
        if key is not None and (key in state.resolved or engine.system.is_solved(key)):
            mapping[sid] = state.mu_value(key)
    out = EquationSet(fc)
    for sym, rhs in eqs.items():
        if sym.kind == "sigma":
            if sym.index[0] < p:
                out.set(fc.omega(sym.index[0]), substitute(rhs, mapping))
        elif sym.key not in state.resolved:
            out.set(sym, substitute(rhs, mapping))
    return out


def commutator_invariants(engine: RecurrenceEngine, eqs: EquationSet):
    """Structure functions Y^k_ij with d(omega^k) == -sum_{i<j} Y^k_ij w^i^w^j.

    Returns (Y, partial_flag): Y maps (k, i, j) with i < j to a RatFn, and
    partial_flag lists residual Maurer-Cartan symbols appearing in some
    d(omega) (commutators only defined modulo isotropy in that case)."""
    fc = engine.fc
    p = engine.jc.p
    Y = {}
    residual_syms = []
    for k in range(p):
        rhs = eqs.get(fc.omega(k))
        if rhs is None:
            raise ExactError(f"no structure equation for {fc.omega(k).name}")
        for sid in rhs.symbols():
            sym = fc.by_id(sid)
            if sym.key is not None:
                residual_syms.append(sym)
        # omega symbols sort by index, so (w^i, w^j) with i < j is a word
        for i in range(p):
            for j in range(i + 1, p):
                Y[(k, i, j)] = -rhs.coefficient((fc.omega(i).sid, fc.omega(j).sid))
    return Y, residual_syms


# -- isotropy annihilator polynomials --------------------------------------------------


def isotropy_annihilator(engine: RecurrenceEngine, n: int):
    """Isotropy annihilator polynomials of order <= n in the classical
    presentation: the point-evaluated determining relations together with the
    frame values of the Maurer-Cartan symbols, keeping only polynomials of
    degree <= n.

    Frame values come from the partial frame that the phantoms of subject
    order <= n-1 fix (later strata never change an earlier stratum's values),
    which keeps the generating set minimal; the closure under multiplication
    enters separately through prolongation when the Cartan test is run.
    """
    m = engine.system.m
    state = engine.normalize(n - 1)
    out: list[TPoly] = []
    seen: set = set()

    def emit(poly: TPoly):
        if poly.is_zero() or poly.degree() > n:
            return
        if poly.terms[max(poly.terms)] < 0:
            poly = -poly
        key = frozenset(poly.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(poly)

    for poly in determining_annihilator(engine, n):
        emit(poly)
    for a in range(m):
        for B in mi_up_to(m, n):
            poly = _frame_value_tpoly(engine, (a, B), state.mu_value((a, B)))
            if poly is not None:
                emit(poly)
    return out


def _frame_value_tpoly(engine: RecurrenceEngine, key: JetKey, value: ExteriorForm):
    """t^B T^a minus the constant Maurer-Cartan part of the frame value of
    mu^a_B (omega terms dropped); None when the value has a part of higher
    degree or a non-constant Maurer-Cartan coefficient."""
    a, B = key
    terms = {(B, a): Q(1)}
    for word, coeff in value.terms.items():
        if len(word) != 1:
            return None
        sym = engine.fc.by_id(word[0])
        if sym.kind == "omega":
            continue
        if sym.key is None or not coeff.is_constant():
            return None
        k2 = (sym.key[1], sym.key[0])
        terms[k2] = terms.get(k2, Q(0)) - coeff.constant_value()
    return TPoly(engine.system.m, terms)


def determining_annihilator(engine: RecurrenceEngine, n: int):
    """Point-evaluated determining relations as T-polynomials (fully reduced
    presentation), for solved jets of subject order <= n; a relation with a
    coefficient that is not constant on the cross-section gives none."""
    out = [_frame_value_tpoly(engine, key, engine.mu_form(key)) for key in engine.system.solved_jets(n)]
    return [p for p in out if p is not None and not p.is_zero()]


# -- ODE branch classification -----------------------------------------------------------


def classify_ode(jc: JetContext, F: RatFn):
    """Branch of q = F(x, u, p) under point transformations.

    Works on the jet space route: both relative-invariant numerators are
    evaluated as jet-space differential functions of the dependent variable,
    then every q-jet is replaced by the corresponding derivative of F.
    """
    inv1, inv2 = relative_invariant_numerators(jc)
    sub1 = _substitute_ode(jc, inv1, F)
    sub2 = _substitute_ode(jc, inv2, F)
    return _branch_label(sub1, sub2), sub1, sub2


def _branch_label(inv1: RatFn, inv2: RatFn) -> str:
    """I: both relative invariants nonzero; II: only the second; III: only
    the first; IV: both vanish."""
    first, second = not inv1.is_zero(), not inv2.is_zero()
    return {(True, True): "I", (False, True): "II", (True, False): "III", (False, False): "IV"}[first, second]


def relative_invariant_numerators(jc: JetContext):
    """Jet-space numerators of the two fourth-order relative invariants:
    q_pppp and Dhat^2(q_pp) - 4 Dhat(q_up) - q_p Dhat(q_pp) + 6 q_uu
    - 3 q_u q_pp + 4 q_p q_up, with Dhat = D_x + p D_u + q D_p."""
    if jc.independents != ["x", "u", "p"] or len(jc.dependents) != 1:
        raise ExactError("classifier expects independents (x,u,p) and one dependent")
    pv = jc.pvar(jc.x_var(2))
    q0 = jc.pvar(jc.u_var(0, (0, 0, 0)))

    def jet(i, j, k):
        return jc.pvar(jc.u_var(0, (i, j, k)))

    def dhat(f):
        return jc.d_hat(f, [jc.poly(1), pv, q0])

    inv1 = jet(0, 0, 4)
    qpp, qup = jet(0, 0, 2), jet(0, 1, 1)
    inv2 = (
        dhat(dhat(qpp))
        - 4 * dhat(qup)
        - jet(0, 0, 1) * dhat(qpp)
        + 6 * jet(0, 2, 0)
        - 3 * jet(0, 1, 0) * qpp
        + 4 * jet(0, 0, 1) * qup
    )
    return inv1, inv2


def _substitute_ode(jc: JetContext, expr: Poly, F: RatFn) -> RatFn:
    """Replace every q-jet q_J by the J-th derivative of F(x, u, p) along the
    equation (partials in x, u plus F-weighted partials in p)."""
    xv, uv, pv = jc.x_var(0), jc.x_var(1), jc.x_var(2)

    def f_derivative(J: Counts) -> RatFn:
        out = F
        for slot, var in ((0, xv), (1, uv), (2, pv)):
            for _ in range(J[slot]):
                # not a total derivative: jets of F's arguments are plain partials
                out = out.partial(var)
        return out

    mapping = {}
    for vid in expr.variables():
        var = jc.ctx.var_by_id(vid)
        decoded = jc.decode(var)
        if decoded[0] == "u":
            mapping[vid] = decoded[2]
    out = jc.ratfn(0)
    for key, c in expr.terms.items():
        term = jc.ratfn(c)
        for vid, e in key:
            if vid in mapping:
                base = f_derivative(mapping[vid])
            else:
                base = jc.rvar(jc.ctx.var_by_id(vid))
            for _ in range(e):
                term = term * base
        out = out + term
    return out


def oracle_classify_ode(jc: JetContext, F: RatFn):
    """Independent route: evaluate both numerators directly on functions of
    (x,u,p) with Dhat = d/dx + p d/du + F d/dp and q-jets replaced by F's
    partial derivatives from the start."""
    xv, uv, pv = jc.x_var(0), jc.x_var(1), jc.x_var(2)

    def dhat(f):
        return f.partial(xv) + jc.rvar(pv) * f.partial(uv) + F * f.partial(pv)

    Fp = F.partial(pv)
    Fpp = Fp.partial(pv)
    inv1 = Fpp.partial(pv).partial(pv)
    Fu = F.partial(uv)
    Fup = Fu.partial(pv)
    Fuu = Fu.partial(uv)
    inv2 = dhat(dhat(Fpp)) - 4 * dhat(Fup) - Fp * dhat(Fpp) + 6 * Fuu - 3 * Fu * Fpp + 4 * Fp * Fup
    return _branch_label(inv1, inv2), inv1, inv2


# -- numeric signature comparison -----------------------------------------------------


class SignatureReport:
    def __init__(self, ranks, order, rank, overlap, regular, detail=""):
        self.ranks = ranks
        self.order = order
        self.rank = rank
        self.overlap = overlap
        self.regular = regular
        self.detail = detail

    def __repr__(self):
        return (
            f"SignatureReport(ranks={self.ranks}, order={self.order}, rank={self.rank}, "
            f"overlap={self.overlap}, regular={self.regular})"
        )


class SampledSubmanifold:
    """Signature function values on a parameter mesh.

    ``grids`` is a list of sequences of floats, one per submanifold
    parameter; the mesh points are ``itertools.product(*grids)``.
    ``levels[k]`` lists, for each ordered word J with #J = k, the values of
    D_J I at the mesh points in that order, one list per generating
    invariant I; within a level the last derivative taken varies slowest.
    """

    def __init__(self, grids, levels):
        self.grids = grids
        self.levels = levels


def signature_compare(S: SampledSubmanifold, Sbar: SampledSubmanifold, n: int, tol: float = 1e-9):
    """Compare the order-``n`` signatures of two samples; each needs
    ``levels[0..n]``."""
    if len(S.grids) != len(Sbar.grids):
        return SignatureReport([], None, None, False, False, "parameter dimension mismatch")
    pA = _signature_profile(S, n, tol)
    pB = _signature_profile(Sbar, n, tol)
    if not pA["regular"] or not pB["regular"]:
        return SignatureReport(pA["ranks"], None, None, False, False, "not fully regular")
    if pA["ranks"] != pB["ranks"] or pA["order"] is None or pA["order"] != pB["order"]:
        return SignatureReport(pA["ranks"], pA["order"], pA["rank"], False, True, "order/rank mismatch")
    s = pA["order"]
    cloudA = _signature_cloud(S, s + 1)
    cloudB = _signature_cloud(Sbar, s + 1)
    scale = max(1.0, max(abs(v) for row in cloudA + cloudB for v in row))
    gap = _min_distance(cloudA, cloudB)
    overlap_tol = max(tol, 1e-7) * scale
    return SignatureReport(pA["ranks"], s, pA["rank"], bool(gap <= overlap_tol), True)


def _signature_values(S: SampledSubmanifold, n: int) -> list:
    """The value lists of every D_J I with #J <= n, level by level."""
    return [vals for level in S.levels[: n + 1] for vals in level]


def _signature_cloud(S: SampledSubmanifold, n: int):
    """One row of signature function values per mesh point."""
    return list(zip(*_signature_values(S, n)))


def _signature_profile(S: SampledSubmanifold, n: int, tol: float):
    p = len(S.grids)
    sizes = [len(g) for g in S.grids]
    strides = [math.prod(sizes[d + 1 :]) for d in range(p)]
    interior = list(product(*[range(1, size - 1) for size in sizes]))
    ranks = []
    regular = True
    for k in range(n + 1):
        values = _signature_values(S, k)
        point_ranks = set()
        for idx in interior:
            at = sum(i * stride for i, stride in zip(idx, strides))
            steps = [(strides[d], S.grids[d][idx[d] + 1] - S.grids[d][idx[d] - 1]) for d in range(p)]
            jac = [[(vals[at + stride] - vals[at - stride]) / h for stride, h in steps] for vals in values]
            sv = _singular_values(jac, p)
            cutoff = max(tol * (sv[0] if sv else 0.0), 1e-12)
            point_ranks.add(sum(1 for v in sv if v > cutoff))
        if len(point_ranks) != 1:
            regular = False
            ranks.append(None)
        else:
            ranks.append(point_ranks.pop())
    order = None
    for k in range(n):
        if ranks[k] is not None and ranks[k] == ranks[k + 1]:
            order = k
            break
    rank = ranks[order] if order is not None else None
    return {"ranks": ranks, "order": order, "rank": rank, "regular": regular}


_JACOBI_SWEEPS = 60


def _singular_values(rows: list, p: int) -> list:
    """The ``min(m, p)`` singular values of the ``m x p`` matrix ``rows``,
    largest first, by one-sided Jacobi sweeps over the columns of whichever
    of the matrix and its transpose has fewer columns.  The entries are
    scaled by a power of two first, so that their squares do not underflow."""
    cols = [list(col) for col in zip(*rows)] if p <= len(rows) else [list(row) for row in rows]
    big = max((abs(x) for col in cols for x in col), default=0.0)
    if big == 0.0:
        return [0.0] * len(cols)
    shift = math.frexp(big)[1]
    cols = [[math.ldexp(x, -shift) for x in col] for col in cols]
    eps = math.ulp(1.0)
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(len(cols) - 1):
            for j in range(i + 1, len(cols)):
                a, b = cols[i], cols[j]
                gamma = math.fsum(x * y for x, y in zip(a, b))
                alpha = math.fsum(x * x for x in a)
                beta = math.fsum(y * y for y in b)
                if abs(gamma) <= eps * math.sqrt(alpha) * math.sqrt(beta):
                    continue
                rotated = True
                # the rotation that zeroes the (i, j) entry of the Gram matrix
                zeta = (beta - alpha) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                cols[i] = [c * x - s * y for x, y in zip(a, b)]
                cols[j] = [s * x + c * y for x, y in zip(a, b)]
        if not rotated:
            break
    return sorted((math.ldexp(math.hypot(*col), shift) for col in cols), reverse=True)


def _min_distance(A, B):
    """The least distance from a point of A to a point of B (symmetric)."""
    return min((math.dist(a, b) for a in A for b in B), default=math.inf)
