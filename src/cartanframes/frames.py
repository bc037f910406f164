"""The moving-frame engine: lifted-invariant recurrence relations,
cross-section normalization (full and partial frames), normalized
Maurer-Cartan forms, commutator invariants, isotropy annihilator extraction,
ODE branch classification and the numeric signature comparator.

The engine never needs coordinate formulas for the invariants: a recurrence
relation is assembled from the symbolic prolonged generator, the lift
substitutes Maurer-Cartan symbols for vector-field jets and opaque invariant
symbols for jet coordinates, and phantom relations are solved linearly for
the Maurer-Cartan forms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .exact import QZERO, ExactError, ExactMatrix, ExpKey, Poly, Q, RatFn, _add_term, _merge_exp, solve_linear
from .exterior import (
    EquationSet,
    ExteriorForm,
    FormContext,
    MissingRule,
    substitute,
)
from .jets import (
    Coord,
    Counts,
    JetContext,
    mi_bump,
    mi_divides,
    mi_order,
    mi_up_to,
    mi_zero,
)
from .pseudogroup import JetKey, MCRelationSet, universal_generator


class CrossSectionError(ExactError):
    pass


class Pattern:
    """A normalization family like q_{p^2 u^j x} = 0: fixed exponents on some
    slots, unconstrained ("wildcard") exponents elsewhere."""

    def __init__(self, alpha: int, fixed: Sequence[Optional[int]], value: Fraction):
        self.alpha = alpha
        self.fixed = tuple(fixed)  # None marks a wildcard slot
        self.value = Q(value)

    def matches(self, alpha: int, J: Counts) -> bool:
        if alpha != self.alpha:
            return False
        return all(f is None or f == c for f, c in zip(self.fixed, J))


class CrossSection:
    """Ordered normalizations plus non-degeneracy and vanishing declarations.

    ``entries`` are explicit (coordinate, constant) normalizations in
    normalization order; ``patterns`` normalize whole families; a vanishing
    module declares every jet divisible by one of its generators to be
    identically constant (an invariant subbundle).
    """

    def __init__(self, jc: JetContext):
        self.jc = jc
        self.entries: list[tuple[Coord, Fraction]] = []
        self.patterns: list[Pattern] = []
        self.vanish_generators: list[tuple[int, Counts, Fraction]] = []
        self.nonvanishing: list[Coord] = []

    def normalize_coord(self, coord: Coord, value) -> None:
        self.entries.append((coord, Q(value)))

    def add_pattern(self, alpha: int, fixed: Sequence[Optional[int]], value=0) -> None:
        self.patterns.append(Pattern(alpha, fixed, Q(value)))

    def declare_vanishing(self, alpha: int, gen: Counts, value=0) -> None:
        self.vanish_generators.append((alpha, gen, Q(value)))

    def declare_nonvanishing(self, coord: Coord) -> None:
        self.nonvanishing.append(coord)

    def status(self, coord: Coord):
        """One of ("normalized", c), ("vanishes", c), ("nonvanishing",), ("free",)."""
        for entry, value in self.entries:
            if entry == coord:
                return ("normalized", value)
        if coord[0] == "u":
            alpha, J = coord[1], coord[2]
            for pat in self.patterns:
                if pat.matches(alpha, J):
                    return ("normalized", pat.value)
            for valpha, gen, value in self.vanish_generators:
                if valpha == alpha and mi_divides(gen, J):
                    if mi_order(J) > mi_order(gen):
                        return ("vanishes", Q(0))
                    return ("vanishes", value)
        if coord in self.nonvanishing:
            return ("nonvanishing",)
        return ("free",)

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


class RecurrenceRelation:
    """d(subject) == rhs, a one-form in omega^j and basis Maurer-Cartan symbols."""

    def __init__(self, subject: Coord, rhs: ExteriorForm):
        self.subject = subject
        self.rhs = rhs

    def __repr__(self):
        return f"RecurrenceRelation({self.subject}: {self.rhs.pretty()})"


class BranchingRequired:
    """A pivot was blocked by a symbolic coefficient: the user must declare the
    listed invariants nonvanishing or identically zero and re-run."""

    def __init__(self, blockers: list[str]):
        self.blockers = blockers

    def __repr__(self):
        return f"BranchingRequired({', '.join(self.blockers)})"


class FrameState:
    """Resolved Maurer-Cartan expressions from a (partial) moving frame."""

    def __init__(self, engine: "RecurrenceEngine"):
        self.engine = engine
        self.resolved: dict[JetKey, tuple[ExteriorForm, int]] = {}
        self.blocked: list[BranchingRequired] = []
        self.residual_relations: list[ExteriorForm] = []
        self.inv_order = 0

    def residual_keys(self, mc_order: int) -> list[JetKey]:
        """Basis Maurer-Cartan symbols up to mc_order left unresolved."""
        return [key for key in self.engine.mcrel.basis(mc_order) if key not in self.resolved]

    def resolved_value(self, key: JetKey, max_stratum: Optional[int] = None) -> Optional[ExteriorForm]:
        got = self.resolved.get(key)
        if got is None:
            return None
        form, stratum = got
        if max_stratum is not None and stratum > max_stratum:
            return None
        return form

    def reduce(self, form: ExteriorForm, max_stratum: Optional[int] = None) -> ExteriorForm:
        """Substitute resolved basis Maurer-Cartan symbols into a form, chasing
        chains of resolutions to a fixed point.

        Values are stored as solved within their stratum, so an early value may
        mention a symbol that a later stratum resolves; iteration (which always
        moves to strictly later strata) terminates."""
        fc = self.engine.fc
        while True:
            mapping = {}
            for sid in form.symbols():
                sym = fc.by_id(sid)
                if sym.kind != "mc":
                    continue
                value = self.resolved_value((sym.index[0], sym.index[2]), max_stratum)
                if value is not None:
                    mapping[sid] = value
            if not mapping:
                return form
            form = substitute(form, mapping)

    def mu_value(self, key: JetKey, max_stratum: Optional[int] = None) -> ExteriorForm:
        """Frame value of any Maurer-Cartan symbol (basis or solved)."""
        return self.reduce(self.engine.mu_form(key), max_stratum)


class RecurrenceEngine:
    """Produces recurrence relations and frames for one problem."""

    def __init__(self, mcrel: MCRelationSet, cs: CrossSection, fc: Optional[FormContext] = None):
        self.mcrel = mcrel
        self.system = mcrel.system
        self.jc = mcrel.jc
        self.cs = cs
        self.fc = fc if fc is not None else FormContext(self.jc)
        self.generator = universal_generator(self.jc, self.system)
        self._mu_cache: dict[JetKey, ExteriorForm] = {}
        self._iota_cache: dict[int, tuple[Fraction, ExpKey]] = {}
        self._field_jet: dict[int, JetKey | bool] = {}
        self._char_cache = None

    # -- invariantization ------------------------------------------------------

    def iota_coord(self, coord: Coord) -> RatFn:
        status = self.cs.status(coord)
        if status[0] in ("normalized", "vanishes"):
            return self.jc.ratfn(status[1])
        return self.jc.rvar(self.jc.invariant_var(coord))

    def _iota_var(self, vid: int) -> tuple[Fraction, ExpKey]:
        """iota of one variable as (constant, monomial key): a normalized
        coordinate gives (value, ()), a free one (1, its invariant)."""
        got = self._iota_cache.get(vid)
        if got is not None:
            return got
        var = self.jc.ctx.var_by_id(vid)
        decoded = self.jc.decode(var)
        if decoded[0] == "x":
            val = self.iota_coord(("x", decoded[1]))
        elif decoded[0] == "u":
            val = self.iota_coord(("u", decoded[1], decoded[2]))
        elif decoded[0] == "inv":
            val = self.jc.rvar(var)
        else:
            raise ExactError(f"cannot invariantize {var.name}")
        if len(val.num.terms) > 1 or not val.den.is_constant():
            raise ExactError(f"iota({var.name}) is not a monomial")
        key, c = next(iter(val.num.terms.items()), ((), QZERO))
        got = self._iota_cache[vid] = (c / val.den.constant_value(), key)
        return got

    def iota_poly(self, p: Poly) -> RatFn:
        """Invariantize a polynomial by substituting the monomial image of each
        variable; the result is normalized once, at the end."""
        out: dict[ExpKey, Fraction] = {}
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
        return RatFn(Poly(self.jc.ctx, out), self.jc.poly(1))

    # -- Maurer-Cartan expansion --------------------------------------------------

    def mu_form(self, key: JetKey) -> ExteriorForm:
        """Basis expansion of mu^a_B at the invariantized base point."""
        got = self._mu_cache.get(key)
        if got is not None:
            return got
        fc = self.fc
        if self.mcrel.is_basis(key):
            out = fc.one_form(fc.mc(key[0], key[1]))
        else:
            out = fc.form()
            for k2, coeff in self.mcrel.relation(key).items():
                value = self._point_coeff(coeff)
                if value.is_zero():
                    continue
                out = out + fc.one_form(fc.mc(k2[0], k2[1])).scale(value)
        self._mu_cache[key] = out
        return out

    def _point_coeff(self, coeff: RatFn) -> RatFn:
        """Evaluate a lifted coefficient at the cross-section's order-0 values."""
        mapping = {}
        for vid in coeff.num.variables() | coeff.den.variables():
            var = self.jc.ctx.var_by_id(vid)
            decoded = self.jc.decode(var)
            if decoded[0] != "inv":
                continue
            coord = decoded[1]
            status = self.cs.status(coord)
            if status[0] in ("normalized", "vanishes"):
                mapping[vid] = status[1]
        return coeff.subs(mapping) if mapping else coeff

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
        coeffs: dict[JetKey, dict[ExpKey, Fraction]] = {}
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

    def recurrence(self, subject: Coord) -> RecurrenceRelation:
        fc = self.fc
        if subject[0] == "x":
            i = subject[1]
            rhs = fc.one_form(fc.omega(i)) + self.mu_form((i, mi_zero(self.system.m)))
            return RecurrenceRelation(subject, rhs)
        alpha, J = subject[1], subject[2]
        rhs = fc.form()
        for j in range(self.jc.p):
            coeff = self.iota_coord(("u", alpha, mi_bump(J, j)))
            if not coeff.is_zero():
                rhs = rhs + fc.one_form(fc.omega(j)).scale(coeff)
        phi = self.generator.prolong(alpha, J)
        rhs = rhs + self.lift_linear(phi)
        return RecurrenceRelation(subject, rhs)

    # -- normalization -----------------------------------------------------------------

    def phantom_subjects(self, inv_order: int) -> list[tuple[int, Coord]]:
        """(stratum, coordinate) pairs for every normalized or vanishing
        coordinate up to the working order, stratified by jet order."""
        subjects = []
        for i in range(self.jc.p):
            st = self.cs.status(("x", i))
            if st[0] in ("normalized", "vanishes"):
                subjects.append((0, ("x", i)))
        for alpha in range(self.jc.q):
            for J in mi_up_to(self.jc.p, inv_order):
                st = self.cs.status(("u", alpha, J))
                if st[0] in ("normalized", "vanishes"):
                    subjects.append((mi_order(J), ("u", alpha, J)))
        return subjects

    def normalize(self, inv_order: int, invertible_extra: Optional[Callable[[RatFn], bool]] = None) -> FrameState:
        """Solve all phantom relations up to the working order, stratified by
        subject order (parameters are normalized as soon as possible)."""
        self.cs.validate_prefix()
        state = FrameState(self)
        subjects = self.phantom_subjects(inv_order)
        nonvanishing_vars = {
            self.jc.invariant_var(c).vid for c in self.cs.nonvanishing
        }

        def invertible(c: RatFn) -> bool:
            if c.is_constant():
                return not c.is_zero()
            if invertible_extra is not None and invertible_extra(c):
                return True
            vars_used = c.num.variables() | c.den.variables()
            return bool(vars_used) and vars_used <= nonvanishing_vars

        for stratum in range(inv_order + 1):
            relations = []
            for order, coord in subjects:
                if order != stratum:
                    continue
                rec = self.recurrence(coord)
                form = state.reduce(rec.rhs)
                if not form.is_zero():
                    relations.append(form)
            if not relations:
                continue
            self._solve_stratum(state, relations, stratum, invertible)
        state.inv_order = inv_order
        return state

    def _solve_stratum(self, state: FrameState, relations: list[ExteriorForm], stratum: int, invertible) -> None:
        fc = self.fc

        def max_mc_order(form: ExteriorForm) -> int:
            orders = [fc.by_id(s).index[1] for s in form.symbols() if fc.by_id(s).kind == "mc"]
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
                sym = fc.by_id(sid)
                if sym.kind == "mc":
                    key = (sym.index[0], sym.index[2])
                    if key not in seen:
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
                sym = fc.by_id(word[0]) if len(word) == 1 else None
                if sym is not None and sym.kind == "mc":
                    row[columns[(sym.index[0], sym.index[2])]] = c
                else:
                    omega_part = omega_part + ExteriorForm(fc, {word: c})
            rows.append(row)
            rhs.append(-omega_part)
        matrix = ExactMatrix(rows, unknown_keys)
        result = solve_linear(
            matrix,
            rhs,
            invertible=invertible,
            add=lambda a, b: a + b,
            scale=lambda c, v: v.scale(c),
            strict=False,
        )
        for key, (omega_value, coeffs) in result.solved.items():
            value = omega_value
            for other, coeff in coeffs.items():
                value = value + self.mu_form(other).scale(coeff)
            value = state.reduce(value)
            state.resolved[key] = (value, stratum)
        if result.blocked:
            names = []
            for label, blocker in result.blocked:
                vars_used = blocker.num.variables() | blocker.den.variables()
                names.extend(self.jc.ctx.var_by_id(v).name for v in sorted(vars_used))
            state.blocked.append(BranchingRequired(sorted(set(names))))
        for coeffs, leftover in result.residual:
            if coeffs:
                continue
            if not leftover.is_zero():
                state.residual_relations.append(leftover)

    # -- reduced recurrences and structure equations ------------------------------------

    def reduced_recurrence(self, subject: Coord, state: FrameState) -> RecurrenceRelation:
        rec = self.recurrence(subject)
        return RecurrenceRelation(subject, state.reduce(rec.rhs))

    def invariant_differential(self, state: FrameState, inv_order: int, vids: set[int]) -> dict[int, ExteriorForm]:
        """Map invariant-variable id -> its reduced recurrence form, for the
        ids in ``vids`` that belong to an eligible coordinate: an x^i, or a
        free or nonvanishing u-jet up to ``inv_order``.

        Every eligible coordinate's invariant variable is registered first,
        in a fixed order, so variable ids do not depend on ``vids``."""
        coords: dict[int, Coord] = {}
        for i in range(self.jc.p):
            coords[self.jc.invariant_var(("x", i)).vid] = ("x", i)
        for alpha in range(self.jc.q):
            for J in mi_up_to(self.jc.p, inv_order):
                coord = ("u", alpha, J)
                if self.cs.status(coord)[0] in ("free", "nonvanishing"):
                    coords[self.jc.invariant_var(coord).vid] = coord
        return {vid: self.reduced_recurrence(coord, state).rhs for vid, coord in coords.items() if vid in vids}

    def audit_d_squared(self, state: FrameState, eqs: EquationSet, inv_order: int):
        """d^2 = 0 integrability audit on a normalized equation set.

        Coefficients are differentiated through the reduced recurrence
        relations of their invariants, built only for the equations the audit
        expands; an equation whose coefficients reach an invariant without a
        rule (beyond the working order) is reported as skipped rather than
        failed.  Returns (failures, audited, skipped)."""
        vids: set[int] = set()
        for rhs in eqs.equations.values():
            if eqs.closed(rhs):
                for c in rhs.terms.values():
                    vids |= c.num.variables() | c.den.variables()
        diff_map = self.invariant_differential(state, inv_order, vids)
        fc = self.fc

        def coeff_rule(c: RatFn) -> ExteriorForm:
            out = fc.form()
            for vid in sorted(c.num.variables() | c.den.variables()):
                var = self.jc.ctx.var_by_id(vid)
                if self.jc.decode(var)[0] != "inv":
                    raise ExactError(f"cannot differentiate coefficient {var.name}")
                rule = diff_map.get(vid)
                if rule is None:
                    raise MissingRule(var.name)
                partial = _ratfn_partial(c, var)
                if not partial.is_zero():
                    out = out + rule.scale(partial)
            return out

        return eqs.d_squared_audit(coeff_rule)


def normalized_structure_equations(
    engine: RecurrenceEngine,
    state: FrameState,
    restricted: EquationSet,
    keep_mc: Iterable[JetKey] = (),
) -> EquationSet:
    """Pull back a restricted equation set by the frame: sigma^i -> omega^i,
    sigma^{p+alpha} -> sum_j iota(u^alpha_j) omega^j, resolved Maurer-Cartan
    symbols -> their frame values, coefficients evaluated on the cross-section.

    Returns equations for d(omega^i) and for the residual Maurer-Cartan forms
    listed in ``keep_mc`` (plus any requested resolved symbols are dropped)."""
    fc = engine.fc
    jc = engine.jc
    p, q = jc.p, jc.q
    mapping: dict[int, ExteriorForm] = {}
    for i in range(p):
        mapping[fc.sigma(i).sid] = fc.one_form(fc.omega(i))
    for alpha in range(q):
        rhs = fc.form()
        for j in range(p):
            coeff = engine.iota_coord(("u", alpha, mi_bump(mi_zero(p), j)))
            if not coeff.is_zero():
                rhs = rhs + fc.one_form(fc.omega(j)).scale(coeff)
        mapping[fc.sigma(p + alpha).sid] = rhs

    def resolve_symbols(form: ExteriorForm) -> ExteriorForm:
        local = dict(mapping)
        for sid in form.symbols():
            sym = fc.by_id(sid)
            if sym.kind == "mc":
                value = state.resolved_value((sym.index[0], sym.index[2]))
                if value is not None:
                    local[sid] = value
        return substitute(form, local, coeff_sub=engine._point_coeff)

    out = EquationSet(fc)
    keep = set(keep_mc)
    for sym, rhs in restricted.items():
        if sym.kind == "sigma":
            a = sym.index[0]
            if a < p:
                out.set(fc.omega(a), resolve_symbols(rhs))
            continue
        if sym.kind == "mc":
            key = (sym.index[0], sym.index[2])
            if key in state.resolved:
                continue
            if keep and key not in keep:
                continue
            out.set(sym, resolve_symbols(rhs))
    for key in keep:
        out.mark_residual(fc.mc(key[0], key[1]))
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
            if sym.kind == "mc":
                residual_syms.append(sym)
        for i in range(p):
            for j in range(i + 1, p):
                word_syms = sorted([fc.omega(i).sid, fc.omega(j).sid], key=lambda s: fc.by_id(s).skey)
                coeff = rhs.coefficient_of_word(tuple(word_syms))
                sign = 1 if word_syms[0] == fc.omega(i).sid else -1
                Y[(k, i, j)] = -(coeff if sign > 0 else -coeff)
    return Y, residual_syms


# -- isotropy annihilator polynomials --------------------------------------------------


def isotropy_annihilator(engine: RecurrenceEngine, state: FrameState, n: int):
    """Isotropy annihilator polynomials of order <= n in the classical
    presentation: the point-evaluated determining relations together with the
    frame values of the Maurer-Cartan symbols, keeping only polynomials of
    degree <= n.

    Frame values use only the resolutions produced by phantoms of subject
    order <= n-1, which keeps the generating set minimal; the closure under
    multiplication enters separately through prolongation when the Cartan
    test is run.
    """
    from .involution import TPoly

    m = engine.system.m
    out: list[TPoly] = []
    seen: set = set()

    def emit(poly: TPoly):
        if poly.is_zero() or poly.degree() > n:
            return
        poly = _sign_normalize_tpoly(poly)
        key = frozenset(poly.terms.items())
        if key not in seen:
            seen.add(key)
            out.append(poly)

    for poly in determining_annihilator(engine, n):
        emit(poly)
    for a in range(m):
        for B in mi_up_to(m, n):
            poly = _frame_value_tpoly(engine, (a, B), state.mu_value((a, B), max_stratum=n - 1))
            if poly is not None:
                emit(poly)
    return out


def _frame_value_tpoly(engine: RecurrenceEngine, key: JetKey, value: ExteriorForm):
    """t^B T^a minus the constant Maurer-Cartan part of the frame value of
    mu^a_B (omega terms dropped); None when the value has a part of higher
    degree or a non-constant Maurer-Cartan coefficient."""
    from .involution import TPoly

    a, B = key
    terms = {(B, a): Q(1)}
    for word, coeff in value.terms.items():
        if len(word) != 1:
            return None
        sym = engine.fc.by_id(word[0])
        if sym.kind == "omega":
            continue
        if sym.kind != "mc" or not coeff.is_constant():
            return None
        k2 = (sym.index[2], sym.index[0])
        terms[k2] = terms.get(k2, Q(0)) - coeff.constant_value()
    return TPoly(engine.system.m, terms)


def determining_annihilator(engine: RecurrenceEngine, n: int):
    """Point-evaluated determining relations as T-polynomials (fully reduced
    presentation), for solved jets of subject order <= n."""
    from .involution import TPoly

    system = engine.system
    m = system.m
    out = []
    for key in system.solved_jets(n):
        terms = {(key[1], key[0]): Q(1)}
        degenerate = False
        for (f2, B2), coeff in system.relation(key).items():
            value = _coeff_at_point(engine, coeff)
            if value is None:
                degenerate = True
                break
            if value:
                terms[(B2, f2)] = terms.get((B2, f2), Q(0)) - value
        if degenerate:
            continue
        out.append(TPoly(m, terms))
    return [p for p in out if not p.is_zero()]


def _coeff_at_point(engine: RecurrenceEngine, coeff: RatFn):
    """Evaluate a z-coefficient at the cross-section's base-point constants."""
    mapping = {}
    for vid in coeff.num.variables() | coeff.den.variables():
        var = engine.jc.ctx.var_by_id(vid)
        decoded = engine.jc.decode(var)
        if decoded[0] == "x":
            coord = ("x", decoded[1])
        elif decoded[0] == "u":
            coord = ("u", decoded[1], decoded[2])
        else:
            return None
        status = engine.cs.status(coord)
        if status[0] not in ("normalized", "vanishes"):
            return None
        mapping[vid] = status[1]
    value = coeff.subs(mapping) if mapping else coeff
    if not value.is_constant():
        return None
    return value.constant_value()


def _sign_normalize_tpoly(poly):
    from .involution import TPoly

    lead = max(poly.terms)
    if poly.terms[lead] < 0:
        return TPoly(poly.m, {k: -c for k, c in poly.terms.items()})
    return poly


def invariantize_parametrized(engine: RecurrenceEngine, terms: dict):
    """Invariantize a parametrized symbol-module element: coefficients (RatFn
    in jet coordinates) are replaced by their invariantizations, which the
    cross-section freezes to constants where it normalizes.

    Returns a TPoly when every coefficient becomes rational, else a dict of
    (multi-index, target) -> RatFn over invariant symbols."""
    from .involution import TPoly

    out = {}
    constant = True
    for key, coeff in terms.items():
        if not isinstance(coeff, RatFn):
            coeff = engine.jc.ratfn(coeff)
        value = engine.iota_poly(coeff.num) / engine.iota_poly(coeff.den)
        out[key] = value
        constant &= value.is_constant()
    if constant:
        return TPoly(engine.system.m, {k: v.constant_value() for k, v in out.items() if not v.is_zero()})
    return out


def restrict_targets(polys, keep: set[int]):
    """Drop polynomials touching targets outside ``keep`` and the order-0
    block (the reduced generator sets of the final worked example)."""
    out = []
    for poly in polys:
        if poly.degree() == 0:
            continue
        if all(a in keep for _, a in poly.terms):
            out.append(poly)
    return out


def pstar_basis(engine: RecurrenceEngine, n: int):
    """Dual prolongation map on the basis of S^{<=n}: p*(s~_i) = T^i,
    p*(S^alpha) = the characteristic's symbol, p*(s_J S^alpha) = the symbol of
    the prolonged coefficient, all evaluated at the cross-section point."""
    from .involution import TPoly

    jc = engine.jc
    system = engine.system
    m = system.m
    out = []
    for i in range(jc.p):
        out.append(TPoly(m, {(mi_zero(m), i): Q(1)}))
    char = engine.generator.characteristic()
    for alpha in range(jc.q):
        poly = _field_linear_to_tpoly(engine, char[alpha])
        if poly is not None and not poly.is_zero():
            out.append(poly)
    for k in range(1, n + 1):
        from .jets import mi_all

        for J in mi_all(jc.p, k):
            for alpha in range(jc.q):
                phi = engine.generator.prolong(alpha, J)
                poly = _field_linear_to_tpoly(engine, phi)
                if poly is not None and not poly.is_zero():
                    out.append(poly)
    return out


def _field_linear_to_tpoly(engine: RecurrenceEngine, phi):
    """Coefficient extraction <v; .> at the cross-section point for a
    polynomial linear in the coefficient-field jets."""
    from .involution import TPoly

    jc = engine.jc
    m = engine.system.m
    terms: dict = {}
    for key, c in phi.terms.items():
        fkey = None
        rest = []
        for vid, e in key:
            var = jc.ctx.var_by_id(vid)
            decoded = jc.decode(var)
            if decoded[0] == "f":
                fkey = (decoded[1], decoded[2])
            else:
                rest.append((vid, e))
        if fkey is None:
            raise ExactError("pairing: term without a field jet")
        mono = Poly(jc.ctx, {tuple(sorted(rest)): c})
        value = _coeff_at_point(engine, RatFn(mono, jc.poly(1)))
        if value is None:
            return None
        if value:
            _add_term(terms, (fkey[1], fkey[0]), value)
    return TPoly(m, terms)


def frame_annihilator_full(engine: RecurrenceEngine, state: FrameState, n: int):
    """Frame-derived isotropy annihilator without the stratum restriction or
    the per-element degree filter (input to the dimension checks)."""
    m = engine.system.m
    out = list(determining_annihilator(engine, n + 2))
    for a in range(m):
        for B in mi_up_to(m, n):
            poly = _frame_value_tpoly(engine, (a, B), state.mu_value((a, B)))
            if poly is not None:
                out.append(poly)
    return [p for p in out if not p.is_zero()]


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
                out = _ratfn_partial(out, var)
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


def _ratfn_partial(f: RatFn, var) -> RatFn:
    dn = f.num.partial(var)
    dd = f.den.partial(var)
    return RatFn(dn * f.den - f.num * dd, f.den * f.den)


def oracle_classify_ode(jc: JetContext, F: RatFn):
    """Independent route: evaluate both numerators directly on functions of
    (x,u,p) with Dhat = d/dx + p d/du + F d/dp and q-jets replaced by F's
    partial derivatives from the start."""
    xv, uv, pv = jc.x_var(0), jc.x_var(1), jc.x_var(2)

    def part(f, var):
        return _ratfn_partial(f, var)

    def dhat(f):
        return part(f, xv) + jc.rvar(pv) * part(f, uv) + F * part(f, pv)

    Fp = part(F, pv)
    Fpp = part(Fp, pv)
    inv1 = part(part(Fpp, pv), pv)
    Fu = part(F, uv)
    Fup = part(Fu, pv)
    Fuu = part(Fu, uv)
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
    """A parameter mesh plus closed-form invariant functions.

    ``grids`` is a list of 1-d numpy arrays (one per submanifold parameter);
    ``invariants`` maps a parameter point to the value of each generating
    invariant; ``derive`` gives the invariant total derivative operators as
    function-to-function transformers.
    """

    def __init__(self, grids, invariants, derive):
        self.grids = grids
        self.invariants = list(invariants)
        self.derive = list(derive)


def signature_compare(S: SampledSubmanifold, Sbar: SampledSubmanifold, n: int, tol: float = 1e-9):
    import numpy as np

    if len(S.derive) != len(Sbar.derive):
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
    scale = max(1.0, float(np.abs(cloudA).max()), float(np.abs(cloudB).max()))
    gap = max(_directed_min_distance(cloudA, cloudB), _directed_min_distance(cloudB, cloudA))
    overlap_tol = max(tol, 1e-7) * scale
    return SignatureReport(pA["ranks"], s, pA["rank"], bool(gap <= overlap_tol), True)


def _signature_functions(S: SampledSubmanifold, n: int):
    """All D_J I_kappa with #J <= n; J ranges over ordered words."""
    levels = [list(S.invariants)]
    for _ in range(n):
        prev = levels[-1]
        nxt = []
        for op in S.derive:
            for f in prev:
                nxt.append(op(f))
        levels.append(nxt)
    return levels


def _signature_cloud(S: SampledSubmanifold, n: int):
    import itertools as it

    import numpy as np

    levels = _signature_functions(S, n)
    funcs = [f for level in levels for f in level]
    points = list(it.product(*[list(g) for g in S.grids]))
    return np.array([[float(f(*pt)) for f in funcs] for pt in points])


def _signature_profile(S: SampledSubmanifold, n: int, tol: float):
    import itertools as it

    import numpy as np

    levels = _signature_functions(S, n)
    p = len(S.grids)
    interior = list(it.product(*[range(1, len(g) - 1) for g in S.grids]))
    ranks = []
    regular = True
    for k in range(n + 1):
        funcs = [f for level in levels[: k + 1] for f in level]
        point_ranks = set()
        for idx in interior:
            jac = np.zeros((len(funcs), p))
            for direction in range(p):
                lo = list(idx)
                hi = list(idx)
                lo[direction] -= 1
                hi[direction] += 1
                pt_lo = tuple(S.grids[d][lo[d]] for d in range(p))
                pt_hi = tuple(S.grids[d][hi[d]] for d in range(p))
                h = S.grids[direction][hi[direction]] - S.grids[direction][lo[direction]]
                for r, f in enumerate(funcs):
                    jac[r, direction] = (float(f(*pt_hi)) - float(f(*pt_lo))) / h
            sv = np.linalg.svd(jac, compute_uv=False)
            cutoff = max(tol * (sv[0] if len(sv) else 0.0), 1e-12)
            point_ranks.add(int((sv > cutoff).sum()))
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


def _directed_min_distance(A, B):
    import numpy as np

    best = np.inf
    for row in A:
        d = np.sqrt(((B - row) ** 2).sum(axis=1)).min()
        best = min(best, float(d))
    return best
