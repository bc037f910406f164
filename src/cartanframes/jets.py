"""Multi-index bookkeeping, jet coordinate symbol tables and total derivative
operators.

A :class:`JetContext` owns one :class:`~cartanframes.exact.Context` and hands
out three families of indeterminates:

* jet coordinates ``x^i`` and ``u^alpha_J`` (``J`` a symmetric multi-index
  over the independent variables),
* field jets ``f_B`` for declared coefficient fields (a field is an unknown
  function of a declared list of base coordinates; its jets obey the chain
  rule through the submanifold split),
* opaque invariant symbols, one per jet coordinate, used after
  invariantization.

Symbol tables grow lazily: asking for ``u_xxx`` the first time registers it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import Context, ExactError, ExpKey, Poly, RatFn, Variable, _add_term, _merge_exp, solve_linear, subscript

Counts = tuple[int, ...]


def mi_order(counts: Counts) -> int:
    return sum(counts)

def mi_zero(n: int) -> Counts:
    return (0,) * n

def mi_add(a: Counts, b: Counts) -> Counts:
    return tuple(x + y for x, y in zip(a, b))

def mi_bump(counts: Counts, pos: int) -> Counts:
    return tuple(c + 1 if i == pos else c for i, c in enumerate(counts))

def mi_factorial(counts: Counts) -> int:
    out = 1
    for c in counts:
        for k in range(2, c + 1):
            out *= k
    return out

def mi_divides(a: Counts, b: Counts) -> bool:
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))

def mi_all(n: int, order: int) -> list[Counts]:
    """All multi-indices over n slots of exactly the given order, lex order."""
    if n == 0:
        return [()] if order == 0 else []
    out = []
    for first in range(order, -1, -1):
        for rest in mi_all(n - 1, order - first):
            out.append((first,) + rest)
    return out

def mi_up_to(n: int, order: int) -> list[Counts]:
    out = []
    for k in range(order + 1):
        out.extend(mi_all(n, k))
    return out


# Coordinate references: ("x", i) for an independent variable,
# ("u", alpha, J) for the jet coordinate u^alpha_J.
Coord = tuple


def coord_x(i: int) -> Coord:
    return ("x", i)

def coord_u(alpha: int, J: Counts) -> Coord:
    return ("u", alpha, J)


class Field:
    """An unknown coefficient function of declared base coordinates."""

    def __init__(self, idx: int, name: str, base: Sequence[Coord], base_names: Sequence[str]):
        self.idx = idx
        self.name = name
        self.base = list(base)
        # the subscript names of its jets, one per base coordinate
        self.base_names = list(base_names)

    def __repr__(self):
        return f"Field({self.name})"


class JetContext:
    """Jet coordinates, coefficient fields, invariants and total derivatives."""

    def __init__(self, independents: Sequence[str], dependents: Sequence[str]):
        if not independents or not dependents:
            raise ExactError("need at least one independent and one dependent variable")
        names = list(independents) + list(dependents)
        if len(set(names)) != len(names):
            raise ExactError("variable names must be distinct")
        self.ctx = Context()
        self.independents = list(independents)
        self.dependents = list(dependents)
        self.p = len(independents)
        self.q = len(dependents)
        self.fields: list[Field] = []
        self._field_by_name: dict[str, Field] = {}
        # (variable id, i) -> monomials of D_i(variable), filled by _dvar
        self._dvar_keys: dict[tuple[int, int], list[ExpKey]] = {}
        for i, name in enumerate(self.independents):
            self.ctx.variable(name, skey=(0, i), intern_key=("x", i))

    # -- variable access ----------------------------------------------------

    def x_var(self, i: int) -> Variable:
        return self.ctx.find(("x", i))

    def u_var(self, alpha: int, J: Counts) -> Variable:
        key = ("u", alpha, J)
        var = self.ctx.find(key)
        if var is None:
            var = self.ctx.variable(self.jet_name(alpha, J), skey=(1, mi_order(J), alpha, J), intern_key=key)
        return var

    def coord_var(self, coord: Coord) -> Variable:
        if coord[0] == "x":
            return self.x_var(coord[1])
        return self.u_var(coord[1], coord[2])

    def field(self, name: str, base: Sequence[Coord]) -> Field:
        if name in self._field_by_name:
            return self._field_by_name[name]
        f = Field(len(self.fields), name, base, [self.coord_name(c) for c in base])
        self.fields.append(f)
        self._field_by_name[name] = f
        return f

    def field_var(self, field: Field, B: Counts) -> Variable:
        key = ("f", field.idx, B)
        var = self.ctx.find(key)
        if var is None:
            var = self.ctx.variable(
                self.field_jet_name(field.idx, B), skey=(2, field.idx, mi_order(B), B), intern_key=key
            )
        return var

    def invariant_var(self, coord: Coord) -> Variable:
        key = ("inv",) + tuple(coord)
        var = self.ctx.find(key)
        if var is None:
            if coord[0] == "x":
                name = self.independents[coord[1]].upper()
                skey = (3, 0, 0, coord[1], ())
            else:
                alpha, J = coord[1], coord[2]
                name = self._invariant_name(alpha, J)
                skey = (3, 1, mi_order(J), alpha, J)
            var = self.ctx.variable(name, skey=skey, intern_key=key)
        return var

    # -- names (pure: nothing is registered) ----------------------------------

    def jet_name(self, alpha: int, J: Counts) -> str:
        return self.dependents[alpha] + subscript(self.independents, J)

    def coord_name(self, coord: Coord) -> str:
        return self.independents[coord[1]] if coord[0] == "x" else self.jet_name(coord[1], coord[2])

    def field_jet_name(self, fidx: int, B: Counts) -> str:
        field = self.fields[fidx]
        return field.name + subscript(field.base_names, B)

    def _invariant_name(self, alpha: int, J: Counts) -> str:
        """``Q_PX2``: the dependent and the subscript in capitals, highest
        independent first."""
        names = [n.upper() for n in reversed(self.independents)]
        return self.dependents[alpha].upper() + subscript(names, J[::-1])

    def decode(self, var: Variable):
        """Inverse lookup: classify a variable back to its structural role."""
        kind = var.skey[0]
        if kind == 0:
            return ("x", var.skey[1])
        if kind == 1:
            return ("u", var.skey[2], var.skey[3])
        if kind == 2:
            return ("f", var.skey[1], var.skey[3])
        if kind == 3:
            if var.skey[1] == 0:
                return ("inv", ("x", var.skey[3]))
            return ("inv", ("u", var.skey[3], var.skey[4]))
        return ("plain", var.name)

    # -- polynomial helpers ---------------------------------------------------

    def poly(self, c=0) -> Poly:
        return self.ctx.poly(c)

    def ratfn(self, c=0) -> RatFn:
        return self.ctx.ratfn(c)

    def pvar(self, var: Variable) -> Poly:
        return self.ctx.poly_var(var)

    def rvar(self, var: Variable) -> RatFn:
        return RatFn(self.ctx.poly_var(var), self.ctx.poly(1), _normalized=True)

    # -- total derivatives ------------------------------------------------------

    def _coord_derivative(self, coord: Coord, i: int) -> Poly:
        if coord[0] == "x":
            return self.poly(1 if coord[1] == i else 0)
        alpha, J = coord[1], coord[2]
        return self.pvar(self.u_var(alpha, mi_bump(J, i)))

    def _var_derivative(self, var: Variable, i: int) -> Poly:
        kind = var.skey[0]
        if kind == 0:
            return self.poly(1 if var.skey[1] == i else 0)
        if kind == 1:
            alpha, J = var.skey[2], var.skey[3]
            return self.pvar(self.u_var(alpha, mi_bump(J, i)))
        if kind == 2:
            field = self.fields[var.skey[1]]
            B = var.skey[3]
            out = self.poly(0)
            for pos, coord in enumerate(field.base):
                dc = self._coord_derivative(coord, i)
                if dc.is_zero():
                    continue
                out = out + dc * self.pvar(self.field_var(field, mi_bump(B, pos)))
            return out
        if kind == 3:
            raise ExactError("total derivative of an opaque invariant symbol")
        return self.poly(0)

    def _dvar(self, vid: int, i: int) -> list[ExpKey]:
        """Monomials of D_i(variable ``vid``), stored in ``_dvar_keys``.  Each
        has coefficient 1: D_i of a coordinate is 0, 1 or another jet
        coordinate."""
        terms = self._var_derivative(self.ctx.var_by_id(vid), i).terms
        if any(c != 1 for c in terms.values()):
            raise ExactError("total derivative of a variable is not a sum of monomials")
        keys = self._dvar_keys[(vid, i)] = list(terms)
        return keys

    def total_derivative_poly(self, f: Poly, i: int) -> Poly:
        """D_i f by the chain rule in one pass over the terms of f: each factor
        v^e of a monomial contributes e * v^(e-1) * D_i(v) times the rest."""
        out: dict[ExpKey, Fraction] = {}
        cached = self._dvar_keys
        for key, c in f.terms.items():
            for pos, (vid, e) in enumerate(key):
                dv = cached.get((vid, i))
                if dv is None:
                    dv = self._dvar(vid, i)
                if not dv:
                    continue
                if e == 1:
                    rest = key[:pos] + key[pos + 1 :]
                    ce = c
                else:
                    rest = key[:pos] + ((vid, e - 1),) + key[pos + 1 :]
                    ce = c * e
                for dkey in dv:
                    _add_term(out, _merge_exp(rest, dkey), ce)
        return Poly(self.ctx, out)

    def total_derivative(self, f: Poly | RatFn, i: int) -> Poly | RatFn:
        """D_{x^i} f via the chain rule over all registered symbol families."""
        if isinstance(f, Poly):
            return self.total_derivative_poly(f, i)
        dn = self.total_derivative_poly(f.num, i)
        dd = self.total_derivative_poly(f.den, i)
        return RatFn(dn * f.den - f.num * dd, f.den * f.den)

    def d_hat(self, f, coeffs: Sequence[Poly | RatFn]):
        """Directional total derivative sum_i coeffs[i] * D_{x^i} f."""
        out = None
        for i, c in enumerate(coeffs):
            term = c * self.total_derivative(f, i) if not isinstance(c, int) else self.total_derivative(f, i) * c
            out = term if out is None else out + term
        return out


def lifted_total_derivative_matrix(jc: JetContext, targets: Sequence[RatFn]) -> list[list[RatFn]]:
    """Inverse transpose data for lifted total derivatives.

    Given target components ``X^1..X^p`` returns the matrix ``W`` with
    ``D_{X^i} = sum_j W[j][i] D_{x^j}``, i.e. the inverse of the total
    Jacobian ``(D_{x^i} X^j)``.  Raises on a singular Jacobian.
    """
    p = jc.p
    jac = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(p):
            tij = jc.total_derivative(targets[j], i)
            jac[i][j] = tij if isinstance(tij, RatFn) else RatFn(tij, jc.poly(1))
    return invert_ratfn_matrix(jc, jac)


def invert_ratfn_matrix(jc: JetContext, m: list[list[RatFn]]) -> list[list[RatFn]]:
    """Inverse of a square RatFn matrix: solve ``[M | -I] (x, y) = 0`` for x,
    pivoting on any nonzero entry.  A pivot in the -I block means M is singular."""
    n = len(m)
    zero = jc.ratfn(0)
    rows = [list(row) + [jc.ratfn(-1 if j == i else 0) for j in range(n)] for i, row in enumerate(m)]
    result = solve_linear(rows, range(2 * n), [zero] * n, invertible=lambda e: True)
    if any(label >= n for label in result.solved):
        raise ExactError("degenerate map: singular total Jacobian")
    return [[result.solved[i][1].get(n + j, zero) for j in range(n)] for i in range(n)]
