#!/usr/bin/env python3
"""Walk through the point-transformation equivalence problem for q = F(x,u,p).

Reproduces, in order: the raw order-0 recurrence relations, the universal
normalizations and the fourth/fifth-order recurrence display, the generic
branch (full normalization, invariant coframe equations, commutators), and
the singular branch with its SL(3)-type structure equations.
"""

import pathlib

from cartanframes.exact import format_ratfn
from cartanframes.session import Session

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def load(name, order=3, mc_order=2):
    return Session.load(PROBLEMS / f"{name}.prob", order, mc_order)


def section(title):
    print()
    print(f"== {title} ==")


def main():
    section("raw order-0 recurrence relations")
    raw = load("point").raw_engine
    for coord, label in [(("x", 0), "dX"), (("x", 1), "dU"), (("x", 2), "dP"), (("u", 0, (0, 0, 0)), "dQ")]:
        print(f"{label} = {raw.recurrence(coord).pretty()}")

    section("universal frame: resolved Maurer-Cartan forms of order <= 3")
    fr = load("point", order=5, mc_order=2)
    for key in sorted(fr.state.resolved, key=lambda k: (sum(k[1]), k[0], k[1])):
        if sum(key[1]) <= 3:
            name = fr.fc.mc(key[0], key[1]).name
            print(f"{name} = {fr.state.mu_value(key).pretty()}")
    print("residual:", ", ".join(fr.fc.mc(f, B).name for f, B in fr.state.residual_keys(2)))

    section("fourth and fifth order recurrence relations")
    for counts in [(0, 0, 4), (2, 0, 2), (0, 0, 5), (1, 0, 4), (0, 1, 4), (2, 0, 3), (2, 1, 2), (3, 0, 2)]:
        rec = fr.engine.reduced_recurrence(("u", 0, counts), fr.state)
        name = fr.jc.ctx.var_by_id(fr.jc.invariant_var(("u", 0, counts)).vid).name
        print(f"d{name} = {rec.pretty()}")

    section("generic branch: invariant coframe")
    b1 = load("point_branch1", order=5, mc_order=2)
    for i, nm in [(0, "dw^x"), (1, "dw^u"), (2, "dw^p")]:
        print(f"{nm} = {b1.coframe.get(b1.fc.omega(i)).pretty()}")
    Y, partial = b1.commutators
    print("commutator invariants Y[k;i,j]:")
    names = b1.jc.independents
    for (k, i, j), value in sorted(Y.items()):
        if not value.is_zero():
            print(f"  Y[{names[k]};{names[i]},{names[j]}] = {format_ratfn(value)}")
    failures, audited, _ = b1.audit
    print(f"d^2 audit: {'pass' if not failures else 'FAIL'} on {len(audited)} equations")

    section("singular branch: structure equations of the symmetry group")
    b4 = load("point_branch4", order=6, mc_order=3)
    fc = b4.fc
    for i in range(3):
        print(f"dw^{b4.jc.independents[i]} = {b4.coframe.get(fc.omega(i)).pretty()}")
    for key in b4.state.residual_keys(3):
        sym = fc.mc(key[0], key[1])
        print(f"d{sym.name} = {b4.coframe.get(sym).pretty()}")
    failures, audited, _ = b4.audit
    print(f"d^2 audit: {'pass' if not failures else 'FAIL'} on {len(audited)} equations")


if __name__ == "__main__":
    main()
