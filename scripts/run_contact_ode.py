#!/usr/bin/env python3
"""Contact equivalence of second order ODEs: partial moving frame, involutive
coframe structure equations, and the isotropy annihilator polynomials feeding
the Cartan test."""

import pathlib

from cartanframes.frames import isotropy_annihilator
from cartanframes.session import Session

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def main():
    fr = Session.load(PROBLEMS / "contact.prob", order=4, mc_order=2)
    print("== normalized Maurer-Cartan forms ==")
    for key, label in [
        ((0, (0, 0, 0, 0)), "mu^x"),
        ((1, (0, 0, 0, 0)), "mu^u"),
        ((2, (0, 0, 0, 0)), "mu^p"),
        ((3, (0, 0, 0, 0)), "mu^q"),
        ((2, (1, 0, 0, 0)), "mu^p_X"),
        ((2, (2, 0, 0, 0)), "mu^p_XX"),
    ]:
        print(f"{label} = {fr.state.mu_value(key).pretty()}")
    print()
    print("== structure equations of the invariant horizontal coframe ==")
    for i in range(3):
        print(f"dw^{fr.jc.independents[i]} = {fr.coframe.get(fr.fc.omega(i)).pretty()}")
    print()
    print("== order-1 isotropy annihilator polynomials ==")
    names = fr.jc.independents + fr.jc.dependents
    for poly in isotropy_annihilator(fr.engine, 1):
        print(f"  {poly.pretty(names)}")


if __name__ == "__main__":
    main()
