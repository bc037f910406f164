#!/usr/bin/env python3
"""The algebraic involutivity pipeline on the shipped fixtures.

For the contact problem the isotropy annihilator polynomials are derived by
the moving-frame engine; the two-form/vector-field cases use the reduced
generator lists shipped as fixtures.  Prints symbol-matrix indices, the
Cartan test, characters and arbitrary-function counts.
"""

import pathlib

from cartanframes.frames import isotropy_annihilator
from cartanframes.involution import (
    arbitrary_function_counts,
    cartan_characters,
    cartan_test,
    delta_regular_search,
    t_homogeneous_component,
)
from cartanframes.problem import parse_problem
from cartanframes.session import Session

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def run(label, gens, m, names, char_m):
    comp = t_homogeneous_component(gens, m, 1)
    search = delta_regular_search(comp, 1)
    priority = search["priority"]
    report = cartan_test(comp, 1, priority)
    print(f"-- {label} --")
    print("  generators:")
    for g in gens:
        print(f"    {g.pretty(names)}")
    print(f"  priority: {', '.join(names[i] for i in priority)}")
    beta = report["beta"]
    print("  indices:", {f"beta^{a}": beta[a] for a in sorted(beta, reverse=True)})
    print(f"  rank T^2 = {report['rank_next']}  (weighted sum {report['weighted_sum']})")
    print(f"  involutive: {report['involutive']}")
    alpha, neg = cartan_characters(beta, char_m, 1)
    print("  characters:", {f"alpha^{a}": alpha[a] for a in sorted(alpha, reverse=True)}, "(m =", char_m, ")")
    for variant in ("printed", "alternate"):
        counts, flags = arbitrary_function_counts(alpha, char_m, 1, variant)
        note = f"  f ({variant}):", {a: str(counts[a]) for a in sorted(counts, reverse=True)}
        print(*note, f"inapplicable: {flags}" if flags else "")
    print()


def main():
    fr = Session.load(PROBLEMS / "contact.prob")
    polys = isotropy_annihilator(fr.engine, 1)
    names = fr.jc.independents + fr.jc.dependents
    run("contact equivalence of second order ODEs", polys, 4, names, 4)

    for name, label in (
        ("twoform_case1", "two-form and vector field, constant invariant"),
        ("twoform_case21", "two-form and vector field, A_ZZ = A_Z^2"),
    ):
        pf = parse_problem((PROBLEMS / f"{name}.prob").read_text())
        run(label, pf.module_generators("t"), 3, pf.base, 3)


if __name__ == "__main__":
    main()
