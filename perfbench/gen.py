"""Seeded problem files for the ``algebra`` workload, and independent checks.

``spoly`` files feed ``groebner``: three homogeneous generators of degree 2 in
the module over s_x, s_y, s_z with targets S^u, S^v.  ``tpoly`` files feed
``cartan-test --order 2``: six homogeneous generators of degree 2 over five
base variables.  The monomial supports are fixed per file slot; the seed
draws the nonzero coefficients.  Random supports make Buchberger's cost
heavy-tailed (one seed in eight took 40x the median in a probe), which would
turn the seed into the dominant source of run-to-run spread.

Homogeneous generators keep every reduction inside one degree, so the
degree-bounded linear-algebra membership test is exact at the degree of the
element tested.  That is the degree bound the groebner check uses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from calls import report_fields

DEFAULT_SEED = 1
SPOLY_FILES = 6
TPOLY_FILES = 4
TPOLY_ORDER = 2

S_INDEP, S_DEP = ["x", "y", "z"], ["u", "v"]
T_BASE = ["x", "y", "z", "w", "r"]


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        counts = [0] * nvars
        for v in combo:
            counts[v] += 1
        out.append(tuple(counts))
    return sorted(out)


def _support(slot: int, kind: str, gens: int, terms: int, nvars: int, ntargets: int, degree: int):
    rng = random.Random(f"{kind}-{slot}")
    space = [(J, a) for J in _monomials(nvars, degree) for a in range(ntargets)]
    return [sorted(rng.sample(space, terms)) for _ in range(gens)]


def _render(support, rng, prefix: str, target: str, names, targets) -> str:
    lines = []
    for gen in support:
        parts = []
        for J, a in gen:
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            mono = "*".join(f"{prefix}_{n}" + (f"^{e}" if e > 1 else "") for n, e in zip(names, J) if e)
            parts.append(f"{coeff}*{mono}*{target}^{targets[a]}")
        lines.append("  " + " + ".join(parts).replace("+ -", "- ") + ";")
    return "\n".join(lines)


def spoly_text(slot: int, rng: random.Random) -> str:
    support = _support(slot, "spoly", 3, 3, len(S_INDEP), len(S_DEP), 2)
    body = _render(support, rng, "s", "S", S_INDEP, S_DEP)
    return (
        f"base {' '.join(S_INDEP + S_DEP)};\n"
        f"split independent {' '.join(S_INDEP)} dependent {' '.join(S_DEP)};\n"
        f"spoly {{\n{body}\n}}\n"
    )


def tpoly_text(slot: int, rng: random.Random) -> str:
    support = _support(slot, "tpoly", 6, 4, len(T_BASE), len(T_BASE), TPOLY_ORDER)
    body = _render(support, rng, "t", "T", T_BASE, T_BASE)
    return (
        f"base {' '.join(T_BASE)};\n"
        f"split independent {' '.join(T_BASE[:-1])} dependent {T_BASE[-1]};\n"
        f"tpoly {{\n{body}\n}}\n"
    )


def write_inputs(workdir, seed: int) -> None:
    """Write the seeded files into ``workdir``."""
    rng = random.Random(seed)
    files = {}
    for slot in range(SPOLY_FILES):
        files[f"spoly{slot}.prob"] = spoly_text(slot, rng)
    for slot in range(TPOLY_FILES):
        files[f"tpoly{slot}.prob"] = tpoly_text(slot, rng)
    for name, text in files.items():
        (workdir / name).write_text(text)


# -- independent checks ---------------------------------------------------------------


def _lead(poly: dict):
    """Leading term in the CLI's order: degree, then lower target index, then
    the exponents (the order ``groebner_module`` documents)."""
    return max(poly, key=lambda t: (sum(t[0]), -t[1], t[0]))


def _divides(a, b) -> bool:
    return a[1] == b[1] and all(x <= y for x, y in zip(a[0], b[0]))


def check_groebner(text: str, out: str) -> str | None:
    """The reported basis is the reduced Groebner basis of the generators'
    module: the generators and the basis span each other (degree-bounded
    linear algebra at the degree of the element tested), the basis is
    reduced, and in every degree up to the largest S-pair degree the leading
    terms of the basis cover as many monomials as the module has dimensions,
    which certifies the Groebner property of a homogeneous basis."""
    from cartanframes.involution import SPoly, membership_by_linear_algebra
    from cartanframes.problem import parse_problem

    pf = parse_problem(text)
    p, q = len(pf.independent), len(pf.dependent)
    header = f"base {' '.join(pf.base)};\nsplit independent {' '.join(pf.independent)} dependent {' '.join(pf.dependent)};\n"

    def to_spoly(decl_terms):
        return SPoly(p, q, {}, {(counts, target): coeff for counts, target, coeff in decl_terms})

    gens = [to_spoly(decl.terms) for decl in pf.spoly]
    fields = report_fields(out)
    basis = []
    for i in range(int(fields["groebner.size"])):
        statement = header + f"spoly {{ {fields[f'groebner.basis[{i}]']}; }}\n"
        basis.append(to_spoly(parse_problem(statement).spoly[0].terms))
    for g in gens:
        if not membership_by_linear_algebra(g, basis, g.degree()):
            return "an input generator is not in the span of the reported basis"
    for b in basis:
        if not membership_by_linear_algebra(b, gens, b.degree()):
            return "a reported basis element is not in the span of the generators"

    leads = [_lead(b.terms) for b in basis]
    for i, b in enumerate(basis):
        if b.terms[leads[i]] != 1:
            return "a basis element is not monic"
        for j, lead in enumerate(leads):
            if j != i and any(_divides(lead, term) for term in b.terms):
                return "the basis is not reduced"
    top = max(sum(J) for J, _ in leads)
    for a, b in combinations(leads, 2):
        if a[1] == b[1]:
            top = max(top, sum(max(x, y) for x, y in zip(a[0], b[0])))
    for d in range(min(g.degree() for g in gens), top + 1):
        rows = [g.mul_monomial(J).terms for g in gens if g.degree() <= d for J in _monomials(p, d - g.degree())]
        covered = sum(
            1 for J in _monomials(p, d) for target in range(q) if any(_divides(lead, (J, target)) for lead in leads)
        )
        if covered != _span_rank(rows):
            return f"the leading terms of the basis miss part of the module in degree {d}"
    return None


PRIME = 2**61 - 1


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank by elimination modulo a 61-bit prime.  It equals the rank over
    the rationals unless the prime divides every maximal nonzero minor,
    which for these small-integer matrices does not happen in practice; it
    can only ever be lower."""
    work = []
    for row in rows:
        work.append([(c.numerator * pow(c.denominator, -1, PRIME)) % PRIME for c in row])
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank]
        inv = pow(lead[col], -1, PRIME)
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                f = f * inv % PRIME
                work[r] = [(a - f * b) % PRIME for a, b in zip(work[r], lead)]
        rank += 1
    return rank


def _span_rank(polys: list[dict]) -> int:
    columns = sorted({k for poly in polys for k in poly})
    return _rank([[Fraction(poly.get(c, 0)) for c in columns] for poly in polys])


def check_cartan(text: str, out: str) -> str | None:
    """Recompute, with this module's own elimination, the dimension of the
    degree-n symbol (the sum of the indices) and the rank of its prolongation;
    then check the weighted sum and the verdict that the report derives."""
    from cartanframes.problem import parse_problem

    pf = parse_problem(text)
    m = len(pf.base)
    gens = [{(counts, target): coeff for counts, target, coeff in decl.terms} for decl in pf.tpoly]
    prolonged = []
    for g in gens:
        for a in range(m):
            prolonged.append(
                {(tuple(c + (i == a) for i, c in enumerate(B)), t): v for (B, t), v in g.items()}
            )
    fields = report_fields(out)
    beta = {a: int(fields[f"cartan.beta[{a}]"]) for a in range(1, m + 1)}
    rank_next = int(fields["cartan.rank_next"])
    weighted = int(fields["cartan.weighted_sum"])
    if sum(beta.values()) != _span_rank(gens):
        return "the indices do not sum to the dimension of the symbol"
    if rank_next != _span_rank(prolonged):
        return "cartan.rank_next differs from the rank of the prolonged symbol"
    if weighted != sum(a * b for a, b in beta.items()):
        return "cartan.weighted_sum is not the weighted index sum"
    if fields["cartan.involutive"] != str(rank_next == weighted).lower():
        return "cartan.involutive contradicts the ranks"
    return None
