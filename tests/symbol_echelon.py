"""The class-ordered symbol matrix and the indices read off its echelon form,
kept as the oracle of the rank-based ``involution.indices`` and
``involution.delta_regular_search``, and span equality of two generating
sets, which only the tests ask."""

import itertools
from fractions import Fraction
from typing import Sequence

from cartanframes.exact import ExactError, ordered_row_echelon
from cartanframes.involution import TPoly, TTerm, t_span_dim
from cartanframes.jets import Counts, mi_all, mi_order


def class_of(B: Counts, priority: Sequence[int]) -> int:
    """Class of a nonzero multi-index: the minimal priority rank among the
    variables present.  ``priority`` lists variable positions from class 1 up."""
    if mi_order(B) == 0:
        raise ExactError("class of the zero multi-index is undefined")
    ranks = {var: r + 1 for r, var in enumerate(priority)}
    return min(ranks[i] for i, c in enumerate(B) if c)


def symbol_matrix(gens: Sequence[TPoly], n: int, priority: Sequence[int]) -> tuple[list[list[Fraction]], list[TTerm]]:
    """``(rows, columns)``: the rows are the generators' degree-n coefficients;
    the columns are ordered by descending class, ties broken by graded-lex on
    the exponents then by the target index."""
    m = gens[0].m if gens else len(priority)
    for g in gens:
        for B, a in g.terms:
            if mi_order(B) != n:
                raise ExactError("symbol matrix rows must be degree-homogeneous")

    def colkey(col):
        B, a = col
        cls = class_of(B, priority)
        perm = tuple(B[priority[r]] for r in range(len(priority)))
        return (-cls, perm, a)

    columns = sorted(((B, a) for B in mi_all(m, n) for a in range(m)), key=colkey)
    return [g.row(columns) for g in gens], columns


def indices(gens: Sequence[TPoly], n: int, priority: Sequence[int]) -> dict[int, int]:
    """Pivot count per class of the echelon symbol matrix: beta^(a)_n."""
    rows, columns = symbol_matrix(gens, n, priority)
    _, pivots = ordered_row_echelon(rows)
    beta = {a: 0 for a in range(1, len(priority) + 1)}
    for c in pivots:
        B, _ = columns[c]
        beta[class_of(B, priority)] += 1
    return beta


def delta_regular_search(gens: Sequence[TPoly], n: int):
    """One echelon per priority, over every priority of the variables."""
    best = None
    ties = []
    for perm in itertools.permutations(range(gens[0].m)):
        beta = indices(gens, n, list(perm))
        score = sum(a * b for a, b in beta.items())
        if best is None or score > best[0]:
            best = (score, list(perm), beta)
            ties = [list(perm)]
        elif score == best[0]:
            ties.append(list(perm))
    return {"priority": best[1], "beta": best[2], "score": best[0], "optimal": ties}


def t_span_equal(a: Sequence[TPoly], b: Sequence[TPoly]) -> bool:
    return t_span_dim(a) == t_span_dim(b) == t_span_dim([*a, *b])
