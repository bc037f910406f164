"""Symbol modules, the Cartan test pipeline, Stirling numbers,
arbitrary-function counts, beta maps, monomial complements and Groebner
bases."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cartanframes
from cartanframes.exact import ExactError
from cartanframes.involution import (
    BetaMap,
    SPoly,
    TPoly,
    arbitrary_function_counts,
    cartan_characters,
    cartan_test,
    class_of,
    delta_regular_search,
    groebner_module,
    groebner_reduce,
    indices,
    linear_basis,
    membership_by_linear_algebra,
    modified_stirling,
    monomial_complement,
    prolong_generators,
    prolonged_symbol_preimage,
    symbol_matrix,
    t_homogeneous_component,
)

Q = Fraction


def T3(B, a, c=1):
    return TPoly(3, {(tuple(B), a): Q(c)})


def e3(i):
    return tuple(1 if k == i else 0 for k in range(3))


CASE1 = [
    T3(e3(1), 1) + T3(e3(0), 0),
    T3(e3(2), 1),
    T3(e3(2), 0),
    T3(e3(2), 2),
]
CASE21 = [
    T3(e3(1), 1),
    T3(e3(2), 1),
    T3(e3(2), 0),
    T3(e3(2), 2),
    T3(e3(0), 0),
    T3(e3(1), 0),
]
NATURAL3 = [0, 1, 2]


# -- highest term and class ---------------------------------------------------------


def test_highest_term():
    m = 4
    poly = TPoly(m, {((0, 0, 0, 0), 3): Q(1), ((1, 0, 0, 0), 2): Q(-1)})
    assert poly.highest_term() == TPoly(m, {((1, 0, 0, 0), 2): Q(-1)})
    hom = TPoly(m, {((1, 0, 0, 0), 0): Q(2)})
    assert hom.highest_term() == hom
    assert hom.highest_term().highest_term() == hom.highest_term()


def test_highest_term_spoly_drops_constant_part():
    e = SPoly(1, 1, {0: Q(3)}, {((0,), 0): Q(1)})
    assert e.highest_term() == SPoly(1, 1, {}, {((0,), 0): Q(1)})


# -- the element algebra against a plain-dict oracle ----------------------------------


@st.composite
def module_pairs(draw):
    """Two elements of one module as (s~ part, terms) dicts: T of rank m, or
    S of ranks p, q whose first element has a nonzero s~ part."""
    kind = draw(st.sampled_from("TS"))
    nvars = draw(st.integers(min_value=1, max_value=3))
    ntargets = nvars if kind == "T" else draw(st.integers(min_value=1, max_value=2))
    coeff = st.integers(min_value=-3, max_value=3).filter(bool).map(Q)
    counts = st.tuples(*[st.integers(min_value=0, max_value=2)] * nvars)
    key = st.tuples(counts, st.integers(min_value=0, max_value=ntargets - 1))

    def parts(min_stilde):
        stilde = {}
        if kind == "S":
            stilde = draw(st.dictionaries(st.integers(min_value=0, max_value=nvars - 1), coeff, min_size=min_stilde))
        return stilde, draw(st.dictionaries(key, coeff, max_size=5))

    if kind == "T":
        make = lambda stilde, terms: TPoly(nvars, terms)
    else:
        make = lambda stilde, terms: SPoly(nvars, ntargets, stilde, terms)
    return make, nvars, parts(1), parts(0)


def _dict_sum(x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _dict_scale(x, c):
    return {k: v * c for k, v in x.items() if v * c}


@given(module_pairs(), st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3), st.integers(min_value=-2, max_value=2))
@settings(max_examples=100, deadline=None)
def test_module_element_algebra_matches_a_dict_oracle(pair, monomial, c):
    make, nvars, (sa, ta), (sb, tb) = pair
    a, b = make(sa, ta), make(sb, tb)

    def check(elem, stilde, terms):
        expect = make(stilde, terms)
        assert type(elem) is type(a) and elem.stilde == stilde and elem.terms == terms
        assert elem == expect and hash(elem) == hash(expect)

    check(a, sa, ta)
    check(a + b, _dict_sum(sa, sb), _dict_sum(ta, tb))
    check(a - b, _dict_sum(sa, _dict_scale(sb, -1)), _dict_sum(ta, _dict_scale(tb, -1)))
    check(-a, _dict_scale(sa, -1), _dict_scale(ta, -1))
    check(a.scale(c), _dict_scale(sa, c), _dict_scale(ta, c))
    M = tuple(monomial[:nvars])
    shifted = {(tuple(x + y for x, y in zip(B, M)), t): v for (B, t), v in ta.items()}
    # a monomial of positive degree annihilates the s~ part
    check(a.mul_monomial(M), sa if not any(M) else {}, shifted)
    degree = max((sum(B) for B, _ in ta), default=-1 if sa else 0)
    assert a.degree() == degree
    for n in range(-1, 7):
        check(a.degree_part(n), {}, {k: v for k, v in ta.items() if sum(k[0]) == n})
    check(a.highest_term(), {}, {k: v for k, v in ta.items() if sum(k[0]) == degree})
    columns = sorted(set(ta) | set(tb) | {((0,) * nvars, 0)})
    assert a.row(columns) == [ta.get(col, 0) for col in columns]
    assert (a == b) == (sa == sb and ta == tb)
    assert a != (SPoly(nvars, nvars, {}, ta) if isinstance(a, TPoly) else TPoly(nvars, ta))
    assert a.is_zero() == (not sa and not ta)


@pytest.mark.parametrize("module", ["cartanframes.frames", "cartanframes.involution"])
def test_module_imports_first_in_a_fresh_interpreter(module):
    """frames imports TPoly from involution at module level; either module
    must import on its own, with nothing of the package loaded before it."""
    src = str(pathlib.Path(cartanframes.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_class_definition():
    assert class_of((0, 1, 2), NATURAL3) == 2
    # t_q under priority (u, p, x, q) on base (x, u, p, q)
    assert class_of((0, 0, 0, 1), [1, 2, 0, 3]) == 4
    with pytest.raises(ExactError):
        class_of((0, 0, 0), NATURAL3)


@given(
    st.integers(min_value=0, max_value=2),
    st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3),
)
@settings(max_examples=30, deadline=None)
def test_class_multiplicativity(a, counts):
    if sum(counts) == 0:
        counts[0] = 1
    mono = tuple(counts)
    scaled = tuple(c + (1 if i == a else 0) for i, c in enumerate(mono))
    rank = {var: r + 1 for r, var in enumerate(NATURAL3)}
    assert class_of(scaled, NATURAL3) == min(rank[a], class_of(mono, NATURAL3))


# -- symbol matrices and the Cartan test -----------------------------------------------


def test_symbol_matrix_single_generator():
    g = TPoly(1, {((1,), 0): Q(1)})
    rows, columns = symbol_matrix([g], 1, [0])
    assert columns == [((1,), 0)]
    assert rows == [[Q(1)]]


def test_symbol_matrix_proportional_rows():
    g = T3(e3(2), 0)
    from cartanframes.exact import rank

    rows, _ = symbol_matrix([g, g.scale(-2)], 1, NATURAL3)
    assert rank(rows) == 1


def test_mixed_degree_rejected():
    with pytest.raises(ExactError):
        symbol_matrix([T3(e3(0), 0) + T3((1, 1, 0), 0)], 1, NATURAL3)


def test_case1_numbers():
    beta = indices(CASE1, 1, NATURAL3)
    assert beta == {3: 3, 2: 1, 1: 0}
    report = cartan_test(CASE1, 1, NATURAL3)
    assert report["rank_next"] == 11
    assert report["weighted_sum"] == 11
    assert report["involutive"]
    alpha, flags = cartan_characters(beta, 3, 1)
    assert alpha == {1: 3, 2: 2, 3: 0}
    assert flags == []


def test_case21_numbers():
    beta = indices(CASE21, 1, NATURAL3)
    assert beta == {3: 3, 2: 2, 1: 1}
    report = cartan_test(CASE21, 1, NATURAL3)
    assert report["rank_next"] == 14
    assert report["involutive"]
    alpha, _ = cartan_characters(beta, 3, 1)
    assert alpha == {1: 2, 2: 1, 3: 0}


def test_cartan_inequality_in_delta_regular_coordinates():
    """rank T^{n+1} <= weighted index sum in an optimal priority."""
    for gens in (CASE1, CASE21):
        search = delta_regular_search(gens, 1)
        report = cartan_test(gens, 1, search["priority"])
        assert report["rank_next"] <= report["weighted_sum"]


def test_delta_search_suboptimal_natural_order_for_contact():
    """The natural (x, u, p, q) priority is suboptimal for the contact
    generators; the search finds a priority reproducing beta = (4,3,1,0)."""
    m = 4

    def T4(B, a, c=1):
        return TPoly(4, {(tuple(B), a): Q(c)})

    e = lambda i: tuple(1 if k == i else 0 for k in range(4))
    X, U, P, QV = 0, 1, 2, 3
    gens = [
        T4(e(QV), QV) - T4(e(P), P) + T4(e(X), X),
        T4(e(QV), P), T4(e(QV), U), T4(e(QV), X),
        T4(e(X), P), T4(e(X), U),
        T4(e(P), P) + T4(e(X), X) - T4(e(U), U),
        T4(e(P), U),
    ]
    natural = indices(gens, 1, [X, U, P, QV])
    score_natural = sum(a * b for a, b in natural.items())
    search = delta_regular_search(gens, 1)
    assert search["score"] == 27 > score_natural
    assert search["beta"] == {4: 4, 3: 3, 2: 1, 1: 0}


def test_delta_search_reports_ties():
    g = [T3(e3(0), 0), T3(e3(1), 1)]  # symmetric under swapping x and y
    search = delta_regular_search(g, 1)
    assert len(search["optimal"]) >= 2
    best = search["priority"]
    swapped = list(best)
    i, j = best.index(0), best.index(1)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert swapped in search["optimal"]


def test_prolongation_default_component():
    got = prolong_generators(CASE1, 3)
    assert len(got) == 12
    assert all(g.degree() == 2 for g in got if not g.is_zero())


# -- characters, Stirling numbers, function counts ----------------------------------------


def test_characters_zero_indices():
    from math import comb

    alpha, flags = cartan_characters({}, 3, 2)
    for a in (1, 2, 3):
        assert alpha[a] == 3 * comb(2 + 3 - a - 1, 1)
    assert flags == []


def test_characters_negative_flagged():
    alpha, flags = cartan_characters({1: 99}, 3, 1)
    assert alpha[1] < 0 and flags == [1]


def test_character_m_convention_documented():
    """With the printed formula no single m reproduces all four contact
    characters; m = 3 matches classes 1..3 and m = 4 matches class 4 only."""
    beta = {4: 4, 3: 3, 2: 1, 1: 0}
    alpha3, _ = cartan_characters({a: beta[a] for a in (1, 2, 3)}, 3, 1)
    assert (alpha3[1], alpha3[2], alpha3[3]) == (3, 2, 0)
    alpha4, _ = cartan_characters(beta, 4, 1)
    assert alpha4[4] == 0
    assert (alpha4[1], alpha4[2], alpha4[3]) != (3, 2, 0)


def test_modified_stirling_small_cases():
    assert modified_stirling(0, 0, 0) == 1
    assert modified_stirling(1, 0, 0) == 1
    assert modified_stirling(1, 1, 4) == 5  # c + 1
    assert [modified_stirling(2, b, 0) for b in (0, 1, 2)] == [1, 3, 2]
    with pytest.raises(ExactError):
        modified_stirling(1, 2, 0)


def test_modified_stirling_product_reconstruction():
    for a in range(5):
        for c in range(4):
            # multiply out sum_b s^(a)_{a-b}(c) y^b and compare coefficient-wise
            coeffs = [modified_stirling(a, a - b, c) for b in range(a + 1)]
            poly = [Q(1)]
            for j in range(1, a + 1):
                nxt = [Q(0)] * (len(poly) + 1)
                for k, ck in enumerate(poly):
                    nxt[k] += ck * (c + j)
                    nxt[k + 1] += ck
                poly = nxt
            assert coeffs == poly


def test_function_counts_all_zero():
    counts, flags = arbitrary_function_counts({1: 0, 2: 0, 3: 0}, 3, 1)
    assert all(v == 0 for v in counts.values()) and flags == []


def test_function_counts_contact_example():
    """f_2 = 2 (two functions of two variables); the printed recursion gives a
    non-integer f_1, flagged; the alternate weight yields f_1 = 1."""
    alpha = {4: 0, 3: 0, 2: 2, 1: 3}
    printed, flags = arbitrary_function_counts(alpha, 4, 1, "printed")
    assert printed[2] == 2
    assert printed[1] == Q(8, 3)
    assert flags == [1]
    alternate, flags2 = arbitrary_function_counts(alpha, 4, 1, "alternate")
    assert alternate[2] == 2 and alternate[1] == 1 and flags2 == []


# -- beta maps and preimages ---------------------------------------------------------------


def test_beta_pullback_zero_jet():
    bm = BetaMap(1, 1, [[Q(0)]])
    e = SPoly(1, 1, {}, {((1,), 0): Q(1)})  # s_1 S^1
    assert bm.pullback(e) == TPoly(2, {((1, 0), 1): Q(1)})


def test_beta_pullback_nonzero_jet():
    c = Q(3)
    bm = BetaMap(1, 1, [[c]])
    S1 = SPoly(1, 1, {}, {((0,), 0): Q(1)})
    got = bm.pullback(S1)
    assert got == TPoly(2, {((0, 0), 1): Q(1), ((0, 0), 0): -c})
    s1S1 = SPoly(1, 1, {}, {((1,), 0): Q(1)})
    got2 = bm.pullback(s1S1)
    expect = TPoly(
        2,
        {
            ((1, 0), 1): Q(1),
            ((1, 0), 0): -c,
            ((0, 1), 1): c,
            ((0, 1), 0): -c * c,
        },
    )
    assert got2 == expect


def test_preimage_of_full_module():
    """I = all of T gives back all of S-hat per degree."""
    full = [TPoly(2, {((0, 0), a): Q(1)}) for a in range(2)]
    bm = BetaMap(1, 1, [[Q(2)]])
    pre = prolonged_symbol_preimage(full, bm, 2)
    from math import comb

    for k in range(3):
        assert len(pre[k]) == comb(k + 0, 0) * 1  # q = 1, one monomial per degree


def test_pullback_commutes_with_highest_term():
    """H[p*(sigma)] = beta*[H(sigma)] checked through the pullback on
    homogeneous elements (pullback preserves degree)."""
    bm = BetaMap(2, 1, [[Q(1), Q(2)]])
    e = SPoly(2, 1, {}, {((1, 1), 0): Q(2), ((2, 0), 0): Q(-1)})
    assert bm.pullback(e.highest_term()).degree() == 2
    assert bm.pullback(e).highest_term() == bm.pullback(e)  # degree-preserving


# -- monomial complements -------------------------------------------------------------------


def test_monomial_complement_sp4():
    """M = <s_p^4 S> over s = (s_x, s_u, s_p): complement monomials have
    p-exponent <= 3; count at degree 5 matches direct enumeration."""
    gens = [(0, (0, 0, 4))]
    comp = monomial_complement(gens, 3, 1, 5)
    count = sum(1 for J, _ in comp if True)
    direct = sum(
        1
        for i in range(6)
        for j in range(6)
        for k in range(4)
        if i + j + k <= 5
    )
    assert count == direct
    assert all(J[2] <= 3 for J, _ in comp)


def test_monomial_complement_empty_module():
    comp = monomial_complement([], 2, 1, 2)
    assert len(comp) == 6  # all monomials of degree <= 2 in two variables


def test_linear_basis_shape():
    """Rows come out solved for a module monomial with parametric tails."""
    V = [
        SPoly(2, 1, {}, {((2, 0), 0): Q(2), ((0, 1), 0): Q(4)}),
        SPoly(2, 1, {}, {((1, 1), 0): Q(1)}),
    ]
    rows = linear_basis(V, [(0, (2, 0)), (0, (1, 1))], 2)
    assert len(rows) == 2
    lead = rows[0]
    assert lead.terms[((2, 0), 0)] == 1


# -- Groebner bases ---------------------------------------------------------------------------


def test_groebner_principal_monomial():
    g = SPoly(2, 1, {}, {((1, 0), 0): Q(1)})  # s_x S
    basis = groebner_module([g])
    assert basis == [g]
    e = SPoly(2, 1, {}, {((2, 1), 0): Q(5)})  # s_x^2 s_u S
    assert groebner_reduce(e, basis).is_zero()


def test_groebner_two_generators():
    gx = SPoly(2, 1, {}, {((1, 0), 0): Q(1)})
    gu = SPoly(2, 1, {}, {((0, 1), 0): Q(1)})
    basis = groebner_module([gx, gu])
    assert basis == [gu, gx] or basis == [gx, gu]
    for g in (gx, gu):
        assert groebner_reduce(g, basis).is_zero()


def _random_spoly(rng, p, q, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        J = tuple(rng.randint(0, max_deg) for _ in range(p))
        if sum(J) > max_deg:
            continue
        alpha = rng.randint(0, q - 1)
        terms[(J, alpha)] = Q(rng.randint(-3, 3))
    return SPoly(p, q, {}, {k: v for k, v in terms.items() if v})


def test_groebner_membership_vs_linear_oracle():
    """50 randomized small instances: Buchberger membership agrees with the
    degree-bounded linear-algebra oracle."""
    rng = random.Random(29)
    agree = 0
    for _ in range(50):
        p, q = rng.choice([(2, 1), (2, 2)])
        gens = [g for g in (_random_spoly(rng, p, q, 2) for _ in range(2)) if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_module(gens)
        candidate = _random_spoly(rng, p, q, 3)
        if candidate.is_zero():
            continue
        by_groebner = groebner_reduce(candidate, basis).is_zero()
        by_linear = membership_by_linear_algebra(candidate, gens, candidate.degree() + 4)
        assert by_groebner == by_linear
        agree += 1
    assert agree >= 30


def test_groebner_input_reduces_to_zero_and_confluence():
    rng = random.Random(7)
    for _ in range(10):
        gens = [g for g in (_random_spoly(rng, 2, 1, 2) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        basis = groebner_module(gens)
        for g in gens:
            assert groebner_reduce(g, basis).is_zero()
        candidate = _random_spoly(rng, 2, 1, 3)
        shuffled = list(basis)
        rng.shuffle(shuffled)
        assert groebner_reduce(candidate, basis) == groebner_reduce(candidate, shuffled)
