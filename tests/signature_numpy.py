"""The numpy signature comparator that the pure-Python one in
``cartanframes.frames`` replaced, kept as its oracle: ranks from
``np.linalg.svd``, the gap and the scale from array reductions."""

import itertools as it

import numpy as np

from cartanframes.frames import SampledSubmanifold, SignatureReport, _signature_functions


def signature_compare(S: SampledSubmanifold, Sbar: SampledSubmanifold, n: int, tol: float = 1e-9):
    if len(S.derive) != len(Sbar.derive):
        return SignatureReport([], None, None, False, False, "parameter dimension mismatch")
    pA = signature_profile(S, n, tol)
    pB = signature_profile(Sbar, n, tol)
    if not pA["regular"] or not pB["regular"]:
        return SignatureReport(pA["ranks"], None, None, False, False, "not fully regular")
    if pA["ranks"] != pB["ranks"] or pA["order"] is None or pA["order"] != pB["order"]:
        return SignatureReport(pA["ranks"], pA["order"], pA["rank"], False, True, "order/rank mismatch")
    s = pA["order"]
    cloudA = signature_cloud(S, s + 1)
    cloudB = signature_cloud(Sbar, s + 1)
    scale = max(1.0, float(np.abs(cloudA).max()), float(np.abs(cloudB).max()))
    gap = max(directed_min_distance(cloudA, cloudB), directed_min_distance(cloudB, cloudA))
    overlap_tol = max(tol, 1e-7) * scale
    return SignatureReport(pA["ranks"], s, pA["rank"], bool(gap <= overlap_tol), True)


def signature_cloud(S: SampledSubmanifold, n: int):
    levels = _signature_functions(S, n)
    funcs = [f for level in levels for f in level]
    points = list(it.product(*[list(g) for g in S.grids]))
    return np.array([[float(f(*pt)) for f in funcs] for pt in points])


def signature_profile(S: SampledSubmanifold, n: int, tol: float):
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


def directed_min_distance(A, B):
    best = np.inf
    for row in A:
        d = np.sqrt(((B - row) ** 2).sum(axis=1)).min()
        best = min(best, float(d))
    return best
