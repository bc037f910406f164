"""The numpy signature comparator that the pure-Python one in
``cartanframes.frames`` replaced, kept as its oracle: central differences
from each value list reshaped to the mesh, ranks from ``np.linalg.svd``, the
gap and the scale from array reductions."""

import numpy as np

from cartanframes.frames import SampledSubmanifold, SignatureReport


def signature_compare(S: SampledSubmanifold, Sbar: SampledSubmanifold, n: int, tol: float = 1e-9):
    if len(S.grids) != len(Sbar.grids):
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


def signature_values(S: SampledSubmanifold, n: int) -> np.ndarray:
    """One row per D_J I with #J <= n, one column per mesh point."""
    return np.array([vals for level in S.levels[: n + 1] for vals in level])


def signature_cloud(S: SampledSubmanifold, n: int):
    return signature_values(S, n).T


def central_differences(S: SampledSubmanifold, vals) -> np.ndarray:
    """The central difference quotients of one value list at the interior
    mesh points: shape ``(p, n_1 - 2, ..., n_p - 2)``, direction first."""
    sizes = [len(g) for g in S.grids]
    mesh = np.reshape(vals, sizes)
    out = []
    for d, grid in enumerate(S.grids):

        def shifted(offset):
            return mesh[tuple(slice(1 + offset * (e == d), size - 1 + offset * (e == d)) for e, size in enumerate(sizes))]

        g = np.asarray(grid)
        shape = [1] * len(sizes)
        shape[d] = -1
        out.append((shifted(1) - shifted(-1)) / (g[2:] - g[:-2]).reshape(shape))
    return np.array(out)


def signature_profile(S: SampledSubmanifold, n: int, tol: float):
    p = len(S.grids)
    ranks = []
    regular = True
    for k in range(n + 1):
        rows = np.array([central_differences(S, vals).reshape(p, -1) for vals in signature_values(S, k)])
        point_ranks = set()
        for jac in np.transpose(rows, (2, 0, 1)):  # one (functions x directions) matrix per interior point
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
