"""Formal integrability of a determining system, checked by cross
derivation: kept as a test oracle until a pseudo-group check in the
pipeline gives it a caller."""

from cartanframes.exact import _add_term
from cartanframes.pseudogroup import DeterminingSystem, JetKey, LinComb


class NotFormallyIntegrable:
    """Structured finding: two derivations of the same jet disagree."""

    def __init__(self, jet: JetKey, residual: LinComb):
        self.jet = jet
        self.residual = residual

    def __repr__(self):
        return f"NotFormallyIntegrable(jet={self.jet})"


def check_integrability(system: DeterminingSystem, order: int) -> list[NotFormallyIntegrable]:
    """Cross-derive every solved jet of order <= order along all admissible
    parents and compare; disagreements are reported, not raised."""
    findings = []
    for key in system.solved_jets(order):
        f, B = key
        parents = [
            i
            for i in range(system.m)
            if B[i] > 0 and system.lead_for((f, tuple(c - 1 if j == i else c for j, c in enumerate(B)))) is not None
        ]
        if len(parents) < 2:
            continue
        ref = system.relation(key)
        for a in parents:
            parent = (f, tuple(c - 1 if j == a else c for j, c in enumerate(B)))
            diff = dict(system.reduce(system.z_derivative(system.relation(parent), a)))
            for k, c in ref.items():
                _add_term(diff, k, -c)
            if diff:
                findings.append(NotFormallyIntegrable(key, diff))
    return findings
