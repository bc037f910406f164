"""Span tracing of cartanframes from outside the package.

``Tracer.install`` wraps each listed public function or method.  A plain
function is patched in every ``cartanframes`` module that holds it, because
modules import names directly (``cli.normalized_structure_equations`` is the
same object as ``frames.normalized_structure_equations``); a method is patched
on its class.  Each call records a span (name, start, end, parent) in memory;
``Tracer.summary`` derives calls and self time per name from the spans, plus
the counts behind the waste ratios.

This is the only timing mechanism below the CLI.  When the package grows its
own stage timer, that timer should replace these wrappers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# Each span name is "<module>.<qualified name>" under the cartanframes package.
SPANS = [
    "problem.parse_problem",
    "problem.ProblemFile.build",
    "pseudogroup.DeterminingSystem.prolong",
    "pseudogroup.lift_system",
    "pseudogroup.InfinitesimalGenerator.prolong",
    "jets.JetContext.total_derivative_poly",
    "exact.poly_gcd",
    "exact.solve_linear",
    "exterior.diffeo_structure_equations",
    "exterior.restrict_to_pseudogroup",
    "exterior.ExteriorForm.wedge",
    "exterior.substitute",
    "exterior.exterior_derivative",
    "frames.RecurrenceEngine.normalize",
    "frames.RecurrenceEngine.recurrence",
    "frames.RecurrenceEngine.lift_linear",
    "frames.RecurrenceEngine.iota_poly",
    "frames.RecurrenceEngine.audit_d_squared",
    "frames.RecurrenceEngine.invariant_differential",
    "frames.normalized_structure_equations",
    "frames.commutator_invariants",
    "frames.isotropy_annihilator",
    "involution.groebner_module",
    "involution.groebner_reduce",
    "involution.cartan_test",
    "involution.delta_regular_search",
    "cli.Report.render",
]

# Spans whose arguments or results feed the waste ratios (see Tracer._observe).
OBSERVED = (
    "pseudogroup.InfinitesimalGenerator.prolong",
    "frames.RecurrenceEngine.invariant_differential",
    "frames.normalized_structure_equations",
)


def _inv_vids(engine, eqs) -> set:
    """Ids of the invariant variables in the coefficients of an EquationSet."""
    jc = engine.jc
    vids = set()
    for form in eqs.equations.values():
        for coeff in form.terms.values():
            vids |= coeff.num.variables() | coeff.den.variables()
    return {v for v in vids if jc.decode(jc.ctx.var_by_id(v))[0] == "inv"}


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # Waste-ratio inputs, gathered from the wrapped calls' arguments and results.
        self.prolong_args: set = set()
        self.rules: set = set()
        self.coframe_invariants: set = set()

    def _observe(self, name, args, result) -> None:
        if name == "pseudogroup.InfinitesimalGenerator.prolong":
            self.prolong_args.add((id(args[0]), args[1], tuple(args[2])))
        elif name == "frames.RecurrenceEngine.invariant_differential":
            self.rules |= set(result)
        elif name == "frames.normalized_structure_equations":
            self.coframe_invariants |= _inv_vids(args[0], result)

    def _wrap(self, idx: int, name: str, fn):
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        observe = self._observe if name in OBSERVED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every span; call once, in the process that runs the calls."""
        importlib.import_module("cartanframes.cli")
        modules = [m for n, m in sys.modules.items() if n == "cartanframes" or n.startswith("cartanframes.")]
        for idx, name in enumerate(SPANS):
            mod_name, *path = name.split(".")
            owner = importlib.import_module(f"cartanframes.{mod_name}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(idx, name, original)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def summary(self) -> dict:
        """Calls and self time per span name, and the waste-ratio counts.

        A span's self time is its duration minus the durations of the spans
        whose parent it is."""
        n = len(self.start)
        self_s = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        calls = [0] * len(SPANS)
        totals = [0.0] * len(SPANS)
        for i in range(n):
            calls[self.name_id[i]] += 1
            totals[self.name_id[i]] += self_s[i]
        return {
            "calls": dict(zip(SPANS, calls)),
            "self_s": dict(zip(SPANS, totals)),
            "prolong_distinct": len(self.prolong_args),
            "rules_built": len(self.rules),
            "rules_used": len(self.rules & self.coframe_invariants),
        }
