"""One problem through the method's chain: determining system -> recurrence
engine -> phantom normalization -> normalized coframe.

The engine lifts the determining system with its own cross-section
evaluation (``RecurrenceEngine.mc``).  The coframe pulls the structure
equations of the basis Maurer-Cartan forms back by the frame, one
substitution per equation, and keeps those the frame leaves free.  The lift
as a relabelling (``Session.mc``) feeds only the restricted structure
equations of the ``structure`` report (``Session.restricted``) and the
``lift`` report.

Each stage is built on first use and kept, so a caller pays only for the
stages it reads::

    s = Session.load("problems/point_branch1.prob", order=5, mc_order=2)
    s.state.residual_keys(2)          # normalizes; builds no coframe
    failures, audited, skipped = s.engine.audit_d_squared(s.state, s.coframe, 6)
"""

from __future__ import annotations

from functools import cached_property

from .exterior import EquationSet, FormContext, diffeo_structure_equations, restrict_to_pseudogroup
from .frames import CrossSection, FrameState, RecurrenceEngine, normalized_structure_equations
from .problem import ProblemFile, parse_problem
from .pseudogroup import MCRelationSet, lift_system


class Session:
    """The stages of one problem file at a working order ``order`` (of the
    normalization) and Maurer-Cartan order ``mc_order`` (of the coframe)."""

    def __init__(self, pf: ProblemFile, order: int = 3, mc_order: int = 2):
        self.pf = pf
        self.order = order
        self.mc_order = mc_order
        self.jc, self.system, self.cs = pf.build()

    @classmethod
    def load(cls, path, order: int = 3, mc_order: int = 2) -> "Session":
        with open(path) as handle:
            return cls(parse_problem(handle.read()), order, mc_order)

    @cached_property
    def mc(self) -> MCRelationSet:
        """The lift as a relabelling, for ``restricted`` and ``lift``."""
        return lift_system(self.system)

    @cached_property
    def fc(self) -> FormContext:
        """Form symbols, with the ``print { mu^x as mu; }`` names applied."""
        fc = FormContext(self.jc)
        for (stem, coord), alias in self.pf.print_aliases.items():
            if coord in self.pf.base:
                fc.mc_names[self.pf.base.index(coord)] = alias
        return fc

    @cached_property
    def engine(self) -> RecurrenceEngine:
        return RecurrenceEngine(self.system, self.cs, fc=self.fc)

    @cached_property
    def raw_engine(self) -> RecurrenceEngine:
        """An engine on the empty cross-section: unnormalized recurrences."""
        return RecurrenceEngine(self.system, CrossSection(self.jc), fc=self.fc)

    @cached_property
    def state(self) -> FrameState:
        return self.engine.normalize(self.order)

    @cached_property
    def restricted(self) -> EquationSet:
        """Structure equations of the sigma forms and of the basis Maurer-Cartan
        forms up to ``mc_order``, restricted to the pseudo-group."""
        eqs = diffeo_structure_equations(self.fc, self.system, self.mc_order + 1)
        return restrict_to_pseudogroup(eqs, self.mc)

    @cached_property
    def coframe(self) -> EquationSet:
        """Structure equations of the normalized invariant coframe and of the
        Maurer-Cartan forms up to ``mc_order`` that the frame leaves free."""
        eqs = diffeo_structure_equations(self.fc, self.system, self.mc_order + 1)
        return normalized_structure_equations(self.engine, self.state, eqs)
