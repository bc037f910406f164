"""One problem through the method's chain: determining system -> recurrence
engine -> phantom normalization -> normalized coframe.

The engine evaluates the determining system on the cross-section directly.
The lift of the system (``Session.mc``) feeds only the restricted structure
equations and the ``lift`` report.  The structure equations are built for
the basis Maurer-Cartan forms only (``Session.restricted``), and the coframe
keeps those the frame leaves free.

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
from .jets import JetContext
from .problem import ProblemFile, parse_problem
from .pseudogroup import DeterminingSystem, MCRelationSet, lift_system


class Session:
    """The stages of one problem file at a working order ``order`` (of the
    normalization) and Maurer-Cartan order ``mc_order`` (of the coframe)."""

    def __init__(self, pf: ProblemFile, order: int = 3, mc_order: int = 2):
        self.pf = pf
        self.order = order
        self.mc_order = mc_order

    @classmethod
    def load(cls, path, order: int = 3, mc_order: int = 2) -> "Session":
        with open(path) as handle:
            return cls(parse_problem(handle.read()), order, mc_order)

    @cached_property
    def _built(self):
        """(jet context, determining system, cross-section) of the problem."""
        return self.pf.build()

    @property
    def jc(self) -> JetContext:
        return self._built[0]

    @property
    def system(self) -> DeterminingSystem:
        return self._built[1]

    @property
    def cs(self) -> CrossSection:
        return self._built[2]

    @cached_property
    def mc(self) -> MCRelationSet:
        """The lift, for the restricted structure equations and ``lift``."""
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
        return normalized_structure_equations(self.engine, self.state, self.restricted)
