import pathlib

import pytest

from cartanframes.jets import coord_u, coord_x, mi_zero
from cartanframes.problem import parse_problem
from cartanframes.pseudogroup import DeterminingSystem
from cartanframes.session import Session

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def load_problem(name):
    return parse_problem((PROBLEMS / f"{name}.prob").read_text())


def session(name, order=3, mc_order=2):
    return Session.load(PROBLEMS / f"{name}.prob", order, mc_order)


def diffeo_system(jc, m):
    """The determining system without relations of m coefficient fields over
    the first m coordinates of ``jc``: every jet is a basis jet, so its
    structure equations are those of the diffeomorphism pseudo-group."""
    p = len(jc.independents)
    coords = [coord_x(i) for i in range(p)] + [coord_u(a, mi_zero(p)) for a in range(len(jc.dependents))]
    return DeterminingSystem(jc, [jc.field(f"zeta{i}", coords[:m]) for i in range(m)])


@pytest.fixture(scope="session")
def point_universal():
    return session("point", order=5, mc_order=2)


@pytest.fixture(scope="session")
def point_branch1():
    return session("point_branch1", order=5, mc_order=2)


@pytest.fixture(scope="session")
def point_branch4():
    return session("point_branch4", order=6, mc_order=3)


@pytest.fixture(scope="session")
def point_order0():
    return session("point_order0", order=0, mc_order=2)


@pytest.fixture(scope="session")
def contact_frame():
    return session("contact", order=4, mc_order=2)


@pytest.fixture(scope="session")
def pj_frame():
    return session("pj", order=3, mc_order=2)
