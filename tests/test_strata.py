"""A frame's strata do not depend on the order it is normalized to: the
phantom relations of subject order k are solved with the values of the strata
below k alone, so a frame normalized to order n holds exactly the strata
0..n of any deeper frame, and a reader of the strata below n normalizes only
to n - 1."""

import pytest

from cartanframes import cli
from cartanframes.frames import RecurrenceEngine
from conftest import PROBLEMS, session

SHIPPED = sorted(p.stem for p in PROBLEMS.glob("*.prob"))


@pytest.mark.parametrize("name", SHIPPED)
def test_a_deeper_frame_keeps_every_stored_value(name):
    engine = session(name).engine
    states = [engine.normalize(k) for k in range(6)]
    for k in range(5):
        shallow, deep = states[k].resolved, states[k + 1].resolved
        assert set(shallow) <= set(deep), (name, k)
        for key, value in shallow.items():
            assert deep[key] == value, (name, k, key)


@pytest.mark.parametrize("problem, n", [("contact", 1), ("contact", 2), ("contact", 3), ("point_branch1", 3), ("pj", 0)])
def test_cartan_test_normalizes_once_below_its_order(problem, n, monkeypatch, capsys):
    calls = []
    normalize = RecurrenceEngine.normalize

    def spy(engine, inv_order):
        calls.append(inv_order)
        return normalize(engine, inv_order)

    monkeypatch.setattr(RecurrenceEngine, "normalize", spy)
    assert cli.main(["run", str(PROBLEMS / f"{problem}.prob"), "cartan-test", "--order", str(n)]) == 0
    assert calls == [n - 1]
    assert "cartan." in capsys.readouterr().out
