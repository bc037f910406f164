"""The inputs of each workload.

Paths are relative to the checkout root; ``{work}`` stands for the directory
that holds the seeded files.  ``expect`` lists report lines that must appear
because the paper shows the value; ``note`` records why a pinned exit code is
not 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import gen


@dataclass
class Input:
    name: str
    argv: list[str]
    expect: list[str] = field(default_factory=list)
    note: str | None = None
    # For seeded files: the file, and the independent check of its report.
    source: str | None = None
    check: object = None


def _run(problem: str, command: str, *flags: str, **kw) -> Input:
    label = " ".join([problem, command, *flags])
    return Input(label, ["run", f"problems/{problem}.prob", command, *flags], **kw)


D2_PASS = ["coframe.d2_audit = pass"]
CONTACT_CARTAN = [
    "cartan.beta[4] = 4",
    "cartan.beta[3] = 3",
    "cartan.beta[2] = 1",
    "cartan.beta[1] = 0",
    "cartan.rank_next = 27",
    "cartan.involutive = true",
    "cartan.alpha[3] = 1",
    "cartan.alpha[2] = 3",
    "cartan.alpha[1] = 4",
]
TWOFORM1 = ["cartan.rank_next = 11", "cartan.alpha[3] = 0", "cartan.alpha[2] = 2", "cartan.alpha[1] = 3"]
TWOFORM21 = ["cartan.rank_next = 14", "cartan.alpha[3] = 0", "cartan.alpha[2] = 1", "cartan.alpha[1] = 2"]
TRUNCATION = "known defect: false exit 2, the d^2 audit mistakes truncation at the default order for inconsistency"
TRUE_NEGATIVE = "true negative: the sign typo as printed is not a pseudo-group; must keep failing"

# The branch-I coframe runs at order 5 / mc-order 2 rather than 6 / 3: at 6 / 3
# one call takes about 12 s, which leaves room for only two samples a run.
DEEP_FRAMES = [
    _run("point_branch1", "coframe", "--order", "5", "--mc-order", "2", expect=D2_PASS),
    _run("contact", "normalize", "--order", "6"),
    _run("point_branch4", "coframe", "--order", "5", "--mc-order", "2"),
    _run("pj", "coframe", "--order", "5"),
]


def _algebra() -> list[Input]:
    inputs = [
        _run("point", "structure", "--order", "5"),
        _run("contact", "structure", "--order", "4"),
        _run("empty", "structure", "--order", "8"),
        _run("contact", "lift", "--order", "8"),
    ]
    for slot in range(gen.SPOLY_FILES):
        src = f"spoly{slot}.prob"
        inputs.append(Input(f"{src} groebner", ["run", f"{{work}}/{src}", "groebner"], source=src, check=gen.check_groebner))
    for slot in range(gen.TPOLY_FILES):
        src = f"tpoly{slot}.prob"
        argv = ["run", f"{{work}}/{src}", "cartan-test", "--order", str(gen.TPOLY_ORDER)]
        inputs.append(Input(f"{src} cartan-test", argv, source=src, check=gen.check_cartan))
    return inputs


FRAME_PROBLEMS = ["contact", "point", "point_branch1", "point_branch4", "point_order0", "pj", "empty"]
FRAME_COMMANDS = ["lift", "structure", "recurrence", "normalize", "coframe", "cartan-test"]
DEFAULT_ORDER_EXIT2 = {"point", "point_branch1", "point_branch4"}


def _cli_sweep() -> list[Input]:
    inputs = []
    for problem in FRAME_PROBLEMS:
        for command in FRAME_COMMANDS:
            kw = {}
            if command == "coframe" and problem in DEFAULT_ORDER_EXIT2:
                kw["note"] = TRUNCATION
            if problem == "contact" and command == "cartan-test":
                kw["expect"] = CONTACT_CARTAN
            inputs.append(_run(problem, command, **kw))
    for command in ["lift", "structure", "recurrence"]:
        inputs.append(_run("contact_asprinted", command))
    inputs.append(_run("contact_asprinted", "coframe", expect=["coframe.d2_audit = FAIL"], note=TRUE_NEGATIVE))
    # The README commands, less the order-5 coframe that deep-frames runs.
    inputs += [
        _run("twoform_case1", "cartan-test", "--m", "3", expect=TWOFORM1),
        _run("twoform_case21", "cartan-test", "--m", "3", expect=TWOFORM21),
        _run("point_order0", "normalize", "--order", "0"),
        _run("point", "classify-ode", "--rhs", "p^4 + x*p", expect=["classify.agreement = true"]),
        _run("contact", "signature-compare", "--data", "problems/signature_equal.json", expect=["signature.overlap = true"]),
        _run("contact", "signature-compare", "--data", "problems/signature_distinct.json", expect=["signature.overlap = false"]),
        Input("print contact", ["print", "problems/contact.prob"]),
    ]
    return inputs


# name -> (inputs, runs in a fresh interpreter per call)
WORKLOADS = {
    "deep-frames": (DEEP_FRAMES, False),
    "algebra": (_algebra(), False),
    "cli-sweep": (_cli_sweep(), True),
}
