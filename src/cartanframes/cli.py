"""Command-line pipeline: ``cartan-frames run <file> <command> [flags]``.

Every command emits a line-delimited tree of key/value records with exact
rational and canonical polynomial strings, followed by a replay digest (a
SHA-256 hash of the report body).  All arithmetic is exact, so digests are
bit-identical across platforms and runs.

Exit codes: 0 success, 1 diagnostics (bad input, usage errors included), 2
internal inconsistency (a failed d^2 = 0 audit).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from fractions import Fraction
from itertools import product

from .exact import ExactError, RatFn, format_ratfn
from .frames import (
    FrameState,
    SampledSubmanifold,
    classify_ode,
    isotropy_annihilator,
    oracle_classify_ode,
    signature_compare,
)
from .involution import (
    arbitrary_function_counts,
    cartan_characters,
    cartan_test,
    delta_regular_search,
    groebner_module,
    t_homogeneous_component,
)
from .jets import JetContext, mi_order
from .problem import ParseError, ProblemFile, _ExprParser, _Tokens, parse_problem, print_problem
from .session import Session


class UsageError(Exception):
    """A bad command-line value: reported as ``error: ...``, exit 1."""


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse error is a usage error (exit 1), not argparse's usage
    block and exit 2; subparsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


class Report:
    def __init__(self, command: str):
        self.lines = [f"report.command = {command}"]

    def add(self, key: str, value) -> None:
        self.lines.append(f"{key} = {value}")

    def render(self) -> str:
        body = "\n".join(self.lines)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return f"{body}\ndigest = sha256:{digest}\n"


def cmd_lift(pf: ProblemFile, args, report: Report) -> int:
    session = Session(pf)
    jc, system, mc = session.jc, session.system, session.mc
    order = args.order if args.order is not None else 1
    system.prolong(order)
    count = 0
    for key in system.solved_jets(order):
        rhs = mc.relation(key)
        parts = []
        for key2, coeff in sorted(rhs.items()):
            cs_str = format_ratfn(coeff)
            tok = f"mu[{jc.field_jet_name(*key2)}]"
            parts.append(f"({cs_str})*{tok}" if cs_str not in ("1",) else tok)
        report.add(f"lift.mu[{jc.field_jet_name(*key)}]", " + ".join(parts) if parts else "0")
        count += 1
    report.add("lift.relation_count", count)
    basis = system.basis_jets(order)
    report.add("lift.basis", ", ".join(jc.field_jet_name(*k) for k in basis))
    return 0


def cmd_structure(pf: ProblemFile, args, report: Report) -> int:
    order = args.order if args.order is not None else 1
    for sym, rhs in Session(pf, mc_order=order - 1).restricted.items():
        report.add(f"structure.d({sym.name})", rhs.pretty())
    return 0


def cmd_recurrence(pf: ProblemFile, args, report: Report) -> int:
    order = args.order if args.order is not None else 1
    session = Session(pf, order)
    if args.raw:
        engine = session.raw_engine
        state = FrameState(engine)
    else:
        engine, state = session.engine, session.state
    for coord in engine.invariant_coords(order):
        rhs = engine.reduced_recurrence(coord, state)
        report.add(f"recurrence.d({session.jc.invariant_var(coord).name})", rhs.pretty())
    return 0


def cmd_normalize(pf: ProblemFile, args, report: Report) -> int:
    order = args.order if args.order is not None else 3
    session = Session(pf, order)
    state, fc = session.state, session.fc
    for key in sorted(state.resolved, key=lambda k: (mi_order(k[1]), k[0], k[1])):
        report.add(f"frame.{fc.mc(key[0], key[1]).name}", state.reduce(state.resolved[key]).pretty())
    mc_order = max(order - 2, 1)
    residual = state.residual_keys(mc_order)
    report.add("frame.residual", ", ".join(fc.mc(k[0], k[1]).name for k in residual) or "none")
    for blockers in state.blocked:
        report.add("frame.branching_required", ", ".join(var.name for var in blockers))
    for form in state.residual_relations:
        report.add("frame.residual_relation", form.pretty())
    return 0


def cmd_coframe(pf: ProblemFile, args, report: Report) -> int:
    order = args.order if args.order is not None else 3
    mc_order = args.mc_order if args.mc_order is not None else 2
    session = Session(pf, order, mc_order)
    jc = session.jc
    for sym, rhs in session.coframe.items():
        report.add(f"coframe.d({sym.name})", rhs.pretty())
    Y, partial = session.commutators
    if partial:
        report.add("coframe.commutators", "partial frame: defined modulo " + ", ".join(sorted({s.name for s in partial})))
    else:
        for (k, i, j), value in sorted(Y.items()):
            if not value.is_zero():
                report.add(
                    f"coframe.Y[{jc.independents[k]};{jc.independents[i]},{jc.independents[j]}]",
                    format_ratfn(value),
                )
    failures, audited, skipped = session.audit
    report.add("coframe.d2_audit", "pass" if not failures else "FAIL")
    report.add("coframe.d2_audited", ", ".join(s.name for s in audited) or "none")
    if skipped:
        report.add("coframe.d2_skipped", ", ".join(s.name for s in skipped))
    if failures:
        for sym, form in failures:
            report.add(f"coframe.d2_residual({sym.name})", form.pretty())
        return 2
    return 0


def _priority(pf: ProblemFile, text: str) -> list[int]:
    names = text.split(",")
    if sorted(names) != sorted(pf.base):
        raise UsageError(f"--priority {text!r} is not a permutation of the base coordinates {','.join(pf.base)}")
    return [pf.base.index(nm) for nm in names]


def cmd_cartan_test(pf: ProblemFile, args, report: Report) -> int:
    m = len(pf.base)
    n = args.order if args.order is not None else 1
    priority = _priority(pf, args.priority) if args.priority else None
    if pf.tpoly:
        gens = pf.module_generators("t")
    else:
        gens = isotropy_annihilator(Session(pf).engine, n)
    comp = t_homogeneous_component(gens, m, n)
    if not comp:
        report.add("cartan.verdict", "empty degree component")
        return 0
    if priority is None:
        priority = delta_regular_search(comp, n)["priority"]
    result = cartan_test(comp, n, priority)
    beta = result["beta"]
    report.add("cartan.priority", ",".join(pf.base[i] for i in priority))
    for a in sorted(beta, reverse=True):
        report.add(f"cartan.beta[{a}]", beta[a])
    report.add("cartan.rank_next", result["rank_next"])
    report.add("cartan.weighted_sum", result["weighted_sum"])
    report.add("cartan.involutive", str(result["involutive"]).lower())
    if result["delta_regularity_violated"]:
        report.add("cartan.delta_regularity", "violated")
    mchar = args.m if args.m is not None else m
    alpha, neg = cartan_characters(beta, mchar, n)
    for a in sorted(alpha, reverse=True):
        report.add(f"cartan.alpha[{a}]", alpha[a])
    if neg:
        report.add("cartan.alpha_negative", ", ".join(str(a) for a in neg))
    counts, flags = arbitrary_function_counts(alpha, mchar, n, args.stirling_variant)
    for a in sorted(counts, reverse=True):
        report.add(f"cartan.f[{a}]", counts[a])
    if flags:
        report.add("cartan.f_inapplicable", ", ".join(str(a) for a in flags))
    return 0


def cmd_groebner(pf: ProblemFile, args, report: Report) -> int:
    gens = pf.module_generators("s")
    if not gens:
        raise UsageError("no spoly block in problem file")
    basis = groebner_module(gens)
    for i, g in enumerate(basis):
        report.add(f"groebner.basis[{i}]", g.pretty(pf.independent, pf.dependent))
    report.add("groebner.size", len(basis))
    return 0


def cmd_classify(pf: ProblemFile, args, report: Report) -> int:
    if args.rhs is None:
        raise UsageError("missing --rhs")
    jc = JetContext(["x", "u", "p"], ["q"])
    F = _parse_option_expr(jc, "--rhs", args.rhs)
    label, i1, i2 = classify_ode(jc, F)
    olabel, o1, o2 = oracle_classify_ode(jc, F)
    report.add("classify.rhs", args.rhs)
    report.add("classify.branch", label)
    report.add("classify.first_invariant_zero", str(i1.is_zero()).lower())
    report.add("classify.second_invariant_zero", str(i2.is_zero()).lower())
    report.add("classify.oracle_branch", olabel)
    report.add("classify.agreement", str(label == olabel).lower())
    return 0 if label == olabel else 2


def _parse_option_expr(jc: JetContext, option: str, text: str) -> RatFn:
    """A rational function of the independents of ``jc``, given as the value
    of a command-line option; parse errors are located in that value."""
    pf = ProblemFile()
    pf.independent = list(jc.independents)
    pf.dependent = list(jc.dependents)
    pf.base = pf.independent + pf.dependent
    try:
        toks = _Tokens(text + " ;")
        value = _ExprParser(toks, pf, jc).parse_expr()
        kind, val, line, col = toks.peek()
        if val != ";":
            raise ParseError(f"trailing token {val!r}", line, col)
    except ParseError as err:
        raise UsageError(f"{option}:{err}") from None
    return value.scalar


def cmd_signature(pf: ProblemFile, args, report: Report) -> int:
    if args.data is None:
        raise UsageError("missing --data")
    path = args.data
    data = _load_signature_data(path)
    params = data["parameters"]
    n = _data_number(path, "order", data.get("order", 1), int)
    if n < 0:
        raise UsageError(f"--data {path}: order must be at least 0, got {n}")
    tol = args.tol
    if tol is None:
        tol = _data_number(path, "tol", data.get("tol", 1e-9), float)
        if tol < 0:
            raise UsageError(f"--data {path}: tol must be at least 0, got {tol}")

    def build(name):
        side = data[name]
        jc = JetContext(params, ["w"])
        grids, invariants = side["grids"], side["invariants"]
        if not isinstance(grids, list) or not all(isinstance(g, list) for g in grids):
            raise UsageError(f"--data {path}: {name}.grids is not a list of lists of numbers")
        if len(grids) != len(params):
            raise UsageError(f"--data {path}: {name}.grids has {len(grids)} grids for {len(params)} parameters")
        if not isinstance(invariants, list) or not all(isinstance(t, str) for t in invariants):
            raise UsageError(f"--data {path}: {name}.invariants is not a list of strings")
        if not invariants:
            raise UsageError(f"--data {path}: {name}.invariants is empty")
        grids = [[_data_number(path, f"{name}.grids[{i}][{j}]", v, float) for j, v in enumerate(g)] for i, g in enumerate(grids)]
        funcs = [_parse_option_expr(jc, "--data", text) for text in invariants]
        xs = [jc.x_var(i) for i in range(len(params))]
        mesh = [{x.vid: Fraction(v).limit_denominator(10**12) for x, v in zip(xs, pt)} for pt in product(*grids)]
        levels = [funcs]
        for _ in range(n):
            levels.append([f.partial(x) for x in xs for f in levels[-1]])
        return SampledSubmanifold(grids, [[[float(f.at(point)) for point in mesh] for f in level] for level in levels])

    S = build("S")
    Sbar = build("Sbar")
    result = signature_compare(S, Sbar, n, tol)
    report.add("signature.ranks", ",".join(str(r) for r in result.ranks))
    report.add("signature.order", result.order if result.order is not None else "undetermined")
    report.add("signature.rank", result.rank if result.rank is not None else "undetermined")
    report.add("signature.regular", str(result.regular).lower())
    report.add("signature.overlap", str(result.overlap).lower())
    if result.detail:
        report.add("signature.detail", result.detail)
    return 0


def _load_signature_data(path: str) -> dict:
    import json  # only signature-compare reads JSON; every other process skips the import

    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as err:
        raise UsageError(f"--data {path}: {err.strerror}") from None
    except ValueError as err:
        raise UsageError(f"--data {path}: malformed JSON: {err}") from None
    for key in ("parameters", "S", "Sbar", "S.grids", "S.invariants", "Sbar.grids", "Sbar.invariants"):
        owner = data
        for part in key.split("."):
            if not isinstance(owner, dict) or part not in owner:
                raise UsageError(f"--data {path}: missing key {key!r}")
            owner = owner[part]
    return data


def _data_number(path: str, key: str, value, convert):
    """``convert(value)`` for a finite JSON number read from the ``--data``
    file: a string or a boolean is not a number, and ``int`` takes only a
    whole one."""
    import json

    try:
        if isinstance(value, (str, bool)):
            raise TypeError
        number = convert(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int() of an infinity
        raise UsageError(f"--data {path}: {key} is not a number: {json.dumps(value)}") from None
    if not -math.inf < number < math.inf:
        raise UsageError(f"--data {path}: {key} is not a finite number: {json.dumps(value)}")
    if number != value:
        raise UsageError(f"--data {path}: {key} is not a whole number: {json.dumps(value)}")
    return number


def _check_ranges(args) -> None:
    """A negative ``--order``/``--mc-order``, an ``--m`` below 1, or a
    ``--tol`` that is negative or not finite is a usage error."""
    for option, value, least in (("--order", args.order, 0), ("--mc-order", args.mc_order, 0), ("--m", args.m, 1)):
        if value is not None and value < least:
            raise UsageError(f"{option} must be at least {least}, got {value}")
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise UsageError(f"--tol must be a finite number at least 0, got {args.tol}")


COMMANDS = {
    "lift": cmd_lift,
    "structure": cmd_structure,
    "recurrence": cmd_recurrence,
    "normalize": cmd_normalize,
    "coframe": cmd_coframe,
    "cartan-test": cmd_cartan_test,
    "groebner": cmd_groebner,
    "classify-ode": cmd_classify,
    "signature-compare": cmd_signature,
}


def main(argv=None) -> int:
    parser = _ArgumentParser(prog="cartan-frames")
    sub = parser.add_subparsers(dest="action", required=True)
    run = sub.add_parser("run", help="run a command on a problem file")
    run.add_argument("file")
    run.add_argument("command", choices=sorted(COMMANDS))
    run.add_argument("--order", type=int, default=None)
    run.add_argument("--mc-order", dest="mc_order", type=int, default=None)
    run.add_argument("--m", type=int, default=None)
    run.add_argument("--priority", type=str, default=None)
    run.add_argument("--stirling-variant", choices=["printed", "alternate"], default="printed")
    run.add_argument("--rhs", type=str, default=None)
    run.add_argument("--data", type=str, default=None)
    run.add_argument("--tol", type=float, default=None)
    run.add_argument("--raw", action="store_true", help="recurrence: skip normalization")
    run.add_argument("--out", type=str, default=None)
    echo = sub.add_parser("print", help="canonical form of a problem file")
    echo.add_argument("file")
    try:
        args = parser.parse_args(argv)
        with open(args.file) as handle:
            pf = parse_problem(handle.read())
        if args.action == "print":
            rendered, code = print_problem(pf), 0
        else:
            _check_ranges(args)
            report = Report(args.command)
            code = COMMANDS[args.command](pf, args, report)
            rendered = report.render()
            if args.out:
                with open(args.out, "w") as handle:
                    handle.write(rendered)
    except ParseError as err:
        print(f"{args.file}:{err}", file=sys.stderr)
        return 1
    except (OSError, ExactError, UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
