"""cartanframes benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.py`` from the checkout root in a closed loop
with one client: the inputs in turn, each at least once, until ``--seconds``
is spent, with extra calls of the most expensive input (see ``schedule``);
the report gives each input's time as the mean of the middle half of its
calls (see ``central``).  Set-up (importing the
CLI in a fresh interpreter and writing the seeded files) is timed
``SETUP_REPEATS`` times before the loop.

Every call's exit code and report digest are checked against ``pins.json``
(seeded files at other seeds than ``gen.DEFAULT_SEED`` get independent checks
instead), and the report lines that carry the paper's values are checked
too.  A mismatch counts as a failed call and makes the command exit 1.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each input
untraced and traced, and reports calls and self time per span, the waste
ratios and the tracing overhead.  The last line of standard output is one
JSON object; the lines before it print every metric by name with its unit.

``--pin`` runs every input once at the default seed and rewrites the pins of
the workload.  Only a change that is meant to change the reports may do that.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calls import ROOT, SRC, CallResult, call_forked, call_spawned, report_digest, report_fields

PINS = Path(__file__).resolve().parent / "pins.json"
SETUP_REPEATS = 9
# The least share of a run's time that goes to calls of its most expensive
# input (see ``schedule``).
HEAVY_SHARE = 1 / 3

# The workload whose inputs are meant to exercise each span; the traced run
# of that workload fails its self-check if the span never fires.
SPAN_HOME = {
    "problem.parse_problem": "cli-sweep",
    "problem.ProblemFile.build": "cli-sweep",
    "pseudogroup.DeterminingSystem.prolong": "algebra",
    "pseudogroup.lift_system": "deep-frames",
    "pseudogroup.InfinitesimalGenerator.prolong": "deep-frames",
    "jets.JetContext.total_derivative_poly": "deep-frames",
    "exact.poly_gcd": "algebra",
    "exact.solve_linear": "deep-frames",
    "exterior.diffeo_structure_equations": "algebra",
    "exterior.restrict_to_pseudogroup": "algebra",
    "exterior.ExteriorForm.wedge": "algebra",
    "exterior.substitute": "deep-frames",
    "exterior.exterior_derivative": "deep-frames",
    "frames.RecurrenceEngine.normalize": "deep-frames",
    "frames.RecurrenceEngine.recurrence": "deep-frames",
    "frames.RecurrenceEngine.lift_linear": "deep-frames",
    "frames.RecurrenceEngine.iota_poly": "deep-frames",
    "frames.RecurrenceEngine.audit_d_squared": "deep-frames",
    "frames.RecurrenceEngine.invariant_differential": "deep-frames",
    "frames.normalized_structure_equations": "deep-frames",
    "frames.commutator_invariants": "deep-frames",
    "frames.isotropy_annihilator": "cli-sweep",
    "involution.groebner_module": "algebra",
    "involution.groebner_reduce": "algebra",
    "involution.cartan_test": "algebra",
    "involution.delta_regular_search": "algebra",
    "cli.Report.render": "cli-sweep",
}


def setup_probe(workload: str, seed: int, workdir: Path) -> None:
    """Body of one set-up, in a fresh interpreter: import the CLI and write
    the seeded inputs.  Prints both times as JSON."""
    start = time.perf_counter()
    import cartanframes.cli  # noqa: F401

    imported = time.perf_counter()
    if workload == "algebra":
        import gen

        gen.write_inputs(workdir, seed)
    print(json.dumps({"import_s": imported - start, "setup_s": time.perf_counter() - start}))


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Medians over fresh set-ups of the set-up time and of the import time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", str(workdir), "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        probes.append(json.loads(proc.stdout))
    return statistics.median(p["setup_s"] for p in probes), statistics.median(p["import_s"] for p in probes)


class Checker:
    """Checks each call; counts failures and keeps the first few messages."""

    def __init__(self, pins: dict, seed: int, workdir: Path):
        import gen

        self.pins = pins
        self.pinned_seed = seed == gen.DEFAULT_SEED
        self.workdir = workdir
        self.verified: dict[tuple[str, str], str | None] = {}
        self.failed = 0
        self.messages: list[str] = []

    def _problem(self, inp, res: CallResult) -> str | None:
        if res.error:
            return res.error
        digest = report_digest(res.out)
        if "digest = " in res.out:
            body = res.out.rsplit("\ndigest = ", 1)[0]
            if digest != "sha256:" + hashlib.sha256(body.encode()).hexdigest():
                return "the report digest does not match the report body"
        if inp.source is None or self.pinned_seed:
            pin = self.pins.get(inp.name)
            if pin is None:
                return "no pin"
            if (res.code, digest) != (pin["exit"], pin["digest"]):
                return f"exit {res.code} digest {digest[:19]} != pinned exit {pin['exit']} digest {pin['digest'][:19]}"
        elif res.code != 0:
            return f"exit {res.code}"
        lines = set(res.out.splitlines())
        for want in inp.expect:
            if want not in lines:
                return f"missing report line {want!r}"
        if inp.check is not None:
            key = (inp.name, digest)
            if key not in self.verified:
                text = (self.workdir / inp.source).read_text()
                self.verified[key] = inp.check(text, res.out)
            return self.verified[key]
        return None

    def __call__(self, inp, res: CallResult) -> None:
        problem = self._problem(inp, res)
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{inp.name}: {problem}")


def schedule(inputs, took: dict[str, list[float]]):
    """The order of the calls: every input once, then the inputs in turn, with
    the input of the longest time so far slotted in whenever its calls have
    taken less than ``HEAVY_SHARE`` of the time spent so far.

    ``max_report_s`` is the time of that input alone.  Where it is one of
    many short inputs (``cli-sweep``), a plain turn would give it the two or
    three samples a run has room for; the extra calls give it a dozen or
    more, spread over the whole run as those of ``pass_s`` are.  Where it
    already takes that share (``deep-frames``, ``algebra``), the order is
    the plain turn.  The caller appends the time of each call to ``took``
    before asking for the next one."""
    yield from inputs
    for inp in itertools.cycle(inputs):
        while True:
            heavy = max(inputs, key=lambda i: central(took[i.name]))
            if sum(took[heavy.name]) >= HEAVY_SHARE * sum(map(sum, took.values())):
                break
            yield heavy
        yield inp


def central(values: list[float]) -> float:
    """The mean of the middle half of the values: the smallest and the largest
    quarter are dropped, so a single stalled call counts no more than in a
    median.  The speed of a shared host shifts for seconds at a time; the
    median of an input then jumps between its fast and its slow times when
    the share of calls that met each moves a little, while this mean moves
    in proportion."""
    if not values:
        return 0.0
    cut = (len(values) + 1) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def audit_counts(out: str) -> tuple[int, int]:
    fields = report_fields(out)

    def count(key):
        value = fields.get(key, "none")
        return 0 if value == "none" else len(value.split(", "))

    return count("coframe.d2_audited"), count("coframe.d2_skipped")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite the workload's pins at the default seed")
    parser.add_argument("--probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "cartanframes" / "cli.py").is_file():
        print(f"error: no cartanframes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = gen.DEFAULT_SEED if args.seed is None or args.pin else args.seed
    if args.probe:
        setup_probe(args.workload, seed, Path(args.probe))
        return 0

    os.chdir(ROOT)
    # The build: bytecode for the package, as an installed CLI has it.  Without
    # it every fresh process would compile the sources again when the
    # environment forbids writing bytecode.  It runs in its own process so
    # that this one, which every in-process call is forked from, stays small.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "cartanframes")], check=True)
    inputs, spawned = WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setup_s, import_s = measure_setup(args.workload, seed, workdir)
        import cartanframes.cli  # noqa: F401  (imported once, before any fork)

        if args.workload == "algebra":
            gen.write_inputs(workdir, seed)
        call = call_spawned if spawned else call_forked
        relative = os.path.relpath(workdir, ROOT)

        def argv_of(inp):
            return [a.replace("{work}", relative) for a in inp.argv]

        if args.pin:
            return write_pins(args.workload, inputs, [call(argv_of(i), False) for i in inputs])
        pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
        checker = Checker(pins.get(args.workload, {}), seed, workdir)
        modes = [False, True] if args.trace else [False]
        results = {(i.name, m): [] for i in inputs for m in modes}

        deadline = time.perf_counter() + args.seconds
        took: dict[str, list[float]] = {i.name: [] for i in inputs}
        for inp in schedule(inputs, took):
            started = time.perf_counter()
            if took[inp.name] and started + took[inp.name][-1] > deadline:
                break
            for traced in modes:
                results[(inp.name, traced)].append(call(argv_of(inp), traced))
            took[inp.name].append(time.perf_counter() - started)
        for inp in inputs:
            for traced in modes:
                for res in results[(inp.name, traced)]:
                    checker(inp, res)

    untraced = {i.name: results[(i.name, False)] for i in inputs}
    times = {name: central([r.wall_s for r in rs]) for name, rs in untraced.items()}
    attempted = sum(len(rs) for rs in results.values())
    self_check: list[str] = []
    print(f"workload = {args.workload}  seed = {seed}")
    for inp in inputs:
        rs = untraced[inp.name]
        walls = [r.wall_s for r in rs]
        print(f"  {inp.name:<58} exit {rs[0].code}  n {len(walls)}  time {times[inp.name]:.4f} s  min {min(walls):.4f}  max {max(walls):.4f}")

    if not args.trace:
        metrics = {
            "pass_s": (sum(times.values()), "s"),
            "max_report_s": (max(times.values()), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(r.rss_mb for rs in untraced.values() for r in rs), "MB"),
        }
        extra = {}
    else:
        metrics, extra = traced_metrics(args.workload, inputs, results, times, import_s, self_check)
    extra["failed_ratio"] = (ratio(checker.failed, attempted), "ratio")

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in checker.messages + self_check:
        print(f"FAILED {message}")
    correct = checker.failed == 0 and not self_check
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def traced_metrics(workload, inputs, results, times, import_s, self_check):
    from spans import SPANS

    traced = {i.name: results[(i.name, True)] for i in inputs}
    metrics = {}
    calls = {}
    for span in SPANS:
        calls[span] = sum(statistics.median_low([r.trace["calls"][span] for r in traced[i.name]]) for i in inputs)
        metrics[f"{span}.calls"] = (calls[span], "count")
        metrics[f"{span}.self_s"] = (sum(central([r.trace["self_s"][span] for r in traced[i.name]]) for i in inputs), "s")
        if SPAN_HOME[span] == workload and calls[span] == 0:
            self_check.append(f"span {span} never fired on {workload}")
    for inp in inputs:
        plain = {report_digest(r.out) for r in results[(inp.name, False)]}
        with_trace = {report_digest(r.out) for r in traced[inp.name]}
        if plain != with_trace:
            self_check.append(f"{inp.name}: traced digest differs from the untraced one")

    first = [traced[i.name][0].trace for i in inputs]
    prolong_calls = sum(t["calls"]["pseudogroup.InfinitesimalGenerator.prolong"] for t in first)
    distinct = sum(t["prolong_distinct"] for t in first)
    built = sum(t["rules_built"] for t in first)
    used = sum(t["rules_used"] for t in first)
    audited = skipped = 0
    for inp in inputs:
        a, s = audit_counts(traced[inp.name][0].out)
        audited, skipped = audited + a, skipped + s
    traced_pass = sum(central([r.wall_s for r in traced[i.name]]) for i in inputs)
    metrics.update({
        "cli.import_s": (import_s, "s"),
        "pseudogroup.InfinitesimalGenerator.prolong.distinct_ratio": (ratio(distinct, prolong_calls), "ratio"),
        "frames.audit.rules_used_ratio": (ratio(used, built), "ratio"),
        "frames.audit.audited_ratio": (ratio(audited, audited + skipped), "ratio"),
        "trace.overhead_s": (traced_pass - sum(times.values()), "s"),
    })
    extra = {
        "base.prolong_calls": (prolong_calls, "count"),
        "base.rules_built": (built, "count"),
        "base.audited_plus_skipped": (audited + skipped, "count"),
        "untraced.pass_s": (sum(times.values()), "s"),
        "traced.pass_s": (traced_pass, "s"),
    }
    return metrics, extra


def write_pins(workload: str, inputs, results: list[CallResult]) -> int:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    entry = {}
    for inp, res in zip(inputs, results):
        if res.error:
            print(f"error: {inp.name}: {res.error}", file=sys.stderr)
            return 1
        entry[inp.name] = {"exit": res.code, "digest": report_digest(res.out)}
        if inp.note:
            entry[inp.name]["note"] = inp.note
        print(f"{inp.name}: exit {res.code} {report_digest(res.out)}")
    pins[workload] = entry
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
