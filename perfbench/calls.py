"""One CLI call, timed, in a forked child or in a fresh interpreter.

In-process workloads fork a child from a parent that has imported
``cartanframes.cli`` and run nothing else, so every call starts from the
same state: state that one call leaves behind (a module-level cache, say)
cannot speed up the next, as it cannot for a user running the CLI.  The
child's peak resident memory comes back through ``wait4``.

Run as a script, this module is the traced fresh-interpreter call of the
``cli-sweep`` workload: ``python3 perfbench/calls.py run FILE COMMAND ...``
prints one JSON object holding the exit code, the report and the span summary.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# What the ``cartan-frames`` console script runs.
ENTRY = "import sys; from cartanframes.cli import main; sys.exit(main())"


def report_digest(out: str) -> str:
    """The report's replay digest, or the hash of the whole output when the
    command prints no report (``print``)."""
    for line in reversed(out.splitlines()):
        if line.startswith("digest = "):
            return line[len("digest = "):]
    return "sha256:" + hashlib.sha256(out.encode()).hexdigest()


def report_fields(out: str) -> dict[str, str]:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key] = value
    return fields


@dataclass
class CallResult:
    code: int
    out: str
    wall_s: float
    rss_mb: float
    trace: dict | None = None
    error: str | None = None


def run_main(argv: list[str], trace: bool) -> dict:
    """Run ``cartanframes.cli.main(argv)``; time it from entry to rendered report."""
    from cartanframes import cli

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    return {"code": code, "out": buf.getvalue(), "wall_s": wall, "trace": tracer.summary() if tracer else None}


def _wait(pid: int, read_fd: int) -> tuple[bytes, int, float]:
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status, usage = os.wait4(pid, 0)
    return data, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def call_forked(argv: list[str], trace: bool) -> CallResult:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.close(read_fd)
            payload = json.dumps(run_main(argv, trace)).encode()
            with os.fdopen(write_fd, "wb") as handle:
                handle.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    data, status, rss = _wait(pid, read_fd)
    if status != 0 or not data:
        return CallResult(-1, "", 0.0, rss, error=f"forked call exited with status {status}")
    payload = json.loads(data)
    return CallResult(payload["code"], payload["out"], payload["wall_s"], rss, payload["trace"])


def call_spawned(argv: list[str], trace: bool) -> CallResult:
    """A fresh interpreter per call, timed from spawn to exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if trace:
        cmd = [sys.executable, str(Path(__file__).resolve())] + argv
    else:
        cmd = [sys.executable, "-c", ENTRY] + argv
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)])
    os.close(write_fd)
    data, status, rss = _wait(pid, read_fd)
    wall = time.perf_counter() - start
    if not trace:
        return CallResult(status, data.decode(), wall, rss)
    if status != 0 or not data:
        return CallResult(-1, "", wall, rss, error=f"traced call exited with status {status}")
    payload = json.loads(data)
    return CallResult(payload["code"], payload["out"], wall, rss, payload["trace"])


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run_main(sys.argv[1:], trace=True)))
