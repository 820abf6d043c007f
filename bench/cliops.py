"""The cli workload: one cold ``python -m usdguard.cli`` process per operation.

Users pay the interpreter and import cost on every invocation, so it
stays inside each timed operation.  The traced run calls ``cli.main`` in
this process instead, with stdout and stderr captured, so that the
per-layer spans see the library calls each command makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from bench import inputs

ROOT = inputs.ROOT
SCHEMA = ROOT / "schema" / "report.schema.json"
CHILD_TIMEOUT_S = 120
COLD_START_SAMPLES = 3


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _python(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )


def cold_start_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of `import usdguard.cli` timed inside a cold one."""
    env = child_env()
    interpreter, imports = [], []
    probe = "import time; t = time.perf_counter(); import usdguard.cli; print(time.perf_counter() - t)"
    for _ in range(COLD_START_SAMPLES):
        t = time.perf_counter()
        _python(["-c", "pass"], env)
        interpreter.append(time.perf_counter() - t)
        proc = _python(["-c", probe], env)
        imports.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(interpreter) * 1e3, statistics.median(imports) * 1e3


class Cli:
    name = "cli"
    # One invocation before timing compiles the package's bytecode.
    warm_up_cases = 1

    def __init__(self, seed: int, scratch: Path, in_process: bool = False):
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=scratch)
        self.cases = [dict(c, argv=[self._resolve(a) for a in c["argv"]]) for c in inputs.cli(seed)]
        self.env = child_env()
        self._validator = None
        if in_process:
            from usdguard import cli

            self._cli = cli
            self.op = self.op_in_process

    def _resolve(self, arg: str) -> str:
        if arg.startswith("configs/"):
            return str(ROOT / arg)
        return arg.replace("{tmp}", self.tmp)

    def op(self, case: dict) -> tuple[int, str, str]:
        proc = _python(["-m", "usdguard.cli", *case["argv"]], self.env)
        return proc.returncode, proc.stdout, proc.stderr

    def op_in_process(self, case: dict) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self._cli.main(case["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a traceback is an outcome to check, as it is for a child process
                traceback.print_exc()
                rc = 1
        return rc, out.getvalue(), err.getvalue()

    def check(self, case: dict, out) -> list[str]:
        from bench import checks

        if self._validator is None:
            import jsonschema

            self._validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        return checks.cli(case, *out, self._validator)

    @staticmethod
    def fingerprint(out):
        rc, stdout, _ = out
        return rc, stdout

    def pulses(self, case: dict) -> int:
        return 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
