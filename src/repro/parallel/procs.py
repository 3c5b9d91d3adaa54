"""Subprocess-command worker for the shard engine.

``tools/ci_run.py`` describes each suite as a list of shell commands;
independent commands (the four crash workloads, benchmark shards) are
fanned out through :class:`~repro.parallel.engine.ShardEngine` with
this module's :func:`run_command` as the worker function. The record it
returns is plain data — return code, captured output, wall time — so
the orchestrator can aggregate JSON/JUnit summaries without scraping
terminals, and so the sequential fallback path reports *exactly* the
same exit codes as the parallel one.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, Optional, Sequence

#: Captured stdout/stderr are truncated to this many characters per
#: stream (tail end — failures print their last lines, which is where
#: pytest and the CLIs put their verdicts).
OUTPUT_LIMIT = 20000


def _tail(text: str, limit: int = OUTPUT_LIMIT) -> str:
    if len(text) <= limit:
        return text
    return f"... [{len(text) - limit} chars truncated]\n" + text[-limit:]


def run_command(argv: Sequence[str], cwd: Optional[str] = None,
                env_extra: Optional[Dict[str, str]] = None,
                timeout: Optional[float] = None) -> Dict:
    """Run one command to completion and return a picklable record.

    Never raises on a non-zero exit — the return code is data. A
    ``TimeoutExpired`` (the subprocess-level guard; the engine's
    per-task deadline is the outer one) is reported as return code
    ``-1`` with the reason in ``stderr``.
    """
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    started = time.perf_counter()
    try:
        proc = subprocess.run(list(argv), cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=timeout)
        returncode, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        returncode = -1
        stdout = (exc.stdout or b"").decode("utf-8", "replace") \
            if isinstance(exc.stdout, bytes) else (exc.stdout or "")
        stderr = f"timed out after {timeout}s"
    except FileNotFoundError as exc:
        returncode = 127
        stdout, stderr = "", str(exc)
    return {
        "argv": list(argv),
        "returncode": returncode,
        "stdout": _tail(stdout),
        "stderr": _tail(stderr),
        "seconds": round(time.perf_counter() - started, 3),
    }
