"""Child processes of the benchmark: one `python -m buchi` invocation at a
time, timed from spawn to the last stdout byte, with its peak RSS taken
from the kernel's per-child resource usage."""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass


@dataclass
class Result:
    returncode: int
    stdout: bytes
    stderr: bytes
    latency_s: float
    wall_s: float
    rss_kb: int
    timed_out: bool


def pinned_env(src: str) -> dict[str, str]:
    """The environment every process of the benchmark runs under: no
    BUCHI_THREADS, no inherited PYTHON* settings, a fixed hash seed and
    the checkout's own `src/` on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "BUCHI_THREADS"}
    env.update(PYTHONHASHSEED="0", PYTHONPATH=src, PYTHONIOENCODING="utf-8",
               PYTHONNOUSERSITE="1")
    return env


def run(argv: list[str], cwd: str, env: dict[str, str], timeout: float) -> Result:
    """Run `python <argv>` to completion or until `timeout` seconds pass,
    then kill it.  The child is always reaped before this returns."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=cwd, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    out: list[bytes] = []
    err: list[bytes] = []
    last_out = None
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ, out)
            sel.register(proc.stderr, selectors.EVENT_READ, err)
            deadline = start + timeout
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    timed_out = True
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fileobj)
                    else:
                        key.data.append(chunk)
                        if key.data is out:
                            last_out = time.perf_counter()
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    end = time.perf_counter()
    return Result(returncode=proc.returncode, stdout=b"".join(out),
                  stderr=b"".join(err),
                  latency_s=(last_out or end) - start, wall_s=end - start,
                  rss_kb=usage.ru_maxrss, timed_out=timed_out)
