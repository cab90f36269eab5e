import atexit
import os
import sys

from .cli import main


def _flushed() -> bool:
    try:
        for stream in (sys.stdout, sys.stderr):  # None when its descriptor was closed
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return False
    return True


def run() -> None:
    """`python -m buchi` and the installed `buchi` script: main, ended at
    its last byte."""
    code = main()
    # Once every byte is out, the interpreter's teardown, which frees each
    # module and object one by one, only adds 11-14 ms (2-vCPU VM, CPython
    # 3.11), so the process ends here instead, after the atexit handlers
    # (coverage, a site .pth) that the teardown would run, and whatever
    # they print.  When a flush fails, the teardown runs: it flushes again
    # and reports the failure as it always has, with its message and exit
    # status 120.
    if _flushed():
        atexit._run_exitfuncs()
        if _flushed():
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
