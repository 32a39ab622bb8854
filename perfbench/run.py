#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <kv-mixed-xproc|kv-read-inproc|fanout-inproc> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it with the same arguments. Its
standard output passes through unchanged: the last line is the result
object. Exits nonzero, without a result line, if the repository sources
are missing, the build fails, or the run overruns its time limit.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg: str, code: int = 2) -> None:
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main() -> None:
    for need in ("Cargo.toml", "crates/kv/Cargo.toml", "crates/bench/Cargo.toml"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a full checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = ROOT / env["CARGO_TARGET_DIR"]

    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    code = run_group(build, BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code is None:
        fail("build timed out")
    if code != 0:
        fail(f"build failed (exit {code})")

    binary = target / "release" / "perfbench"
    code = run_group([str(binary), *sys.argv[1:]], RUN_TIMEOUT_S, env=env)
    if code is None:
        fail("run timed out; killed", 3)
    sys.exit(code)


if __name__ == "__main__":
    main()
