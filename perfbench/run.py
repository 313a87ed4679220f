#!/usr/bin/env python3
"""Builds wlac-server and the benchmark from source, then runs the benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_rerun --seed 1 --seconds 20 --trace 0

Build artifacts go to $CARGO_TARGET_DIR (default `.bench_build`), working
data to `.bench_build/perfbench-work`. Every argument is passed through to
the benchmark binary; see perfbench/README.md.
"""

import os
import resource
import shutil
import signal
import subprocess
import sys
import time


def main():
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, extra in (
        ("Cargo.toml", ["-p", "wlac-server", "--bin", "wlac-server"]),
        (os.path.join("perfbench", "Cargo.toml"), []),
    ):
        if not os.path.isfile(os.path.join(root, manifest)):
            sys.stderr.write(f"run.py: {manifest} not found; run from the repository root\n")
            return 1
        build = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        if subprocess.run(build + extra, env=env, stdout=sys.stderr).returncode != 0:
            return 1

    # design_stream keeps one journal file open per design in the server.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    if hard == resource.RLIM_INFINITY or hard > soft:
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    pid_file = os.path.join(work, "servers.pid")
    bench = [
        os.path.join(target, "release", "wlac-perfbench"),
        *sys.argv[1:],
        "--server-bin",
        os.path.join(target, "release", "wlac-server"),
        "--work-dir",
        work,
    ]
    # A SIGTERM from whoever runs the benchmark stops it through the same
    # path as an exception, so the servers are still reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(bench)
    try:
        code = child.wait()
    except BaseException:
        child.terminate()
        child.wait()
        raise
    finally:
        reap(pid_file)
        shutil.rmtree(os.path.join(work, f"run-{child.pid}"), ignore_errors=True)
    return code


def reap(pid_file):
    """Kills any server the benchmark spawned but could not stop itself."""
    try:
        with open(pid_file) as f:
            pids = [int(line) for line in f if line.strip()]
    except OSError:
        return
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"wlac-server" not in f.read():
                    continue
            os.kill(pid, signal.SIGKILL)
        except OSError:
            continue
        # The orphan's parent is gone, so init reaps it; wait until it is dead.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and running(pid):
            time.sleep(0.01)
    os.remove(pid_file)


def running(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


if __name__ == "__main__":
    sys.exit(main())
