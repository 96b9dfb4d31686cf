#!/usr/bin/env python3
"""Build and run the polyclip benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--small]

Run from the repository root. Builds, in release mode and offline, the
benchmark package in perfbench/ and the repository's `polyclip_serve`
binary into $CARGO_TARGET_DIR (default .bench_build), then runs the
benchmark with the given arguments. Build output goes to standard error;
the last line of standard output is the benchmark's result record.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    for needed in ("Cargo.toml", "crates/core", "crates/serve", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "polyclip-serve", "--bin", "polyclip_serve"],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))

    def probe(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        except OSError:
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"

    env["PERFBENCH_RUSTC"] = probe(["rustc", "--version"])
    # Only this checkout's own revision: a checkout that is not a git
    # repository must not report the revision of some enclosing one.
    top = probe(["git", "rev-parse", "--show-toplevel"])
    same = top != "unknown" and os.path.realpath(top) == os.path.realpath(ROOT)
    env["PERFBENCH_GIT_REV"] = probe(["git", "rev-parse", "HEAD"]) if same else "unknown"
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "polyclip-perfbench"), *sys.argv[1:],
           "--server-bin", os.path.join(release, "polyclip_serve"),
           "--spans-dir", os.path.join(target, "perfbench-spans")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
