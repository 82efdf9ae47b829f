#!/usr/bin/env python3
"""Build and run specdb's benchmark from the root of a source tree.

    python3 perfbench/run.py --workload kv-locking --seed 1 --seconds 10 --trace 0

The Go program is built from source into .bench_build/ (or $CARGO_TARGET_DIR,
relative to the tree root) with its own build cache there, so nothing outside
the tree is read or written besides the Go toolchain itself. Every argument
is passed to the program; see perfbench/NOTES.md for the workloads and
metrics. The exit code is the program's: non-zero when the build fails, an
output check fails or the run errs.
"""

import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_identity():
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and os.path.join(dirpath, d) != BUILD)
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def go_env():
    """The toolchain environment: caches inside BUILD, no network, no cgo."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GO") and k != "CGO_ENABLED"}
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: go toolchain not found", file=sys.stderr)
        return 1
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no specdb sources next to perfbench/", file=sys.stderr)
        return 1
    os.makedirs(BUILD, exist_ok=True)
    env = go_env()
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run([go, "build", "-trimpath", "-o", binary, "."],
                               cwd=BENCH, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run([binary, *sys.argv[1:], "--source", source_identity()],
                             cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
