#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload serve|whatif|train --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (a Release build of the library sources plus the
benchmark program) under $CARGO_TARGET_DIR, default .bench_build; later runs
only re-check the build. Build output and the benchmark's progress go to
stderr. stdout carries the machine fingerprint, the path of the full result
document and, as its last line, the one-line JSON summary. The exit status
is non-zero, with no summary printed, when the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def source_id():
    """The git commit, with a digest of the sources appended when they
    differ from it; the digest alone outside a git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(
            ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
             "perfbench"], capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            commit = head.stdout.strip()
            if status.stdout.strip():
                commit += "+dirty-" + source_digest()
            return commit
    return "src-sha256:" + source_digest()


def build(out):
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout is reserved for results.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve", "whatif", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = os.path.join(out, "work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    # The library reads DAGT_* knobs from the environment; the benchmark is
    # defined at their defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DAGT_")}
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--work-dir", work]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "bundle"), ignore_errors=True)
    if run.returncode != 0:
        print(f"perfbench: run failed with status {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
