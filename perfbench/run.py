#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark crate links the workspace crates as path dependencies and
must build them under the workspace's own release profile; this script
refuses to run when the two `[profile.release]` tables differ. It builds
into `$CARGO_TARGET_DIR` (default `.bench_build`), prints the compiler
and profile it used, then runs the benchmark binary, whose last stdout
line is the JSON result. Traced runs write their spans under
`<target dir>/spans/`.
"""

import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a measured run may take before it is stopped (the build before
# it has no limit here).
RUN_TIMEOUT_S = 170


def release_profile(manifest):
    with open(manifest, "rb") as f:
        return tomllib.load(f)["profile"]["release"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def main():
    try:
        workspace = release_profile(os.path.join(ROOT, "Cargo.toml"))
        bench = release_profile(os.path.join(HERE, "Cargo.toml"))
    except (OSError, KeyError, tomllib.TOMLDecodeError) as e:
        return fail(f"cannot read the release profiles: {e!r}")
    if workspace != bench:
        return fail(f"perfbench/Cargo.toml [profile.release] {bench} differs from the workspace's {workspace}")

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail(f"build failed with exit code {build.returncode}")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    print(f"# build {rustc.stdout.strip()} profile.release={json.dumps(bench, sort_keys=True)}", flush=True)

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, *sys.argv[1:], "--spans-dir", os.path.join(target, "spans")]
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
