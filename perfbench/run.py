#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <fwd-exspan|fwd-adv-churn|dns-adv> \\
        --seed <n> --seconds <s> --trace <0|1> [--tiny]

Run from the repository root. The benchmark is built in release mode into
$CARGO_TARGET_DIR (default `.bench_build`); its last stdout line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`. The exit
code is the benchmark's: 0 only when the build succeeded and every output
check passed. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The first build compiles the repository's crates; later runs only check
# that nothing changed. A run itself must end well within 180 s.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(env["CARGO_TARGET_DIR"])
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
