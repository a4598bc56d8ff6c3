#!/usr/bin/env python3
"""Build and run the selvec benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds `sv-perfbench` and the `svd`
daemon from source (release profile, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs one workload. Build output goes to
stderr; the run's last stdout line is its JSON result. Exits non-zero
without a result when the build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(MANIFEST),
         "-p", "sv-perfbench", "-p", "sv-serve", "--bins"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print(f"run.py: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1
    release = target / "release"
    out = target / "perfbench-out"
    out.mkdir(parents=True, exist_ok=True)
    sys.stdout.flush()
    run = subprocess.run(
        [str(release / "sv-perfbench"), *sys.argv[1:],
         "--svd", str(release / "svd"), "--out", str(out)],
        cwd=ROOT, env=env, check=False,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
