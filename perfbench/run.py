#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload reduce-small --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
default `.bench_build` at the repository root, and runs it. The run's
provenance is passed along: the git revision when the repository is a git
checkout, and a SHA-256 over every source the benchmark is built from.
With `--trace 1` the spans are written to `.bench_out/spans-<workload>.tsv`.
The last line of standard output is the result JSON. Exits non-zero,
without a result, when the build or the run fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def flag(args, name):
    """The value after `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


def git_revision():
    if not (ROOT / ".git").exists():
        return "none"
    run = lambda *cmd: subprocess.run(
        ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True
    )
    head = run("rev-parse", "HEAD")
    if head.returncode != 0:
        return "none"
    dirty = run("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def source_digest():
    """SHA-256 over the crates, the root manifest and the baseline the
    selector compiles in, and the benchmark itself."""
    files = [ROOT / "Cargo.toml", *sorted(ROOT.glob("BENCH_*.json"))]
    for tree in (ROOT / "crates", BENCH / "src"):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    files += [BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    digest = hashlib.sha256()
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    args = sys.argv[1:]
    env = os.environ.copy()
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    target = pathlib.Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    extra = ["--git-rev", git_revision(), "--src-digest", source_digest()]
    if flag(args, "--trace") == "1":
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        extra += ["--spans", str(out / f"spans-{flag(args, '--workload')}.tsv")]
    return subprocess.run([str(target / "release" / "perfbench"), *args, *extra]).returncode


if __name__ == "__main__":
    sys.exit(main())
