#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see README.md).

Run one workload from the repository root:

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 40 --trace 0

The simulator libraries and the perfbench binary are built from source with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the repository
root; later runs rebuild incrementally. The binary's output is relayed; its
last line is the result object {"correct", "attempted", "failed", "metrics"}.

    --out FILE          also write the full record (host label, simulated
                        digest, result) to FILE
    --compare BASE NEW  compare two --out records; warns loudly when the host
                        labels differ, since such a pair is not a baseline
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper_mix", "fleet_incast")
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def bounded_int(lo, hi):
    def parse(text):
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} outside [{lo}, {hi}]")
        return value

    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Build and run one workload of the repo benchmark.")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=bounded_int(0, 2**40))
    p.add_argument("--seconds", type=bounded_int(1, 3600))
    p.add_argument("--trace", type=bounded_int(0, 1))
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        if any(v is not None for v in (args.workload, args.seed, args.seconds,
                                       args.trace, args.out)):
            p.error("--compare takes no other flags")
    else:
        missing = [f"--{k}" for k in ("workload", "seed", "seconds", "trace")
                   if getattr(args, k) is None]
        if missing:
            p.error("missing " + ", ".join(missing))
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "zoo.h")):
        sys.exit("perfbench: simulator sources (src/) not found beside "
                 "perfbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", str(nproc())]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "perfbench")


def run(args):
    binary = build()
    env = dict(os.environ)
    threads = nproc()
    try:
        threads = max(1, min(threads, int(env.get("LIBRA_THREADS", threads))))
    except ValueError:
        pass
    env["LIBRA_THREADS"] = str(threads)  # the process-wide pool: <= nproc
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=2 * args.seconds + 90)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: binary timed out (killed)")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: binary exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: binary printed a malformed result")
    label, digest = {}, ""
    for line in lines[:-1]:
        if line.startswith("label "):
            label = json.loads(line[len("label "):])
        elif line.startswith("digest "):
            digest = line.split()[1]
        print(line)
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "label": label, "digest": digest, "result": result}
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print(json.dumps(result))
    return 0


def compare(base_path, new_path):
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    for key in ("workload", "trace"):
        if base.get(key) != new.get(key):
            sys.exit(f"perfbench: cannot compare: {key} differs "
                     f"({base.get(key)} vs {new.get(key)})")
    differing = sorted(k for k in set(base["label"]) | set(new["label"])
                       if k != "git_sha" and base["label"].get(k) != new["label"].get(k))
    if differing:
        banner = "!" * 72
        msg = [banner,
               "WARNING: HOST LABELS DIFFER -- these results are NOT a baseline pair",
               *(f"  {k}: {base['label'].get(k)!r} vs {new['label'].get(k)!r}"
                 for k in differing),
               banner]
        print("\n".join(msg))
        print("\n".join(msg), file=sys.stderr)
    print(f"workload {new['workload']} trace={new['trace']}  "
          f"git {base['label'].get('git_sha')} -> {new['label'].get('git_sha')}")
    same = base["seed"] == new["seed"]
    print(f"simulated digest: {base['digest']} vs {new['digest']} "
          f"({'same' if base['digest'] == new['digest'] else 'DIFFERENT'}"
          f"{'' if same else ', different seeds'})")
    print(f"{'metric':34} {'base':>14} {'new':>14} {'new/base':>9}")
    bm, nm = base["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(bm) | set(nm)):
        b = bm.get(name, {}).get("value")
        n = nm.get(name, {}).get("value")
        r = f"{n / b:9.3f}" if b and n is not None else f"{'-':>9}"
        fmt = lambda v: f"{v:14.6g}" if v is not None else f"{'-':>14}"
        print(f"{name:34} {fmt(b)} {fmt(n)} {r}")
    return 0


def main(argv):
    args = parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
