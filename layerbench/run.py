#!/usr/bin/env python3
"""Build and run the layer benchmark.

    python3 layerbench/run.py --workload corpus_chain|fuzz_diff|sim_long \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
toolchain and the `layerbench` program (layerbench/CMakeLists.txt) under
.bench_build/; later runs only check the build is up to date. Build
output goes to stderr. The program's stdout is passed through: its last
line is the result, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

Beyond the program's own checks, this wrapper
  * checks the reported metric names and units against BENCHMARK.json
    (end_to_end with --trace 0, per_layer with --trace 1);
  * checks the exact counts (sim_cycles, code_words, reorg.words_out,
    pipeline.lookups, sim.instructions) against any earlier run of the
    same binary with the same workload and seed, recorded under
    .bench_build/;
  * writes the traced run's spans to .bench_build/traces/.
Any failed check marks the result incorrect and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "layerbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def run_checked(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        log("command failed (%d): %s" % (proc.returncode, " ".join(cmd)))
        sys.exit(1)


def build():
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("toolchain sources (src/) not found; run from the "
            "repository root")
        sys.exit(2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", "layerbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "layerbench",
                 "-j", jobs])
    return os.path.join(BUILD_DIR, "layerbench")


def declared_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_exact(binary, args, exact):
    """Compare exact counts with an earlier run of this binary, workload
    and seed; record them if there is none. Returns an error or None."""
    path = os.path.join(BUILD_DIR, "exact-counts.json")
    try:
        with open(path) as f:
            seen = json.load(f)
    except (OSError, ValueError):
        seen = {}
    digest = file_digest(binary)
    if seen.get("binary") != digest:
        seen = {"binary": digest, "runs": {}}
    key = "%s/%d" % (args.workload, args.seed)
    before = seen["runs"].get(key)
    if before is not None and before != exact:
        return "exact counts differ from an earlier run with seed %d: " \
               "%s vs %s" % (args.seed, before, exact)
    seen["runs"][key] = exact
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["corpus_chain", "fuzz_diff", "sim_long"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_build", "traces",
            "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("layerbench did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        log("layerbench failed (exit %d)" % proc.returncode)
        sys.stderr.write(proc.stdout)
        return 1
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    errors = []
    want = declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append("reported metrics do not match BENCHMARK.json: "
                      "missing %s, unexpected %s, unit mismatches %s" % (
                          sorted(set(want) - set(got)),
                          sorted(set(got) - set(want)),
                          sorted(k for k in set(want) & set(got)
                                 if want[k] != got[k])))
    err = check_exact(binary, args, info["exact"])
    if err:
        errors.append(err)
    for e in errors:
        log(e)
    if errors:
        result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
