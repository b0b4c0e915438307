#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload portal_live --seed 1 --seconds 15 --trace 0

Run from the repository root. Builds the repository and the harness
(Release, out of tree, under $CARGO_TARGET_DIR or .bench_build), runs one
workload and passes the harness's result through: the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result, when the sources
are missing or the build fails, and with the harness's code otherwise
(1 when the output check failed). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("portal_live", "portal_fanout", "retrain")
TARGETS = ("perfbench_harness", "misusedet_serve", "misusedet_router")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures (once) and builds the harness and the daemons."""
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", *TARGETS])
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT, cwd=root) != 0:
                out.flush()
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                return False
    return True


def complete(result, spec, trace):
    """Checks the harness's metrics against BENCHMARK.json. A traced run
    reports 0 for a layer metric its workload does not exercise (no
    router on portal_live, no serving in retrain). Returns an error
    string, or None."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in wanted}
    extra = sorted(set(metrics) - names)
    if extra:
        return f"metrics not in BENCHMARK.json: {extra}"
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None and trace:
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif got is None:
            return f"missing end-to-end metric {m['name']}"
        elif got["unit"] != m["unit"]:
            return f"{m['name']} reported in {got['unit']}, BENCHMARK.json says {m['unit']}"
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, needed)):
            log(f"{needed} not found: run from the root of a repository checkout")
            return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    if not build(root, build_dir):
        log("build failed")
        return 2

    work_root = os.path.join(root, ".bench_work")
    work_dir = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench_harness"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--bin-dir={os.path.join(build_dir, 'misusedet', 'src')}", f"--work-dir={work_dir}"]
    # Own process group: on a timeout the harness and every daemon it
    # started are stopped together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"harness exceeded {HARNESS_TIMEOUT_S} s")
        return 3
    finally:
        # Daemons the harness left behind (it stops them itself on every
        # path it controls) go with the group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"harness printed no result (exit code {proc.returncode})")
        return proc.returncode or 4
    if result["correct"]:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            error = complete(result, json.load(f), args.trace == 1)
        if error:
            log(error)
            return 4
    print(json.dumps(result), flush=True)
    spans = os.path.join(work_dir, f"spans_{args.workload}.jsonl")
    if os.path.exists(spans):
        shutil.copy(spans, os.path.join(work_root, f"spans_{args.workload}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
