#!/usr/bin/env python3
"""Build and run the Umzi benchmark.

Usage, from the root of a checkout:

    python3 umzibench/run.py --workload lifecycle-rand --seed 1 --seconds 20 --trace 0

Builds the repository's main sources together with the benchmark code
(sbt, offline) into .bench_build/umzibench on first use or when a source
changes, then runs one workload in a fresh JVM. The JVM prints the metrics;
the last line of output is the JSON result. With --trace 1 the per-layer
metrics are printed instead, and, when an untraced run of the same workload
and seed is recorded, the tracing overhead on every end-to-end metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "umzibench")
WORKLOADS = ("lifecycle-rand", "scan-seq", "shard-e2e")
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# The index-only workloads run under the parallel collector with a fixed
# young generation: under G1, adaptive young sizing made their scan times
# drift by a third within one run. Spark (shard-e2e) stays on G1, under which
# its grooms run faster and steadier.
GC_FLAGS = {
    "lifecycle-rand": ["-XX:+UseParallelGC", "-Xmn1g"],
    "scan-seq": ["-XX:+UseParallelGC", "-Xmn1g"],
    "shard-e2e": ["-XX:+UseG1GC"],
}

# Spark on Java 17 needs these module openings outside spark-submit.
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
              "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print("umzibench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    return sorted(files)


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; returns the runtime classpath."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp.txt")
    want = stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == want:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser(os.path.join("~", ".sbt", "repositories"))
        if os.path.exists(repos):
            opts = ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos] + opts
        env["SBT_OPTS"] = " ".join(opts)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
                cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=log, text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out; see " + log_path)
        log.write(proc.stdout)
    if proc.returncode != 0:
        fail("build failed; see " + log_path)
    lines = [l for l in proc.stdout.splitlines() if ".jar" in l and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath; see " + log_path)
    cp = lines[-1].strip()
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return cp


def run_jvm(cp, args, work, out):
    cmd = (["java", "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch"] + GC_FLAGS[args.workload]
           + ["-XX:+IgnoreUnrecognizedVMOptions", "-Djava.io.tmpdir=" + os.path.join(work, "tmp"),
            "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]
           + JVM_OPENS
           + ["-cp", cp, "umzibench.Main",
              "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--work-dir", work, "--out-dir", out])
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
        proc.wait(timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("workload timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return proc.returncode, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("the repository sources (src/main/scala/repro) are missing next to umzibench/")
    cp = build()

    work = os.path.join(BUILD, "work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out = os.path.join(BUILD, "out")
    os.makedirs(out, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        code, lines = run_jvm(cp, args, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    body, result = lines[:-1], (lines[-1] if lines else "")
    for l in body:
        print(l)
    try:
        parsed = json.loads(result)
    except ValueError:
        parsed = None
    if code != 0 or not isinstance(parsed, dict) or sorted(parsed) != ["attempted", "correct", "failed", "metrics"]:
        if result:
            print(result)
        fail("workload exited with code %d without a result" % code)

    record = os.path.join(out, "result-%s-seed%d.json" % (args.workload, args.seed))
    if args.trace == 0:
        with open(record, "w") as fh:
            json.dump(parsed, fh)
    else:
        traced = {l.split()[0]: float(l.split()[1]) for l in body
                  if l.startswith("  ") and len(l.split()) > 1 and not l.split()[0].startswith(("trace.", "FAILED"))
                  and _is_float(l.split()[1])}
        if os.path.exists(record):
            with open(record) as fh:
                untraced = json.load(fh)["metrics"]
            print("tracing overhead (traced - untraced, same workload and seed):")
            for name, m in untraced.items():
                if name in traced and m["value"]:
                    d = traced[name] - m["value"]
                    print("  %-34s %+14.4f %-6s (%+.1f%%)" % (name, d, m["unit"], 100.0 * d / m["value"]))
        else:
            print("tracing overhead: run the same workload and seed with --trace 0 first to compare")
    print(json.dumps(parsed))
    sys.exit(0)


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


if __name__ == "__main__":
    main()
