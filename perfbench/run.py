#!/usr/bin/env python3
"""Benchmark of the flow-motif search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds the program and the harness from source (sbt, offline) into
perfbench/target and perfbench/out, runs one workload on a local Spark
session (perfbench/src/main/scala/perfbench/Main.scala), checks every answer
and prints one JSON object as the last line of standard output. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and the spans go to a trace file
under perfbench/out. See perfbench/README.md.

Extra options: --record stores the answers of this seed as the expected ones
(perfbench/answers/<workload>.json); --answers FILE uses another answers
file; --scale tiny shrinks every input (self-test).
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(BENCH, "out")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ["bitcoin-sparse", "dense-windows", "facebook-significance"]
HEAP = "3g"
CORES = min(4, os.cpu_count() or 1)  # local[CORES]
JVM_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
SBT_OPTS = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=" +
            os.path.expanduser("~/.sbt/repositories") + " -Dsbt.offline=true -Xmx2g")
# The module opens Spark's own launcher passes to Java 17.
JAVA_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions", "--add-modules=jdk.incubator.vector"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar"]
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
     "-XX:-UsePerfData"]  # no hsperfdata file outside the checkout


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_child(cmd, timeout, cwd=None, env=None):
    """Run `cmd` in its own process group, copying its output to stderr.
    Kills the whole group on timeout; always waits for it to end."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True, text=True)
    lines = []
    deadline = time.monotonic() + timeout
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if len(line) < 2000:  # not the exported classpath
                log(line.rstrip("\n"))
            if time.monotonic() > deadline:
                raise subprocess.TimeoutExpired(cmd, timeout)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except (subprocess.TimeoutExpired, KeyboardInterrupt):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    return proc.returncode, lines


def source_digest():
    """SHA-256 over the program's and the harness's sources and build files."""
    h = hashlib.sha256()
    paths = [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(BENCH, "src")):
        for d, _, files in os.walk(top):
            paths += [os.path.join(d, f) for f in files]
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless the build stamp matches; return the classpath."""
    bdir = os.path.join(OUT, "build")
    stamp, cp_file = os.path.join(bdir, "stamp"), os.path.join(bdir, "classpath")
    if os.path.exists(stamp) and os.path.exists(cp_file):
        with open(stamp) as f, open(cp_file) as g:
            if f.read() == digest:
                return g.read()
    env = dict(os.environ)
    env.setdefault("SBT_OPTS", SBT_OPTS)
    env["COURSIER_MODE"] = "offline"
    code, lines = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                             "export Runtime/fullClasspath"], BUILD_TIMEOUT_S, cwd=BENCH, env=env)
    cps = [l for l in lines if os.pathsep in l and ".jar" in l and not l.startswith("[")]
    if code != 0 or not cps:
        raise RuntimeError("build failed (sbt exit code %s)" % code)
    os.makedirs(bdir, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(cps[-1])
    with open(stamp, "w") as f:
        f.write(digest)
    return cps[-1]


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# ---------------------------------------------------------------- answers


def same(a, b):
    """Equal answers: exact for integers, relative 1e-9 for flows."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))
    return a == b


def pass_problems(p, reference):
    """Map query id -> reason, for the queries of pass `p` with a wrong answer.
    `reference` maps query id -> expected answer."""
    bad = {}
    answers = {q["id"]: q["answer"] for q in p["queries"]}
    for q in p["queries"]:
        if q["error"] is not None:
            bad[q["id"]] = "exception: " + q["error"]
        elif q["id"] in reference and not same(q["answer"], reference[q["id"]]):
            bad[q["id"]] = "answer %s, expected %s" % (q["answer"], reference[q["id"]])
    for qid, a in answers.items():
        kind, motif = qid.split(":", 1)
        if a is None or qid in bad:
            continue
        dp = answers.get("top1_dp:" + motif)
        if kind == "topk" and dp is not None:
            heap_top1 = a["flows"][0] if a["flows"] else 0.0
            if not same(heap_top1, dp["flow"]):
                bad[qid] = "heap top-1 %s != DP top-1 %s" % (heap_top1, dp["flow"])
        count = answers.get("search:" + motif)
        if kind == "significance" and count is not None and a["real"] != count["count"]:
            bad[qid] = "study real count %s != search count %s" % (a["real"], count["count"])
    return bad


def driver_problems(result, traced_pass):
    """Cross-check the traced pass against the layer decomposition (Spark
    countInstances alone, and P2 run on the driver over the match rows)."""
    answers = {q["id"]: q["answer"] for q in traced_pass["queries"]}
    bad = {}
    for key, a in result["driver_answers"].items():
        kind, motif = key.replace("spark.", "").split(":", 1)
        for qid in ([kind + ":" + motif] + (["significance:" + motif] if kind == "search" else [])):
            got = answers.get(qid)
            if got is None:
                continue
            expect = {"count": got["real"]} if qid.startswith("significance") else got
            if not same(a, expect):
                bad[qid] = "%s gives %s, query gave %s" % (key, a, expect)
    return bad


def check(result, stored):
    """Return (fingerprint_ok, attempted, failed, problems); any problem makes
    the run incorrect, and a wrong answer in a timed pass also counts as failed."""
    problems = []
    fp_ok = True
    if stored is not None:
        fp, want = result["fingerprint"], stored["fingerprint"]
        fp_ok = same(fp, want)
        if not fp_ok:
            problems.append("input fingerprint %s != stored %s" % (fp, want))
    first = result["warmups"][0]
    reference = stored["answers"] if stored is not None else {
        q["id"]: q["answer"] for q in first["queries"] if q["error"] is None}
    for i, p in enumerate(result["warmups"]):
        for qid, why in pass_problems(p, reference).items():
            problems.append("warm-up %d %s: %s" % (i, qid, why))
    attempted = failed = 0
    for i, p in enumerate(result["passes"]):
        bad = pass_problems(p, reference)
        if p["label"] == "traced":
            bad.update(driver_problems(result, p))
        attempted += len(p["queries"])
        failed += len(bad)
        problems += ["pass %d %s: %s" % (i, qid, why) for qid, why in bad.items()]
    if not fp_ok:
        failed = attempted
    return fp_ok, attempted, failed, problems


# ---------------------------------------------------------------- metrics


def end_to_end(result):
    passes = result["passes"]
    return {
        "setup_s": result["session_s"] + statistics.median(result["input_s"]) +
        sum(p["seconds"] for p in result["warmups"]),
        "pass_s": statistics.median(p["seconds"] for p in passes),
        "cache_retained_mb": statistics.median(p["cache_retained_mb"] for p in passes),
    }


def per_kind(result):
    """Median over the timed passes of each query kind's seconds (0 if absent)."""
    out = {}
    for kind in ("search", "topk", "top1_dp", "significance"):
        out[kind + "_s"] = statistics.median(
            sum(q["seconds"] for q in p["queries"] if q["kind"] == kind) for p in result["passes"])
    return out


def per_layer(result):
    m = dict(result["layers"])
    traced, untraced = result["passes"]
    m["trace.overhead_s"] = traced["seconds"] - untraced["seconds"]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", choices=["full", "tiny"], default="full")
    ap.add_argument("--answers", help="answers file (default perfbench/answers/<workload>.json)")
    ap.add_argument("--record", action="store_true", help="store this seed's answers as expected")
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SOURCES):
        log("no program sources at %s: run from the root of a checkout" % PROGRAM_SOURCES)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    digest = source_digest()
    t_build = time.monotonic()
    try:
        classpath = build(digest)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return 1
    log("build: %.1f s" % (time.monotonic() - t_build))

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    os.makedirs(OUT, exist_ok=True)
    local_dir = os.path.join(OUT, "spark-local", tag)
    tmp_dir = os.path.join(OUT, "tmp", tag)
    for d in (local_dir, tmp_dir):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    result_file = os.path.join(OUT, "result-%s.json" % tag)
    if os.path.exists(result_file):
        os.remove(result_file)
    cmd = (["java", "-Xms" + HEAP, "-Xmx" + HEAP] + JAVA_OPTS + [
        "-Djava.io.tmpdir=" + tmp_dir,
        "-Dlog4j2.configurationFile=" + os.path.join(BENCH, "src", "main", "resources", "log4j2.properties"),
        "-cp", classpath, "perfbench.Main",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--cores", str(CORES), "--scale", args.scale,
        "--local-dir", local_dir, "--out", result_file])
    try:
        code, _ = run_child(cmd, JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark JVM timed out after %d s" % JVM_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(local_dir, ignore_errors=True)
        shutil.rmtree(tmp_dir, ignore_errors=True)
    if code != 0 or not os.path.exists(result_file):
        log("benchmark JVM failed (exit code %s)" % code)
        return 1
    with open(result_file) as f:
        result = json.load(f)
    result["env"].update({"git_commit": git_commit(), "source_sha256": digest, "heap": HEAP})

    answers_file = args.answers or os.path.join(BENCH, "answers", args.workload + ".json")
    book = {"workload": args.workload, "seeds": {}}
    if os.path.exists(answers_file):
        with open(answers_file) as f:
            book = json.load(f)
    stored = book["seeds"].get(str(args.seed))
    fp_ok, attempted, failed, problems = check(result, stored)
    for p in problems:
        log("CHECK FAILED: " + p)
    if args.record and not problems:
        book["seeds"][str(args.seed)] = {
            "fingerprint": result["fingerprint"],
            "answers": {q["id"]: q["answer"] for q in result["warmups"][0]["queries"]}}
        book["seeds"] = dict(sorted(book["seeds"].items(), key=lambda kv: int(kv[0])))
        os.makedirs(os.path.dirname(answers_file), exist_ok=True)
        with open(answers_file, "w") as f:
            json.dump(book, f, indent=1, sort_keys=False)
            f.write("\n")
        log("recorded answers for seed %d in %s" % (args.seed, answers_file))

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(result) if args.trace else end_to_end(result)
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(values) != set(units):
        log("metric set differs from BENCHMARK.json %s: %s" % (section, sorted(set(values) ^ set(units))))
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    kinds = per_kind(result)
    print("workload=%s seed=%d trace=%d passes=%d answers=%s commit=%s" % (
        args.workload, args.seed, args.trace, len(result["passes"]),
        "stored" if stored else "self-consistent (seed not stored)", result["env"]["git_commit"]))
    print("env: " + json.dumps(result["env"], sort_keys=True))
    print("  " + "  ".join("%s=%.4f s" % kv for kv in kinds.items()) +
          "  failed_frac=%.4f" % (failed / max(1, attempted)))
    for name, m in metrics.items():
        print("  %-36s %14.6f %s" % (name, m["value"], m["unit"]))
    if args.trace:
        trace_file = os.path.join(OUT, "trace-%s.json" % tag)
        with open(trace_file, "w") as f:
            json.dump({"env": result["env"], "overhead_s": values["trace.overhead_s"],
                       "per_layer": values, "spans": result["spans"],
                       "job_groups": result["job_groups"]}, f, indent=1)
        print("  trace: " + os.path.relpath(trace_file, ROOT))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
