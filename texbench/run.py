#!/usr/bin/env python3
"""TexPIM benchmark: build texbench, run one workload, check its outputs.

Run from the repository root:

    python3 texbench/run.py --workload frame-baseline --seed 516125 \
        --seconds 20 --trace 0

Builds `texbench` (texbench/CMakeLists.txt, Release) under
.bench_build/texbench, runs the workload for --seconds of host time,
compares every op's image hash and frame cycles with the values stored in
texbench/expected.json for that seed, prints a human-readable report and,
as the last line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, and the report includes
the per-layer self-time tree. See texbench/README.md.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "texbench"
LOG = ROOT / ".bench_build" / "texbench-build.log"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("frame-baseline", "frame-atfim", "path-baseline", "sweep-320")
DEFAULT_SEED = 0x7E01D  # the repository's content seed
OP_ROOTS = ("frame", "spec")  # span names of one op in the traced run


def fail(msg):
    print(f"texbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build texbench (incremental after that)."""
    LOG.parent.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "texbench",
                  "-j", "4"])
    with open(LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = LOG.read_text().splitlines()[-20:]
                fail("build failed:\n  " + "\n  ".join(tail))
    return BUILD / "texbench"


def source_digest():
    """SHA-1 over the simulator and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "texbench", "CMakeLists.txt"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_json(path, default):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return default


def check_outputs(doc, workload, seed):
    """Count failed ops: an op fails when it raised, broke an in-run
    check, or disagrees with the output stored in expected.json for its
    (seed, workload, label). Seeds with no stored outputs rely on the
    in-run checks alone. Returns (failed, reference kind, outputs)."""
    seeds = load_json(EXPECTED, {}).get("seeds", {})
    ref = seeds.get(str(seed), {}).get(workload, {})
    kind = "stored" if ref else "in-run only"
    failed = 0
    observed = {}
    for o in doc["outputs"]:
        want = ref.get(o["label"])
        got = [o["hash"], o["cycles"]]
        if not o["error"] and want is not None and want != got:
            o["error"] = f"expected {want}, got {got}"
        if o["error"]:
            failed += 1
            print(f"  FAILED op {o['label']}: {o['error']}")
        else:
            observed[o["label"]] = got
    return failed, kind, observed


def print_tree(doc, ops):
    """Print the per-layer self-time tree of the traced ops. Returns the
    share of op time that falls in its leaf layers: the self time of the
    op root and of every span with children (gpu.render, seq.prep, ...)
    is time outside the named layers."""
    rows = [r for r in doc["tree"] if r["path"].split("/")[0] in OP_ROOTS]
    op_total = sum(r["total_s"] for r in rows if "/" not in r["path"])
    print(f"self-time tree ({ops} traced ops, {op_total:.3f} s of op time;"
          " self s per op, share of op time):")
    for r in rows:
        depth = r["path"].count("/")
        name = r["path"].split("/")[-1]
        print(f"  {'  ' * depth}{name:<{28 - 2 * depth}} "
              f"{r['self_s'] / max(ops, 1):9.4f} s "
              f"{100 * r['self_s'] / op_total:6.1f} %")
    parents = {r["path"].rsplit("/", 1)[0] for r in rows if "/" in r["path"]}
    leaves = {}
    for r in rows:
        if r["path"] not in parents:
            name = r["path"].split("/")[-1]
            leaves[name] = leaves.get(name, 0.0) + r["self_s"]
    coverage = sum(leaves.values()) / op_total if op_total else 0.0
    largest = max(leaves, key=leaves.get) if leaves else "-"
    print(f"  leaf layers cover {100 * coverage:.1f} % of op time "
          f"({'ok' if coverage >= 0.9 else 'CHECK FAILED: below 90 %'});"
          f" largest layer by self time: {largest}")
    return coverage


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", default=DEFAULT_SEED,
                    type=lambda s: int(s, 16 if s.lower().startswith("0x")
                                       else 10))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true",
                    help="store this run's outputs as the expected values "
                         "for its seed (only when every in-run check passed)")
    args = ap.parse_args()

    bench = load_json(BENCHMARK, None)
    if bench is None:
        fail(f"cannot read {BENCHMARK}")
    t0 = time.monotonic()
    exe = build()
    build_s = time.monotonic() - t0

    out = BUILD / (f"result-{args.workload}-seed{args.seed}"
                   f"-trace{args.trace}.json")
    out.unlink(missing_ok=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out)]
    try:
        # Set-up and the last op overrun --seconds by 5-15 s; the limit
        # stops a stuck run well within three minutes.
        proc = subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + 100)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish in time")
    if proc.returncode != 0 or not out.exists():
        fail(f"texbench exited with {proc.returncode}")
    doc = json.loads(out.read_text())

    failed, ref_kind, observed = check_outputs(doc, args.workload, args.seed)
    attempted = len(doc["outputs"])
    if args.update_expected and failed == 0:
        exp = load_json(EXPECTED, {"seeds": {}})
        exp["seeds"].setdefault(str(args.seed), {})[args.workload] = observed
        EXPECTED.write_text(json.dumps(exp, indent=1, sort_keys=True) + "\n")

    prov = dict(doc["provenance"])
    host_ok = prov["optimized"] and prov["nproc"] >= 2
    prov.update({
        "commit": git_commit(),
        "source_sha1": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": {"ops": doc["timed_ops"], "traced_ops": doc["traced_ops"],
                    "op_s": len(doc["op_s"]), "setup_s": len(doc["setup_s"])},
        "expected_values": ref_kind,
        "host_time_is_result": host_ok,
        "build_s": round(build_s, 3),
    })
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if not host_ok:
        print("NOTE: unoptimized build or fewer than 2 cores: host-time "
              "metrics below are not results")

    ops_per_s = doc["timed_ops"] / doc["timed_s"]
    coverage = 1.0
    if args.trace == 0:
        values = {
            "ops_per_s": ops_per_s,
            "op_s_p50": statistics.median(doc["op_s"]),
            "setup_s": statistics.median(doc["setup_s"]),
            "peak_rss_mib": doc["peak_rss_mib"],
            **doc["sim"],
        }
        specs = bench["end_to_end"]
        # Reported but not gated by BENCHMARK.json; see README.md.
        print(f"failed_op_ratio: {failed}/{attempted} = "
              f"{failed / attempted:.4f}")
        print(f"op_s_p50: {values['op_s_p50']:.6g} s "
              f"(median of {len(doc['op_s'])} samples)")
    else:
        coverage = print_tree(doc, doc["traced_ops"])
        traced = doc["traced_ops"] / doc["traced_s"]
        values = dict(doc["layers"])
        values["trace.ops_per_s"] = traced
        values["trace.ops_per_s_untraced"] = ops_per_s
        values["trace.layer_coverage"] = coverage
        specs = bench["per_layer"]
        print(f"tracing overhead: {traced:.4f} ops/s traced vs "
              f"{ops_per_s:.4f} ops/s untraced, interleaved "
              f"({100 * (ops_per_s / traced - 1):+.1f} % time per op)")

    metrics = {}
    for m in specs:
        if m["name"] not in values:
            if args.trace == 0:
                fail(f"metric {m['name']} was not measured")
            values[m["name"]] = 0.0  # a layer this workload does not use
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<28} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"samples: {doc['timed_ops']} untraced ops in {doc['timed_s']:.2f} s"
          f" ({len(doc['op_s'])} op_s samples), {doc['traced_ops']} traced "
          f"ops, {len(doc['setup_s'])} set-ups")

    # A traced run whose named layers miss more than 10 % of the op time
    # hides a cost, so its breakdown is not a result.
    correct = failed == 0 and attempted > 0 and coverage >= 0.9
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
