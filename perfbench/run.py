"""Benchmark of the KG-TOSA pipeline: one process, one Spark ``local[k]``
session, a closed loop with one client running one operation at a time.

    python3 perfbench/run.py --workload extract-train --seed 1 --seconds 10 --trace 0

Run from the repository root. Phases of a run:

1. set-up, repeated ``SETUP_REPS`` times from scratch (``setup_s`` is the
   median): generate the KGs from ``--seed``, build the triple index,
   make targets and NC frames;
2. reference: DuckDB results for every operation (untimed);
3. timed phase: whole passes over the workload's operation list until
   ``--seconds`` have gone by and the workload's ``min_passes`` are done;
   every operation is checked after its timing ends. ``wall_s`` sums each
   operation's median latency over the passes, ``cpu_s`` each one's median
   CPU time (driver and JVM). With ``--trace 1`` the
   phase is one pass with spans on (``spans.py``), which gives the
   per-layer metrics.

The last line of standard output is the result object; the line before it
(``REPORT {...}``) holds the environment, the paper-named metrics of the
workload and the operations' result digests. Both, plus the spans, are
also written to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from spans import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
DRIVER_MEMORY = "2g"
SPARK_CONFS = {  # as jobs/_session.get_session
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
}


def parse_args() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def start_spark(root: Path, work: Path, k: int):
    """``local[k]`` session with the job entrypoints' confs; scratch files
    (shuffle, temp) stay under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(work / "spark")  # overrides spark.local.dir
    # every JVM spark-submit starts: temp files in the checkout, no /tmp/hsperfdata
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{k}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for key, v in SPARK_CONFS.items():
        b = b.config(key, v)
    b = b.config("spark.sql.warehouse.dir", str(work / "warehouse"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is not None:
        gw.shutdown()
        proc = getattr(gw, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)


def code_sha256(root: Path) -> str:
    """SHA-256 of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for f in sorted([*(root / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(f.relative_to(root).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def environment(root: Path, spark, k: int) -> dict:
    import duckdb
    import numpy
    import pandas

    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == root.resolve() else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "code_sha256": code_sha256(root),
        "spark": spark.version,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
        "master": spark.sparkContext.master,
        "k": k,
        "nproc": os.cpu_count(),
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory"),
        "confs": {key: spark.conf.get(key) for key in SPARK_CONFS},
    }


def tree_cpu_s() -> float:
    """User and system CPU seconds of this process and its descendants (the
    Spark JVM and any Python workers), reaped children included."""
    parent, ticks = {}, {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        parent[int(d)] = int(fields[1])
        ticks[int(d)] = sum(int(x) for x in fields[11:15])  # utime stime cutime cstime
    me, total = os.getpid(), 0
    for pid, n in ticks.items():
        p = pid
        while p not in (0, me) and p in parent:
            p = parent[p]
        total += n if p == me else 0
    return total / os.sysconf("SC_CLK_TCK")


def host_cpu() -> list[int]:
    """The host's CPU time counters (``/proc/stat``), zeros where absent."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:11]]
    except OSError:
        return [0] * 10


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it."""
    v, n = sorted(values), len(values)
    if n < 11:
        return {"value": None, "n": n, "note": "fewer than 11 samples: no tail"}
    i = n - 11
    return {"value": v[i], "percentile": 100.0 * (i + 1) / n, "n": n, "n_beyond": n - 1 - i}


def run_pass(ops, records: list, counts: dict, n: int) -> float:
    """Pass ``n`` over the operation list; returns its summed latency."""
    total = 0.0
    for op in ops:
        counts["attempted"] += 1
        lat, cpu, c = None, None, tree_cpu_s()
        t = time.perf_counter()
        try:
            result = op.run()
            lat = time.perf_counter() - t
            cpu = tree_cpu_s() - c
            ok, f = op.check(result)
        except Exception as e:  # an operation that raises counts as failed
            if lat is None:
                lat, cpu = time.perf_counter() - t, tree_cpu_s() - c
            ok, f = False, {"error": f"{type(e).__name__}: {e}"}
        if not ok:
            counts["failed"] += 1
            print(f"FAILED {op.name}: {f}", file=sys.stderr)
        records.append({"op": op.name, "pass": n, "s": lat, "cpu_s": cpu, "ok": ok, **f})
        total += lat
    return total


def layer_metrics(spans, first: dict, st, overhead_s: float) -> dict:
    """Per-layer numbers from the traced run's spans and its pass's
    operation facts; ``trace.overhead_s`` is the tracer's own time."""
    out: dict[str, float] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for s in spans:
        add(f"{s.name}.s", s.dur_s)
        for c, v in s.counters.items():
            add(f"{s.name}.{c}", v)
        if "epochs" in s.attrs:  # a training span: one per leg in a pass
            out[f"{s.name}.epoch_ms"] = 1000.0 * s.dur_s / s.attrs["epochs"]
            out[f"{s.name}.n_params"] = s.attrs["n_params"]
            out[f"{s.name}.peak_mb"] = s.attrs["peak_mb"]
    for f in first.values():
        for key, v in f.get("layer", {}).items():
            add(key, v)
    out["index.cached_bytes"] = st.index_bytes
    out["trace.overhead_s"] = overhead_s
    return out


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("run from the repository root: src/repro and BENCHMARK.json are needed", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(root / "src"))
    import workloads  # needs src/ on the path

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = root / ".perfbench"
    k = min(4, os.cpu_count() or 1)
    spark = start_spark(root, work, k)
    try:
        report, metrics, counts = execute(spark, wl, args, root, k)
    finally:
        stop_spark(spark)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # a layer the workload bypasses did no work: its time and counts are 0
    emitted = {
        m["name"]: {"value": metrics[m["name"]] if not args.trace else metrics.get(m["name"], 0),
                    "unit": m["unit"]}
        for m in wanted
    }
    result = {"correct": counts["failed"] == 0, "attempted": counts["attempted"],
              "failed": counts["failed"], "metrics": emitted}
    out = work / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"report": report, "result": result}, indent=1, default=str))
    print("REPORT " + json.dumps(report["summary"], default=str))
    print(json.dumps(result))
    return 0


def execute(spark, wl, args, root: Path, k: int):
    """Set-up, reference and timed phase; returns report, metrics, counts.

    A traced run makes one pass, like the first pass of an untraced run,
    so the two compare; the last set-up repetition is traced too."""
    off = Tracer(spark, enabled=False)
    tracer = Tracer(spark, enabled=bool(args.trace))
    setup_s, st = [], None
    for rep in range(SETUP_REPS):
        if st is not None:
            st.teardown()
        t = time.perf_counter()
        st = wl.setup(spark, tracer if rep == SETUP_REPS - 1 else off, args.seed)
        setup_s.append(time.perf_counter() - t)
    st.expected = expected_digests(wl.name, args.seed)
    t = time.perf_counter()
    wl.reference(st)
    reference_s = time.perf_counter() - t

    counts = {"attempted": 0, "failed": 0}
    records: list[dict] = []
    ops = wl.ops(st, tracer, args.seed)
    host0 = host_cpu()
    passes, t0 = [], time.perf_counter()
    while not passes or (not args.trace and (
            len(passes) < wl.min_passes or time.perf_counter() - t0 < args.seconds)):
        passes.append(run_pass(ops, records, counts, len(passes)))
    timed_s = time.perf_counter() - t0
    host = [b - a for a, b in zip(host0, host_cpu())]

    lat = {op.name: statistics.median(r["s"] for r in records if r["op"] == op.name) for op in ops}
    first = {r["op"]: r for r in records if r["pass"] == 0}
    cpu = {op.name: statistics.median(r["cpu_s"] for r in records if r["op"] == op.name) for op in ops}
    metrics = {"setup_s": statistics.median(setup_s), "wall_s": sum(lat.values()),
               "cpu_s": sum(cpu.values())}
    if args.trace:
        metrics.update(layer_metrics(tracer.spans(), first, st, tracer.overhead_s))
    st.teardown()
    metrics["driver_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(root, spark, k),
        "setup_reps_s": setup_s,
        "reference_s": reference_s,
        "passes": len(passes),
        "pass_s": passes,
        "timed_phase_s": timed_s,
        # share of the host's CPU time in the timed phase taken by other
        # virtual machines (steal) and by busy CPUs; noisy runs show here
        "host_steal_pct": 100.0 * host[7] / max(1, sum(host)),
        "host_busy_pct": 100.0 * (sum(host) - host[3] - host[4]) / max(1, sum(host)),
        "fail_rate": counts["failed"] / counts["attempted"],
        "op_median_s": lat,
        "op_median_cpu_s": cpu,
        "op_tail_s": tail([r["s"] for r in records]),
        **wl.summary(first, lat),
        "digest": {op: r["digest"] for op, r in first.items() if "digest" in r},
    }
    untraced = root / ".perfbench" / f"{wl.name}-seed{args.seed}-trace0.json"
    if args.trace and untraced.is_file():
        base = json.loads(untraced.read_text())["report"]["summary"]
        if base["env"].get("code_sha256") == summary["env"]["code_sha256"] and base["seed"] == args.seed:
            summary["traced_minus_untraced_wall_s"] = passes[0] - base["pass_s"][0]
    return {"summary": summary, "records": records,
            "spans": [s.as_dict() for s in tracer.spans()]}, metrics, counts


def expected_digests(workload: str, seed: int) -> dict:
    """Digests recorded for this workload and seed in ``expected.json``."""
    path = HERE / "expected.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text()).get(workload, {}).get(str(seed), {})


if __name__ == "__main__":
    sys.exit(main())
