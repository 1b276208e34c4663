"""rifclark benchmark: four closed-loop workloads with exact-oracle gates.

    python3 bench/run.py --workload build --seed 1 --seconds 10 --trace 0

runs one workload from the root of a checkout and prints every metric by
name with its unit; the last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
cycle.  ``--workload all`` runs the four workloads in turn, each in a
fresh child process.  BENCHMARK.json names the workloads and the metrics
with their units; bench/README.md describes them.

One client runs ops back to back (closed loop) with every BLAS pool
capped at one thread, pinned to one CPU.  Ops come in cycles, a fixed mix
drawn from the seed; the loop runs whole cycles until ``--seconds`` have
passed.  Times are quiet-host seconds (see hostspeed.py).
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "RIFCLARK_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# BENCHMARK.json holds the workloads and every metric with its unit
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# functions the workloads call, each reported as .busy_s/.calls/.failed
LAYER_FUNCTIONS = (
    "poly.slice_coeffs", "poly.companion_roots", "poly.stability_check",
    "levelset.trace_branches", "levelset.detect_lines",
    "levelset.find_singularities", "levelset.branch_csv_lines",
    "clark.build_measure", "clark.total_mass", "clark.verify_poisson",
    "clark.herglotz_moments", "clark.herglotz_reconstruct",
    "clark.measure_to_json", "clark.measure_from_json",
    "embedding.gram_isometry_check", "embedding.density_distance",
    "embedding.conj_rational",
    "contact.contact_report", "contact.branch_contact_order",
    "contact.nontangential_value",
    "polydisk.build_measure_d.k1", "polydisk.build_measure_d.k2",
    "polydisk.build_measure_d.k3", "polydisk.verify_poisson_d",
)
# two cycles at least: the median then averages two copies of each op,
# and the cli workload checks its second run of each command against the first
MIN_CYCLES = 2

CLI_COMMANDS = ("analyze", "levelset", "verify", "reconstruct", "contact",
                "embed", "tridisk")


def units_of(table, metrics):
    """Units from BENCHMARK.json; the metrics must match its table exactly."""
    units = {m["name"]: m["unit"] for m in SPEC[table]}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics differ from BENCHMARK.json {table}: "
                         f"{sorted(set(units) ^ set(metrics))}")
    return units


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def run_cycle(wl, cycle, tr, hs, records):
    """Run one cycle of ops back to back.  Each record keeps the op's wall
    time and its quiet-host seconds: wall time over the mean host slowdown
    sampled just before and just after the op."""
    from workloads import Outcome

    before = hs.settled(3)
    for name, fn in wl.ops(cycle):
        op_id = f"c{cycle}.{len(records)}.{name}"
        tr.set_op(op_id)
        t0 = time.perf_counter()
        try:
            with tr.span("op." + name):
                out = fn(tr)
        except Exception as exc:  # an op that raises is a failed op
            traceback.print_exc()
            out = Outcome()
            out.gate("raised", False, f"{type(exc).__name__}: {exc}", None)
        wall = time.perf_counter() - t0
        # collect the op's garbage now, so that no later op pays for it
        gc.collect()
        after = hs.settled(3)
        slowdown = 0.5 * (before + after)
        records.append({"op": name, "id": op_id, "cycle": cycle,
                        "wall_s": wall, "slowdown": slowdown,
                        "seconds": wall / slowdown, "out": out})
        before = after


def latency_stats(lat):
    """Median and tail latency.  The tail is the highest percentile with at
    least 10 samples beyond it, but never below p90: a run holds 7 to 66
    ops, where that percentile would sit near the median, so the output
    states how many samples lie beyond the tail."""
    s = sorted(lat)
    n = len(s)
    tail_rank = max(n - 10, math.ceil(0.9 * n))
    return {"samples": n, "p50": statistics.median(s),
            "tail": s[tail_rank - 1],
            "tail_percentile": 100.0 * tail_rank / n,
            "tail_samples_beyond": n - tail_rank}


def digits(residual):
    if not residual >= 0.0:  # NaN: the residual could not be read
        return 0.0
    return min(14.0, -math.log10(max(residual, 1e-14)))


def end_to_end(wl, records, loop_s, cycles, setups):
    outcomes = wl.setup_outcomes + [r["out"] for r in records]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.missed)
    residuals = [x for o in outcomes for x in o.residuals]
    lat = latency_stats([r["seconds"] for r in records])
    wall = latency_stats([r["wall_s"] for r in records])
    nodes = (sum(o.nodes for o in wl.setup_outcomes)
             + sum(r["out"].nodes for r in records) / cycles)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": len(records) / sum(r["seconds"] for r in records),
        "op_s_p50": lat["p50"],
        "op_s_tail": lat["tail"],
        "pass_ratio": 1.0 - failed / attempted,
        "digits_min": min((digits(x) for x in residuals), default=14.0),
        "nodes_to_tol": nodes,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    extra = {"fail_ratio": failed / attempted, "latency": lat,
             "setups": setups, "cycles": cycles,
             "wall": {"loop_s": loop_s, "ops_per_s": len(records) / loop_s,
                      "op_s_p50": wall["p50"], "op_s_tail": wall["tail"]},
             "host_slowdown_median": statistics.median(
                 r["slowdown"] for r in records)}
    return attempted, failed, metrics, extra


def per_layer(tr, records, base_s, cycle_s, slowdown):
    """Per-layer figures of the traced cycle, in quiet-host seconds."""
    def busy(name):
        return tr.busy(name, slowdown)

    metrics = {}
    for fn in LAYER_FUNCTIONS:
        busy_s, calls, failed = busy(fn)
        metrics.update({f"{fn}.busy_s": busy_s, f"{fn}.calls": calls,
                        f"{fn}.failed": failed})
    for cmd in CLI_COMMANDS:
        busy_s, calls, _ = busy(f"cli.{cmd}")
        metrics[f"cli.{cmd}.wall_s"] = busy_s / calls if calls else 0.0
        metrics[f"cli.{cmd}.calls"] = calls
        metrics[f"cli.{cmd}.failed"] = sum(
            1 for r in records if r["op"] == f"cli.{cmd}" and r["out"].missed)
    for probe in ("interpreter", "import"):
        busy_s, calls, _ = busy(f"cli.{probe}")
        metrics[f"cli.{probe}_s"] = busy_s / calls if calls else 0.0
    trace_s = busy("levelset.trace_branches")[0]
    roots_s = busy("poly.slice_coeffs")[0] + busy("poly.companion_roots")[0]
    metrics["levelset.trace_self_est_s"] = max(0.0, trace_s - roots_s)
    points = tr.counts.get("clark.verify_poisson.points", 0)
    metrics["clark.verify_poisson.s_per_point"] = (
        busy("clark.verify_poisson")[0] / points if points else 0.0)
    metrics["clark.measure_to_json.bytes"] = tr.counts.get(
        "clark.measure_to_json.bytes", 0)
    for name in ("nodes", "extra_nodes", "filled_nodes", "zero_over_zero_nodes"):
        metrics[f"levelset.{name}"] = tr.counts.get(f"levelset.{name}", 0)
    nodes = metrics["levelset.nodes"]
    metrics["levelset.extra_per_node"] = (
        metrics["levelset.extra_nodes"] / nodes if nodes else 0.0)
    metrics["trace.base_cycle_s"] = base_s
    metrics["trace.cycle_s"] = cycle_s
    metrics["trace.overhead_share"] = (cycle_s - base_s) / base_s
    metrics["trace.probe_s"] = tr.probe_seconds(slowdown)
    return metrics


def conditions(args):
    from importlib import metadata

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue

            def read(field, entry=entry):
                with open(os.path.join(base, entry, field)) as fh:
                    return fh.read().strip()
            caches[f"L{read('level')}_{read('type')}"] = read("size")
    except OSError:
        caches = {"unknown": "cache sizes not readable"}
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "caches": caches,
        "load": "one closed-loop client",
    }


def setup_probe(args):
    """Time the set-up again in a fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size,
           "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args):
    import hostspeed
    import tracer
    import workloads

    # set-up = imports + inputs, prebuilt measures and warm-up
    import_s = time.perf_counter() - T_START
    size = workloads.SMOKE if args.size == "smoke" else workloads.FULL
    tr = tracer.Tracer() if args.trace else tracer.NullTracer()
    hs = hostspeed.HostSpeed()
    clock = hostspeed.SpanClock(hs, import_s)
    wl = workloads.WORKLOADS[args.workload](args.seed, size, tr, clock.mark)
    clock.mark()
    setup_slowdown = clock.wall_s / clock.seconds
    own_setup = {"setup_s": clock.seconds, "import_s": import_s,
                 "wall_s": clock.wall_s, "slowdown": setup_slowdown}
    if args.setup_only:
        wl.close()
        return own_setup
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    stem = os.path.join(workloads.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    records: list = []
    try:
        if args.trace:
            base: list = []
            run_cycle(wl, 0, tracer.NullTracer(), hs, base)
            run_cycle(wl, 0, tr, hs, records)
            slowdown = {r["id"]: r["slowdown"] for r in records}
            slowdown["setup"] = setup_slowdown
            metrics = per_layer(tr, records, sum(r["seconds"] for r in base),
                                sum(r["seconds"] for r in records), slowdown)
            outcomes = [r["out"] for r in records]
            attempted, failed = len(outcomes), sum(1 for o in outcomes if o.missed)
            extra = {}
            tr.write(stem + "-spans.json")
            units = units_of("per_layer", metrics)
        else:
            t0 = time.perf_counter()
            cycles = 0
            while (cycles < MIN_CYCLES
                   or time.perf_counter() - t0 < args.seconds):
                run_cycle(wl, cycles, tr, hs, records)
                cycles += 1
            loop_s = time.perf_counter() - t0
            setups = [own_setup] + [setup_probe(args)
                                    for _ in range(wl.setup_runs - 1)]
            attempted, failed, metrics, extra = end_to_end(
                wl, records, loop_s, cycles, setups)
            units = units_of("end_to_end", metrics)
    finally:
        wl.close()
    missed = [m for o in wl.setup_outcomes + [r["out"] for r in records]
              for m in o.missed]
    result = {
        # false when an op missed a bound the package promises (or raised);
        # misses of accuracy targets count in `failed` only
        "correct": not any(m["contract"] is not False for m in missed),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    detail = {
        "conditions": conditions(args), "result": result, "extra": extra,
        "ops": [{"op": r["op"], "cycle": r["cycle"], "seconds": r["seconds"],
                 "wall_s": r["wall_s"], "slowdown": r["slowdown"],
                 "missed": r["out"].missed, "residuals": r["out"].residuals,
                 "nodes": r["out"].nodes, "info": r["out"].info}
                for r in records],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=str)
    print("conditions " + json.dumps(detail["conditions"]))
    for key, value in extra.items():
        print(f"info {key} = {json.dumps(value)}")
    for m in missed:
        print(f"missed gate {json.dumps(m)}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    return result


def run_all(args):
    """Each workload in a fresh child process, so none inherits another's
    imports, peak RSS or warm caches; the children's output passes through."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny grids, for the self-test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time the set-up alone (used for the setup_s median)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rifclark", "__init__.py")):
        print(f"no rifclark sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    import hostspeed

    hostspeed.pin_to_one_cpu()
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
