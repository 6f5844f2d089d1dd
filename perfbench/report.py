"""Human report, per-layer accounting and the result line.

Imported by ``run.py`` once the VM sources are on the path.
"""

import json
import os
import resource
import statistics

import hostspeed
import reference
import workloads as w
from repro.bench.suite import all_benchmarks, get_benchmark
from repro.jit.config import JitConfig
from spans import COMPILE_LAYERS, LAYER_ORDER, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REF_DIR = os.path.join(ROOT, ".perfbench", "ref")
OUT_DIR = os.path.join(ROOT, ".perfbench", "out")
#: The end-to-end metrics of BENCHMARK.json.
UNITS = {
    "setup_s": "s", "latency_ms": "ms", "model_cycles": "cycles",
    "code_bytes": "bytes", "peak_rss_mb": "MB", "ok_ratio": "ratio",
}
MEANING = {
    "warmup-py": {
        "latency_ms": "warmup_ms: geomean over programs of the wall time "
                      "of the cold iterations",
        "model_cycles": "geomean over programs of model cycles of the "
                        "cold iterations",
    },
    "steady-py": {
        "latency_ms": "steady_ms: geomean over programs of the median "
                      "steady-iteration wall time",
        "model_cycles": "steady_cycles: geomean over programs of the "
                        "median steady-iteration model cycles",
    },
    "serve-fleet": {
        "latency_ms": "serve_p50_ms: median request latency from its "
                      "due time over the latency window",
        "model_cycles": "geomean over tenants of the median model cycles "
                        "of their requests in the latency window",
    },
}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fmt(value):
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


# ----------------------------------------------------------------------
# Per-layer accounting (traced passes)
# ----------------------------------------------------------------------


def layer_table(tracers, passes):
    """Per-layer self time by phase, averaged over the traced passes."""
    table = {}
    for tracer in tracers:
        seconds, calls = tracer.self_times()
        for (phase, layer), value in seconds.items():
            row = table.setdefault(layer, {"setup": 0.0, "measure": 0.0,
                                           "calls": 0})
            row[phase] += value / passes
        for (phase, layer), count in calls.items():
            table[layer]["calls"] += count / passes
    for layer in LAYER_ORDER:
        table.setdefault(layer, {"setup": 0.0, "measure": 0.0, "calls": 0})
    return table


def layer_metrics(table, counts, install_ms, waits_ms, overhead):
    """The ``per_layer`` metrics of BENCHMARK.json."""
    def self_s(layer):
        row = table[layer]
        return row["setup"] + row["measure"]

    executed = self_s("backend.py") + self_s("backend.machine")
    lookups_hits = counts["memo_hits"] + counts["memo_misses"]
    compiles = counts["compilations"]
    install_total = sum(install_ms)
    return {
        "lang.load_s": (self_s("lang.load"), "s"),
        "interp.self_s": (self_s("interp"), "s"),
        "interp.calls": (table["interp"]["calls"], "count"),
        "interp.ops": (counts["interp_ops"], "count"),
        "ir.build.self_s": (self_s("ir.build"), "s"),
        "ir.build.calls": (table["ir.build"]["calls"], "count"),
        "core.inline.self_s": (self_s("core.inline"), "s"),
        "core.expansion.self_s": (self_s("core.expansion"), "s"),
        "core.analysis.self_s": (self_s("core.analysis"), "s"),
        "core.inlining.self_s": (self_s("core.inlining"), "s"),
        "core.trials.self_s": (self_s("core.trials"), "s"),
        "core.inline.explored_nodes": (counts["explored_nodes"], "count"),
        "core.inline.inlined": (counts["inlined"], "count"),
        "core.trial_memo.hit_ratio": (
            counts["memo_hits"] / lookups_hits if lookups_hits else 0.0,
            "ratio"),
        "opts.pipeline.self_s": (self_s("opts.pipeline"), "s"),
        "opts.pipeline.calls": (table["opts.pipeline"]["calls"], "count"),
        "opts.simplify.self_s": (self_s("opts.simplify"), "s"),
        "backend.lower.self_s": (self_s("backend.lower"), "s"),
        "backend.codegen.self_s": (
            self_s("backend.lower") + self_s("backend.pycodegen"), "s"),
        "backend.exec.self_s": (executed, "s"),
        "backend.py.exec_share": (
            self_s("backend.py") / executed if executed else 0.0, "ratio"),
        "backend.py.bailout_ratio": (
            counts["py_bailouts"] / compiles if compiles else 0.0, "ratio"),
        "jit.compile.self_s": (self_s("jit.compile"), "s"),
        "jit.engine.glue_self_s": (self_s("jit.engine"), "s"),
        "jit.codecache.lookups": (counts["lookups"], "count"),
        "jit.compilations": (compiles, "count"),
        "jit.install_p50_ms": (statistics.median(install_ms), "ms"),
        "jit.install_p95_ms": (w.percentile(install_ms, 95), "ms"),
        "jit.osr.entries": (counts["osr_entries"], "count"),
        "deopt.count": (counts["deopts"], "count"),
        "serve.queue.wait_share": (
            sum(waits_ms) / install_total if install_total else 0.0,
            "ratio"),
        "serve.queue.rejected": (counts["rejected"], "count"),
        "serve.queue.cancelled": (counts["cancelled"], "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def engine_counts(rows, passes):
    keys = ("interp_ops", "explored_nodes", "inlined", "memo_hits",
            "memo_misses", "compilations", "osr_entries", "deopts",
            "py_bailouts")
    return {key: sum(r[key] for r in rows) / passes for key in keys}


def print_layer_table(workload, table, extra, out):
    measured = sum(row["measure"] for row in table.values())
    lines = ["per-layer self time, mean per traced pass (%s)" % workload,
             "%-18s %10s %10s %8s %10s" % (
                 "layer", "setup_s", "measure_s", "measure%", "calls")]
    for layer in LAYER_ORDER:
        row = table[layer]
        lines.append("%-18s %10.4f %10.4f %7.1f%% %10.0f" % (
            layer + (" (glue)" if layer == "jit.engine" else ""),
            row["setup"], row["measure"],
            100.0 * row["measure"] / measured if measured else 0.0,
            row["calls"]))
    compile_share = sum(table[l]["measure"] for l in COMPILE_LAYERS)
    lines.append("timed window: compile layers + interp = %.1f%%; "
                 "backend.py + jit.engine glue = %.1f%%" % (
                     100.0 * (compile_share + table["interp"]["measure"])
                     / measured,
                     100.0 * (table["backend.py"]["measure"]
                              + table["jit.engine"]["measure"]) / measured))
    for name, value in extra:
        lines.append("%-28s %s" % (name, fmt(value)))
    text = "\n".join(lines)
    print(text)
    with open(out, "w") as handle:
        handle.write(text + "\n")


# ----------------------------------------------------------------------
# Workload drivers
# ----------------------------------------------------------------------


def suite_needs(seed):
    return {(spec, w.vm_seed(seed, spec.name)): w.REF_ITERATIONS
            for spec in all_benchmarks()}


def run_suite_workload(args, refs):
    steady = args.workload == "steady-py"
    passes, tracers = w.run_suite(steady, args.seed, args.seconds, refs,
                                  bool(args.trace))
    untraced = [p for p in passes if not p["traced"]]
    metrics, programs, detail = w.suite_metrics(untraced, steady)
    detail["config"] = w.resolved(JitConfig(**w.SUITE_JIT))
    report = {"metrics": metrics, "programs": programs, "detail": detail}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        traced_metrics = w.suite_metrics(traced, steady)[0]
        rows = [r for p in traced for r in p["rows"]]
        counts = engine_counts(rows, len(traced))
        counts["lookups"] = sum(t.lookups for t in tracers) / len(traced)
        counts["rejected"] = counts["cancelled"] = 0
        install = [s * 1000.0 for p in traced for s in p["compile_samples"]]
        table = layer_table(tracers, len(traced))
        overhead = traced_metrics["latency_ms"] / metrics["latency_ms"]
        report["layers"] = layer_metrics(table, counts, install, [],
                                         overhead)
        write_trace(args, tracers[0], table, [
            ("tracing overhead", "latency_ms %.3f untraced vs %.3f traced "
             "(ratio %.4f)" % (metrics["latency_ms"],
                               traced_metrics["latency_ms"], overhead)),
        ])
    return report


def run_serve_workload(args, suite_refs):
    tenants, weights = w.fleet(args.seed, suite_refs)
    sessions = 1 if args.trace else w.SERVE_SESSIONS
    seconds = args.seconds / (sessions + args.trace)
    schedule = w.arrival_schedule(args.seed, seconds, tenants, weights)
    needs = {}
    for index, name in enumerate(tenants):
        count = sum(1 for _, t in schedule if t == index)
        needs[get_benchmark(name), w.vm_seed(args.seed, name)] = max(
            count, w.REF_ITERATIONS)
    refs = reference.ensure(REF_DIR, needs)
    untraced = [w.serve_session(tenants, args.seed, schedule, refs, None)
                for _ in range(sessions)]
    metrics, detail = w.serve_metrics(untraced, tenants)
    detail["config"] = untraced[0]["config"]
    detail["tenants"] = tenants
    detail["weights"] = weights
    detail["queue"] = untraced[0]["queue"]
    programs = [dict(t, weight=round(weights[i], 4))
                for i, t in enumerate(untraced[0]["tenants"])]
    report = {"metrics": metrics, "programs": programs, "detail": detail}
    if args.trace:
        tracer = Tracer()
        traced = w.serve_session(tenants, args.seed, schedule, refs, tracer)
        traced_metrics = w.serve_metrics([traced], tenants)[0]
        counts = engine_counts(traced["tenants"], 1)
        counts["lookups"] = tracer.lookups
        counts["rejected"] = traced["queue"]["rejected"]
        counts["cancelled"] = traced["queue"]["cancelled"]
        times = tracer.queue_times_ms()
        waits = [wait for wait, _ in times]
        install = [wait + run for wait, run in times]
        table = layer_table([tracer], 1)
        overhead = traced_metrics["latency_ms"] / metrics["latency_ms"]
        report["layers"] = layer_metrics(table, counts, install, waits,
                                         overhead)
        lags = [r["lag_ms"] for r in w.latency_window(traced["requests"])]
        write_trace(args, tracer, table, [
            ("tracing overhead", "latency_ms %.3f untraced vs %.3f "
             "traced (ratio %.4f)" % (metrics["latency_ms"],
                                      traced_metrics["latency_ms"],
                                      overhead)),
            ("serve.queue.wait_ms p50/p95", "%.3f / %.3f (%d requests)" % (
                statistics.median(waits), w.percentile(waits, 95),
                len(waits))),
            ("serve.queue.compile_ms p50", statistics.median(
                [run for _, run in times])),
            ("serve.queue.rejected", counts["rejected"]),
            ("serve.queue.cancelled", counts["cancelled"]),
            ("serve.gen_lag_ms p50/p95", "%.3f / %.3f" % (
                statistics.median(lags), w.percentile(lags, 95))),
        ])
    return report


def write_trace(args, tracer, table, extra):
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    tracer.write_chrome(stem + "-trace.json", {
        "workload": args.workload, "seed": args.seed,
    })
    print_layer_table(args.workload, table, extra + [
        ("chrome trace", stem + "-trace.json"),
        ("spans kept / dropped", "%d / %d" % (len(tracer.events),
                                               tracer.dropped)),
    ], stem + "-layers.txt")


def print_report(args, report):
    metrics, detail = report["metrics"], report["detail"]
    print("perfbench %s seed=%d seconds=%g passes=%s" % (
        args.workload, args.seed, args.seconds, detail.get("passes", 1)))
    print("resolved config: %s" % " ".join(
        "%s=%s" % item for item in sorted(detail["config"].items())))
    print("host scale %.4f: times are wall times scaled to a host that "
          "runs the calibration in %g ms (hostspeed.py); wall time "
          "is about value / scale" % (detail["host_scale"],
                                      hostspeed.NOMINAL_S * 1000.0))
    print("end-to-end metrics (untraced):")
    meaning = MEANING[args.workload]
    for name, unit in UNITS.items():
        print("  %-15s %14s %-6s %s" % (
            name, fmt(metrics[name]), unit, meaning.get(name, "")))
    failed_ratio = detail["failed"] / detail["attempted"]
    print("reported, not gated:")
    print("  %-15s %14s %-6s %d of %d %s failed (%d wrong answers)" % (
        "failed_ratio", fmt(failed_ratio), "ratio", detail["failed"],
        detail["attempted"],
        "requests" if args.workload == "serve-fleet" else "iterations",
        detail["mismatches"]))
    print("  %-15s %14s %-6s compiling thread's CPU time in "
          "JitCompiler.compile/compile_osr" % (
              "compile_s", fmt(metrics["compile_s"]), "s"))
    print("  %-15s %14s %-6s p95 of single compilations (%d samples)" % (
        "compile_p95_ms", fmt(metrics["compile_p95_ms"]), "ms",
        detail["compile_samples"]))
    if args.workload == "serve-fleet":
        print("  serve_p50_ms    %14s ms     over the %d requests after "
              "each session's warm-up prefix" % (
                  fmt(detail["serve_p50_ms"]), detail["window_requests"]))
        print("  serve_p95_ms    %14s ms     same requests" % (
            fmt(detail["serve_p95_ms"])))
        print("  gen_lag_ms      p50 %s / p95 %s" % (
            fmt(detail["gen_lag_p50_ms"]), fmt(detail["gen_lag_p95_ms"])))
        print("tenants (program, popularity weight, requests, "
              "compilations, code bytes, errors):")
        for row in report["programs"]:
            print("  %-12s %6.3f %5d %4d %7d %s" % (
                row["program"], row["weight"], row["requests"],
                row["compilations"], row["code_bytes"],
                "; ".join(row["errors"]) or "ok"))
        return
    print("per program (latency_ms, cycles, code_bytes, compilations, "
          "compile_s, status):")
    for row in report["programs"]:
        print("  %-12s %10.3f %12d %7d %4d %8.4f %s" % (
            row["program"], row["latency_ms"], row["cycles"],
            row["code_bytes"], row["compilations"], row["compile_s"],
            row["status"]))
    crashing = [r["program"] for r in report["programs"]
                if r["status"] != "ok"]
    print("failing programs (%d): %s" % (len(crashing),
                                          " ".join(crashing) or "none"))


def run(args):
    """Run *args.workload* and print the report and the result line."""
    os.makedirs(OUT_DIR, exist_ok=True)
    suite_refs = reference.ensure(REF_DIR, suite_needs(args.seed))
    if args.workload == "serve-fleet":
        report = run_serve_workload(args, suite_refs)
    else:
        report = run_suite_workload(args, suite_refs)
    report["metrics"]["peak_rss_mb"] = peak_rss_mb()
    print_report(args, report)
    detail = report["detail"]
    with open(os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(report, handle, indent=1, default=str)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
    else:
        metrics = {name: {"value": report["metrics"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    print(json.dumps({
        "correct": detail["mismatches"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))

