"""Metric math for the benchmark: raw measurements in, named metrics out.

perfbench_raw (src/main.cpp) reports what it timed and counted; the
functions here turn that into the end-to-end and per-layer metrics named in
BENCHMARK.json. Every formula lives in a small function so
tests/test_metrics.py can pin it.
"""

import math
import statistics

# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of the
    sample at or below it. Returns (value, beyond, n), where `beyond` counts
    the samples ranked above it; a percentile is only worth reporting when
    `beyond` is at least ten."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1], n - rank, n


def rate(items, wall_ns):
    """Items per second over a wall-clock interval in nanoseconds."""
    if wall_ns <= 0:
        raise ValueError("rate over an empty interval")
    return items / (wall_ns * 1e-9)


def median_rate(items_list, wall_ns_list):
    """Median of per-slice rates (slices of one pass, equal work each)."""
    return statistics.median(rate(i, w) for i, w in zip(items_list, wall_ns_list))


def pass_rate(p):
    """Items per second of a pass: the median over its slices."""
    return median_rate(p["batch_items"], p["batch_wall_ns"])


def busy_rate(p):
    """Items per second of item time (per worker): a pass's capacity, free of
    the idle tail its wall clock carries when item costs are heavy-tailed."""
    return rate(len(p["item_ns"]), sum(p["item_ns"]))


def busy_frac(busy_ns, workers, wall_ns):
    """Share of the worker capacity spent inside the mapped function:
    sum of item time / (workers x wall)."""
    return busy_ns / (workers * wall_ns)


def usage_delta(before, after):
    """Per-field difference of two getrusage snapshots."""
    return {k: after[k] - before[k] for k in before}


def sys_cpu_frac(delta):
    """Share of the CPU time the process spent in the kernel."""
    cpu = delta["utime_ns"] + delta["stime_ns"]
    return delta["stime_ns"] / cpu if cpu > 0 else 0.0


def minflt_per_op(delta, ops):
    """Minor page faults per operation."""
    return delta["minflt"] / ops


def ledger_residual(parts, whole):
    """Share of `whole` that the ledger's parts leave unexplained."""
    return 1.0 - sum(parts) / whole


def overhead_pct(base_rate, slowed_rate):
    """Percent by which `slowed_rate` is slower than `base_rate`."""
    return (base_rate / slowed_rate - 1.0) * 100.0


def frac(num, den):
    """num / den, 0 when there is nothing to divide."""
    return num / den if den else 0.0


def pass_usage(*passes):
    """Summed getrusage deltas over every batch of the given passes."""
    total = None
    for p in passes:
        for u in p["usage"]:
            d = usage_delta(u["before"], u["after"])
            total = d if total is None else {k: total[k] + d[k] for k in total}
    return total


def span(p, name, field="total_ns"):
    return p.get("spans", {}).get(name, {}).get(field, 0)


# ---------------------------------------------------------------------------
# End-to-end metrics (untraced run)
# ---------------------------------------------------------------------------

# Each workload's readable names: (its gated rate, a second rate that is
# printed but not gated, its timed item). claims.json defines them.
SLOT_NAMES = {
    "trial_sweep": ("trials_per_s_j1", "trials_per_s", "trial"),
    "chaos": ("cases_per_s", "cases_per_s_armed", "case"),
}

# Which pass feeds each: (gated rate, second rate, gated latencies).
# trial_sweep gates its 1-job pass: on a shared 4-vCPU VM the nproc rate
# followed the host's load, between 3.4k and 6.2k trials/s in ten runs. Its
# batches spend about two thirds of their CPU time in the kernel (fiber-stack
# mmap/munmap from four threads, about five TLB shootdowns per trial).
# exec.speedup carries it in the ledger.
SLOT_PASSES = {
    "trial_sweep": ("j1", "full", "j1"),
    "chaos": ("full", "armed", "full"),
}


def latency_lines(label, items):
    """Readable p50/p90/p99 lines with the sample count and the number of
    samples beyond each percentile."""
    out = []
    for pct in (50, 90, 99):
        v, beyond, n = nearest_rank(items, pct)
        out.append(f"{label}_p{pct}_us = {v / 1e3:.6g} us (n={n}, {beyond} beyond)")
    return out


def end_to_end(raw):
    """The end_to_end metrics of one untraced run, plus readable lines that
    name each under its workload-specific name."""
    w = raw["workload"]
    passes = raw["passes"]
    head, second, lat = SLOT_PASSES[w]
    ops = pass_rate(passes[head])
    ops_2 = pass_rate(passes[second])
    cpu = passes[lat]["item_cpu_ns"]
    p50, _, _ = nearest_rank(cpu, 50)
    p90, b90, _ = nearest_rank(cpu, 90)
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB"),
        "ops_per_s": (ops, "1/s"),
        "item_cpu_p50_us": (p50 / 1e3, "us"),
        "item_cpu_p90_us": (p90 / 1e3, "us"),
    }
    name, name_2, item = SLOT_NAMES[w]
    lines = [f"{name} = {ops:.6g} 1/s", f"{name_2} = {ops_2:.6g} 1/s (not gated)"]
    for p in dict.fromkeys((head, lat, second)):
        lines += latency_lines(f"{item}_{p}", passes[p]["item_ns"])
    lines += latency_lines(f"{item}_{lat}_cpu", cpu)
    if w == "chaos":
        lines.append(f"liveness_missed = {raw['liveness_missed']} count "
                     f"(of {passes['full']['batch_items'][0]} cases; not failures)")
    lines.append(f"setup_s = {metrics['setup_s'][0]:.6g} s")
    lines.append(f"peak_rss_mib = {metrics['peak_rss_mib'][0]:.6g} MiB")
    lines.append(f"failed_frac = {frac(raw['failed'], raw['attempted']):.6g} "
                 f"({raw['failed']}/{raw['attempted']})")
    if b90 < 10:
        lines.append(f"warning: item_cpu_p90_us has only {b90} samples beyond it")
    return metrics, lines


# ---------------------------------------------------------------------------
# Per-layer metrics (traced run)
# ---------------------------------------------------------------------------

CASE_KINDS = {0: "consensus", 1: "omega", 2: "byz"}


def per_layer(raw):
    """The per_layer metrics of one traced (ledger) run, plus the ledger's
    consistency lines."""
    L = raw["ledger"]
    m = {}
    lines = []

    def put(name, value, unit):
        m[name] = (value, unit)

    # exec and core: the trial sweep.
    t = L["trial_sweep"]
    j1_rate, full_rate = pass_rate(t["j1"]), pass_rate(t["full"])
    ft = t["full_traced"]
    put("exec.busy_frac", busy_frac(span(ft, "core.run_consensus_trial"), ft["workers"],
                                    span(ft, "exec.parallel_map")), "frac")
    put("exec.speedup", full_rate / j1_rate, "x")
    j1_p50 = nearest_rank(t["j1"]["item_ns"], 50)[0] / 1e3
    put("core.trial_us_j1_p50", j1_p50, "us")
    put("core.trial_us_j1_p99", nearest_rank(t["j1"]["item_ns"], 99)[0] / 1e3, "us")
    put("core.steps_per_trial", statistics.fmean(t["steps"]), "count")
    d = pass_usage(t["j1"], t["full"])
    trials = sum(t["j1"]["batch_items"]) + sum(t["full"]["batch_items"])
    put("runtime.sys_cpu_frac.trial_sweep", sys_cpu_frac(d), "frac")
    put("runtime.minflt_per_op.trial_sweep", minflt_per_op(d, trials), "count")
    put("bench.span_overhead_pct.trial_sweep",
        overhead_pct(pass_rate(t["full_plain"]), pass_rate(ft)), "%")

    # runtime lifecycle probe.
    lc = L["lifecycle"]
    construct = statistics.median(lc["construct_ns"]) / 1e3
    run = statistics.median(lc["run_ns"]) / 1e3
    teardown = statistics.median(lc["teardown_ns"]) / 1e3
    start = span(lc["traced"], "runtime.SimRuntime.start") / max(
        1, span(lc["traced"], "runtime.SimRuntime.start", "count")) / 1e3
    put("runtime.construct_us", construct, "us")
    put("runtime.start_us", start, "us")
    put("runtime.run_us", run, "us")
    put("runtime.teardown_us", teardown, "us")
    residual = ledger_residual([construct, run, teardown], j1_p50)
    put("runtime.ledger_residual_frac", residual, "frac")
    lines.append(f"residual: lifecycle {construct:.4g} + {run:.4g} + {teardown:.4g} us "
                 f"vs trial p50 {j1_p50:.4g} us -> {residual:.3f} unexplained")

    # fault and obs: the chaos pass.
    c = L["chaos"]
    full, armed, ct = c["full"], c["armed"], c["full_traced"]
    by_kind = {k: [] for k in CASE_KINDS.values()}
    for kind, ns in zip(c["case_kinds"], full["item_ns"]):
        by_kind[CASE_KINDS[kind]].append(ns)
    for kind, ns in by_kind.items():
        put(f"fault.case_us_p50.{kind}", nearest_rank(ns, 50)[0] / 1e3 if ns else 0.0, "us")
    put("fault.rules_fired_per_case", statistics.fmean(c["rules_fired"]), "count")
    consensus = [dec for kind, dec in zip(c["case_kinds"], c["decided"]) if kind == 0]
    put("fault.decided_frac", frac(sum(consensus), len(consensus)), "frac")
    put("exec.busy_frac.chaos", busy_frac(span(ct, "fault.run_chaos_case"), ct["workers"],
                                          span(ct, "exec.parallel_map")), "frac")
    chaos_rate = busy_rate(full)
    put("obs.armed_overhead_pct", overhead_pct(chaos_rate, busy_rate(armed)), "%")
    d = pass_usage(full)
    put("runtime.sys_cpu_frac.chaos", sys_cpu_frac(d), "frac")
    put("runtime.minflt_per_op.chaos", minflt_per_op(d, sum(full["batch_items"])), "count")
    put("bench.span_overhead_pct.chaos", overhead_pct(chaos_rate, busy_rate(ct)), "%")

    # check: the traced corpus pass, and the untraced smallest instance.
    dp = L["dpor"]
    traced = dp["traced"]
    verdicts = dp["verdicts"]
    replays = sum(v["runs"] for v in verdicts)
    wall = span(traced, "check.check_instance_dpor")
    put("check.replays", replays, "count")
    lines.append(f"dpor: verdict_s = {wall * 1e-9:.6g} s for the corpus ({replays} replays, traced)")
    put("check.replays_per_s", rate(replays, wall), "1/s")
    put("check.make_frac", span(traced, "check.Instance.make") / wall, "frac")
    put("check.oracle_frac", span(traced, "check.Instance.check") / wall, "frac")
    put("check.cache_pruned_frac", frac(sum(v["cache_pruned"] for v in verdicts), replays), "frac")
    sleep = sum(v["sleep_pruned"] for v in verdicts)
    put("check.sleep_pruned_frac", frac(sleep, replays + sleep), "frac")
    small = dp["small"]
    d = pass_usage(small)
    put("runtime.sys_cpu_frac.dpor", sys_cpu_frac(d), "frac")
    put("runtime.minflt_per_op.dpor", minflt_per_op(d, sum(small["batch_items"])), "count")
    small_name = dp["small_verdicts"][0]["name"]
    traced_small = next(v["wall_ns"] for v in verdicts if v["name"] == small_name)
    put("bench.span_overhead_pct.dpor",
        overhead_pct(1.0 / dp["small_verdicts"][0]["wall_ns"], 1.0 / traced_small), "%")

    # runtime step loop and CMB: the ring probes and both ring configurations.
    r = L["ring"]
    sched = r["sched_step_ns"]
    msg = r["ring_step_ns"] - sched
    put("runtime.fiber_switch_ns", r["fiber_switch_ns"], "ns")
    put("runtime.sched_step_ns", sched, "ns")
    put("runtime.msg_ns", msg, "ns")
    put("runtime.reg_write_ns", r["reg_write_step_ns"] - sched, "ns")
    seq_step_ns = 1e9 / pass_rate(r["loose"]["seq"])
    step_residual = ledger_residual([sched, msg], seq_step_ns)
    put("runtime.step_residual_frac", step_residual, "frac")
    lines.append(f"residual: sched {sched:.4g} + msg {msg:.4g} ns vs ring seq step "
                 f"{seq_step_ns:.4g} ns -> {step_residual:.3f} unexplained")
    for tag, workload in (("loose", "ring"), ("tight", "ring_tight")):
        cfg = r[tag]
        seq_rate, parted_rate = pass_rate(cfg["seq"]), pass_rate(cfg["parted"])
        put(f"runtime.cmb.speedup_{tag}", parted_rate / seq_rate, "x")
        lines.append(f"ring {tag}: steps_per_s_seq = {seq_rate:.6g} 1/s, "
                     f"steps_per_s_parted = {parted_rate:.6g} 1/s")
        cmb = cfg["cmb"]
        ksteps = cmb["steps"] / 1e3
        put(f"runtime.cmb.horizon_stall_frac_{tag}",
            frac(cmb["horizon_stall_ns"], cmb["worker_wall_ns"]), "frac")
        put(f"runtime.cmb.null_scan_rounds_per_kstep_{tag}", cmb["null_scan_rounds"] / ksteps,
            "count")
        put(f"runtime.cmb.handoff_contended_frac_{tag}",
            frac(cmb["handoff_contended"], cmb["handoff_locks"]), "frac")
        put(f"runtime.cmb.worker_busy_frac_{tag}",
            frac(cmb["worker_busy_ns"], cmb["worker_wall_ns"]), "frac")
        put(f"runtime.cmb.cross_msgs_per_kstep_{tag}", cmb["cross_msgs"] / ksteps, "count")
        put(f"bench.span_overhead_pct.{workload}",
            overhead_pct(seq_rate, pass_rate(cfg["traced_seq"])), "%")

    for name in sorted(m):
        if name.startswith("bench.span_overhead_pct."):
            lines.append(f"span overhead {name.rsplit('.', 1)[1]}: {m[name][0]:.3g}% "
                         "(traced rate against untraced rate)")
    return m, lines
