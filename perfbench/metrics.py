"""Turns the driver's raw document into the benchmark's named metrics.

Every time below comes from the driver's own steady-clock samples and
spans; none is read from the library's RunStats timings. A metric a
workload does not exercise (a PIC stage on the standalone pusher, the
serve layer on a single simulation) reads 0 in the traced breakdown.
"""

import statistics

import stats

# In the order of BENCHMARK.json, which says why each exists.
WORKLOADS = ("pusher-dipole", "pic-dense", "pic-window", "serve-mix")

# (name, unit, better)
END_TO_END = [
    ("nsps", "ns", "lower"),
    ("nsps_p90", "ns", "lower"),
    ("nsps_dpcpp", "ns", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("core.push.ns_pp", "ns", "lower"),
    ("core.push.roofline_frac", "ratio", "higher"),
    ("fields.precalc.ns_pp", "ns", "lower"),
    ("pic.gather_push.ns_pp", "ns", "lower"),
    ("pic.gather_push.share", "fraction", "lower"),
    ("pic.gather_push.roofline_frac", "ratio", "higher"),
    ("pic.deposit.ns_pp", "ns", "lower"),
    ("pic.deposit.share", "fraction", "lower"),
    ("pic.deposit.speedup", "x", "higher"),
    ("pic.deposit.roofline_frac", "ratio", "higher"),
    ("pic.field.ns_per_cell", "ns", "lower"),
    ("pic.field.share", "fraction", "lower"),
    ("pic.field.roofline_frac", "ratio", "higher"),
    ("pic.sort.ms", "ms", "lower"),
    ("pic.sort.share", "fraction", "lower"),
    ("pic.window.shift_ms", "ms", "lower"),
    ("pic.window.share", "fraction", "lower"),
    ("pic.unaccounted.share", "fraction", "lower"),
    ("exec.launches_per_step", "count", "lower"),
    ("exec.submit_us_per_step", "us", "lower"),
    ("exec.parallel_eff", "ratio", "higher"),
    ("exec.serial_nsps", "ns", "lower"),
    ("minisycl.dpcpp_over_openmp", "ratio", "lower"),
    ("core.checkpoint.save_ms", "ms", "lower"),
    ("core.checkpoint.load_ms", "ms", "lower"),
    ("core.checkpoint.mb", "MB", "lower"),
    ("serve.fused_rounds", "count", "higher"),
    ("serve.quanta", "count", "lower"),
    ("serve.jobs_per_s", "1/s", "higher"),
    ("serve.job_latency_p50_ms", "ms", "lower"),
    ("serve.job_latency_p95_ms", "ms", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

# The shares that, with pic.unaccounted.share, add up to the step wall.
STAGE_SHARES = ("pic.gather_push.share", "pic.deposit.share",
                "pic.field.share", "pic.sort.share", "pic.window.share")


def wall_clock_failures(sections):
    """Sections whose timed calls add up to more than their own wall,
    either by the benchmark's samples or by the stage wall time the
    library reported for the same calls: a busy-time sum reported as
    wall time."""
    out = []
    for s in sections:
        for key, what in (("sample_sum_ns", "samples"),
                          ("reported_sum_ns", "library-reported times")):
            if s[key] > s["wall_ns"]:
                out.append("%s: %s sum to %.0f ns > %.0f ns wall"
                           % (s["name"], what, s[key], s["wall_ns"]))
    return out


def _per_particle(doc, key):
    """Per-step ns per particle of sample series `key`."""
    smp = doc["samples"]
    return [t / n for t, n in zip(smp[key], smp[key + "_particles"])]


def _blocks(doc, key, length):
    """ns per particle-step over consecutive blocks of `length` steps (a
    trailing partial block is dropped)."""
    ns, counts = doc["samples"][key], doc["samples"][key + "_particles"]
    return [sum(ns[b:b + length]) / sum(counts[b:b + length])
            for b in range(0, len(ns) - length + 1, length)]


def _need(value, what):
    if value is None:
        raise ValueError("too few samples for " + what)
    return value


def end_to_end(doc):
    w = doc["workload"]
    smp = doc["samples"]
    c = doc["counters"]
    m = {}
    if w == "serve-mix":
        work = c["burst_particle_steps"]
        m["nsps"] = stats.median([b / work for b in smp["burst_ns"]])
        per_job = [t / n for t, n in zip(smp["job_latency_ns"],
                                         smp["job_particle_steps"])]
        m["nsps_p90"] = _need(stats.percentile(per_job, 90), "nsps_p90")
        m["nsps_dpcpp"] = stats.median(smp["dpcpp_job_ns_per_particle_step"])
    else:
        block = int(c["block_steps"])
        m["nsps"] = stats.median(_blocks(doc, "parallel_step_ns", block))
        m["nsps_p90"] = _need(
            stats.percentile(_per_particle(doc, "parallel_step_ns"), 90),
            "nsps_p90")
        m["nsps_dpcpp"] = stats.median(_per_particle(doc, "dpcpp_step_ns"))
    m["setup_s"] = stats.median(smp["setup_ns"]) / 1e9
    m["peak_rss_mb"] = c["peak_rss_kb"] / 1024.0
    return m


def _spans(doc):
    out = {}
    for name, begin, end, _parent in doc["spans"]:
        out.setdefault(name, []).append(end - begin)
    return out


def per_layer(doc):
    w = doc["workload"]
    smp = doc["samples"]
    c = doc["counters"]
    sp = _spans(doc)
    m = {name: 0.0 for name, _, _ in PER_LAYER}
    threads = c["threads"]
    m["exec.launches_per_step"] = c["exec.launches"] / c["exec.steps"]
    m["exec.submit_us_per_step"] = c["exec.submit_ns"] / c["exec.steps"] / 1e3

    if w == "pusher-dipole":
        n = c["particles"]
        push = stats.median(sp["core.push"]) / n
        untraced = stats.median(smp["untraced_step_ns"]) / n
        m["core.push.ns_pp"] = push
        m["core.push.roofline_frac"] = c["pred.push_ns"] / push
        m["fields.precalc.ns_pp"] = stats.median(sp["fields.precalc"]) / n
        serial = stats.median(smp["serial_step_ns"]) / n
        m["exec.serial_nsps"] = serial
        m["exec.parallel_eff"] = serial / (untraced * threads)
        m["minisycl.dpcpp_over_openmp"] = (
            stats.median(smp["dpcpp_step_ns"]) / n / untraced)
        m["trace.overhead_frac"] = (
            push / (stats.median(smp["untraced_alt_step_ns"]) / n) - 1)
    elif w == "serve-mix":
        work = c["burst_particle_steps"]
        burst = smp["burst_ns"][0]
        untraced = smp["untraced_burst_ns"][0]
        serial = smp["serial_job_ns_per_particle_step"][0]
        m["exec.serial_nsps"] = serial
        m["exec.parallel_eff"] = serial / (untraced / work * threads)
        m["serve.fused_rounds"] = c["serve.fused_rounds"]
        m["serve.quanta"] = c["serve.quanta"]
        m["serve.jobs_per_s"] = c["jobs"] / (burst / 1e9)
        lat = smp["job_latency_ns"]
        m["serve.job_latency_p50_ms"] = stats.median(lat) / 1e6
        m["serve.job_latency_p95_ms"] = _need(stats.percentile(lat, 95),
                                              "job latency p95") / 1e6
        m["trace.overhead_frac"] = burst / untraced - 1
    else:
        plain = smp["traced_plain_step_ns"]
        shifted = smp.get("traced_shift_step_ns", [])
        step_total = sum(sp["pic.step"])
        particles = sum(smp["traced_step_particles"])
        cells = c["cells"] * c["traced_steps"]
        gp = sum(sp["pic.gather_push"])
        dep = sum(sp["pic.deposit"])
        fld = sum(sp["pic.field"])
        srt = sp.get("pic.sort", [])
        m["pic.gather_push.ns_pp"] = gp / particles
        m["pic.gather_push.share"] = gp / step_total
        m["pic.gather_push.roofline_frac"] = (c["pred.push_ns"]
                                              / m["pic.gather_push.ns_pp"])
        m["pic.deposit.ns_pp"] = dep / particles
        m["pic.deposit.share"] = dep / step_total
        m["pic.deposit.speedup"] = sum(sp["pic.deposit_serial"]) / dep
        m["pic.deposit.roofline_frac"] = (c["pred.deposit_ns"]
                                          / m["pic.deposit.ns_pp"])
        m["pic.field.ns_per_cell"] = fld / cells
        m["pic.field.share"] = fld / step_total
        m["pic.field.roofline_frac"] = (c["pred.field_ns"]
                                        / m["pic.field.ns_per_cell"])
        if srt:
            m["pic.sort.ms"] = statistics.mean(srt) / 1e6
            m["pic.sort.share"] = sum(srt) / step_total
        if shifted:
            extra = stats.median(shifted) - stats.median(plain)
            m["pic.window.shift_ms"] = extra / 1e6
            m["pic.window.share"] = extra * len(shifted) / step_total
        m["pic.unaccounted.share"] = 1 - sum(m[k] for k in STAGE_SHARES)
        serial = stats.median(_per_particle(doc, "serial_step_ns"))
        m["exec.serial_nsps"] = serial
        m["exec.parallel_eff"] = serial / (
            stats.median(_per_particle(doc, "untraced_step_ns")) * threads)
        m["trace.overhead_frac"] = (
            stats.median(sp["pic.step"])
            / stats.median(smp["untraced_alt_step_ns"]) - 1)
    if "core.checkpoint.save" in sp:
        m["core.checkpoint.save_ms"] = stats.median(
            sp["core.checkpoint.save"]) / 1e6
        m["core.checkpoint.load_ms"] = stats.median(
            sp["core.checkpoint.load"]) / 1e6
        m["core.checkpoint.mb"] = c["checkpoint.bytes"] / 1e6
    return m
