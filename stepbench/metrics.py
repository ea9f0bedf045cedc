"""Metric definitions and aggregation for the paper-scale step benchmark.

The driver binary (stepbench/src) reports raw samples: one wall time per
untraced step or request, one time per full set-up, counters and per-layer
means from the traced run. This module turns them into the benchmark's
metrics. BENCHMARK.json lists the same names; test_metrics.py keeps the two
in step.
"""

import math
import statistics

WORKLOADS = ("trad_paper", "dlpic_f64", "ensemble8_f64", "wire_int8")
STEP_WORKLOADS = ("trad_paper", "dlpic_f64", "ensemble8_f64")

# A tail percentile must leave at least this many samples beyond it.
MIN_BEYOND = 10

# (name, unit, better): every workload reports all of them with --trace 0.
# An "op" is one simulation step (trad_paper, dlpic_f64), one lockstep step
# of all eight members (ensemble8_f64) or one request from submit to
# response (wire_int8).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_ms_p50", "ms", "lower"),
    ("latency_ms_tail", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Names the issue tracker and README use for the same figures, per workload
# kind; printed next to the metrics for readers.
STEP_ALIASES = {
    "latency_ms_p50": "step_ms_p50",
    "latency_ms_tail": "step_ms_tail",
    "throughput_per_s": "particle_steps_per_s",
}
REQUEST_ALIASES = {
    "latency_ms_p50": "latency_ms_p50",
    "latency_ms_tail": "latency_ms_tail",
    "throughput_per_s": "req_per_s",
}

_ALL = WORKLOADS
_PIC = STEP_WORKLOADS
_DL = ("dlpic_f64", "ensemble8_f64")
_NN = ("dlpic_f64", "ensemble8_f64", "wire_int8")
_SERVED = ("ensemble8_f64", "wire_int8")
_STEP_TIME = "latency_ms_p50, throughput_per_s"

# (name, unit, better, workloads that exercise the layer, end-to-end metrics
# it moves). With --trace 1 every workload reports every metric; a layer a
# workload never calls reads 0 there, which is the predicted "no change".
PER_LAYER = (
    ("pic.sort_ms", "ms", "lower", ("trad_paper",), _STEP_TIME),
    ("pic.push_ms", "ms", "lower", _PIC, _STEP_TIME),
    ("pic.deposit_ms", "ms", "lower", ("trad_paper",), _STEP_TIME),
    ("pic.poisson_ms", "ms", "lower", ("trad_paper",), _STEP_TIME),
    ("pic.diag_ms", "ms", "lower", _PIC, _STEP_TIME),
    ("pic.particles_per_step", "count", "higher", _PIC, "throughput_per_s"),
    ("phase_space.bin_ms", "ms", "lower", _DL, "latency_ms_p50"),
    ("phase_space.clamped_frac", "frac", "lower", _DL, "latency_ms_p50"),
    ("data.normalize_ms", "ms", "lower", ("dlpic_f64",), "latency_ms_p50"),
    ("nn.forward_ms", "ms", "lower", _NN, "latency_ms_p50"),
    ("nn.forward_batch", "count", "higher", _NN, "throughput_per_s"),
    ("nn.forward_gflops", "GFLOP/s", "higher", _NN, "latency_ms_p50"),
    ("nn.forward_weight_gbps", "GB/s", "higher", _NN, "latency_ms_p50"),
    ("nn.flop_per_sample", "count", "lower", _NN, "latency_ms_p50"),
    ("nn.weight_bytes_per_forward", "B", "lower", _NN, "latency_ms_p50, peak_rss_mb"),
    ("serve.queue_wait_ms", "ms", "lower", _SERVED, "latency_ms_p50, latency_ms_tail"),
    ("serve.batch_wait_ms", "ms", "lower", _SERVED, "latency_ms_p50"),
    ("serve.assemble_ms", "ms", "lower", _SERVED, "latency_ms_p50"),
    ("serve.batch_forward_ms", "ms", "lower", _SERVED, "latency_ms_p50, throughput_per_s"),
    ("serve.self_ms", "ms", "lower", _SERVED, "latency_ms_p50"),
    ("serve.mean_batch", "count", "higher", _SERVED, "throughput_per_s"),
    ("serve.requests", "count", "higher", _SERVED, "throughput_per_s"),
    ("serve.expired", "count", "lower", _SERVED, "throughput_per_s"),
    ("serve.rejected", "count", "lower", _SERVED, "throughput_per_s"),
    ("net.overhead_ms", "ms", "lower", ("wire_int8",), "latency_ms_p50, throughput_per_s"),
    ("net.frames_decoded", "count", "higher", ("wire_int8",), "throughput_per_s"),
    ("net.protocol_errors", "count", "lower", ("wire_int8",), "throughput_per_s"),
    ("core.step_other_ms", "ms", "lower", _PIC, "latency_ms_p50"),
    ("trace.op_ms", "ms", "lower", _ALL, "none (traced run only)"),
    ("trace.overhead_ms", "ms", "lower", _ALL, "none (traced run only)"),
)


# The tail is read at one fixed percentile per workload so that runs of
# different speed stay comparable: the highest of p50/p90/p99 that leaves at
# least MIN_BEYOND samples beyond it in every window at this benchmark's
# speeds, and that repeats from run to run on a shared host. wire_int8 has
# samples for p99, but its p99 moved 30% between runs with thread scheduling
# on a shared 4-vCPU host; its p90 moved 9%. A window too short for its
# percentile falls back down the ladder rather than read one with fewer
# samples beyond.
TAIL_PERCENTILE = {
    "trad_paper": 99.0,
    "dlpic_f64": 90.0,
    "ensemble8_f64": 90.0,
    "wire_int8": 90.0,
}
LADDER = (99.0, 90.0, 50.0)

# Timings are split, in the order they were taken, into this many windows;
# the tail and the throughput are the median over the windows, so one burst
# of interference from outside the process moves a minority of windows, not
# the run. The step workloads keep 3 so that every window holds enough steps
# for its tail percentile (a trad_paper window needs 1000 for p99); wire_int8
# completes ~5000 requests a second, so its windows are about a second long.
WINDOWS = {
    "trad_paper": 3,
    "dlpic_f64": 3,
    "ensemble8_f64": 3,
    "wire_int8": 15,
}


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of non-empty `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples above the nearest-rank p-th percentile of n distinct samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n, preferred):
    """`preferred`, or the highest lower LADDER percentile that leaves at
    least MIN_BEYOND of n samples beyond it."""
    for p in (preferred,) + tuple(q for q in LADDER if q < preferred):
        if beyond(n, p) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples leave fewer than {MIN_BEYOND} beyond any percentile")


def windows(values, k):
    """`values` split in order into k contiguous, nearly equal windows."""
    if len(values) < k:
        raise ValueError(f"{len(values)} samples cannot fill {k} windows")
    bounds = [round(i * len(values) / k) for i in range(k + 1)]
    return [values[bounds[i]:bounds[i + 1]] for i in range(k)]


def tail(values, preferred, k):
    """Median over k windows of each window's tail percentile.

    Returns (value, percentile, samples per window).
    """
    parts = windows(values, k)
    p = min(tail_percentile(len(w), preferred) for w in parts)
    return statistics.median(percentile(w, p) for w in parts), p, min(len(w) for w in parts)


def request_throughput(done_s, k):
    """Median over k windows of completions per second; `done_s` holds each
    completion's time, in order, from the moment the window opened."""
    rates = []
    opened = 0.0
    for w in windows(done_s, k):
        rates.append(len(w) / (w[-1] - opened))
        opened = w[-1]
    return statistics.median(rates)


def end_to_end(workload, raw):
    """End-to-end metric values of one untraced run's raw report."""
    ops = raw["op_ms"]
    k = WINDOWS[workload]
    tail_value, _, _ = tail(ops, TAIL_PERCENTILE[workload], k)
    if raw["op"] == "step":
        throughput = statistics.median(
            raw["items_per_op"] * len(w) / (sum(w) / 1000.0) for w in windows(ops, k))
    else:
        throughput = request_throughput(raw["op_done_s"], k)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_ms_p50": statistics.median(ops),
        "latency_ms_tail": tail_value,
        "throughput_per_s": throughput,
        "peak_rss_mb": raw["counters"]["peak_rss_mb"],
    }


def per_layer(workload, raw):
    """Per-layer metric values of one traced run's raw report.

    Raises KeyError when a layer the workload exercises did not report.
    """
    out = {}
    for name, _, _, workloads, _ in PER_LAYER:
        if name in raw["layers"]:
            out[name] = raw["layers"][name]
        elif name in raw["counters"]:
            out[name] = raw["counters"][name]
        elif workload in workloads:
            raise KeyError(f"{workload} did not report {name}")
        else:
            out[name] = 0.0
    return out


def failed_frac(raw):
    return raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0


def units(trace):
    table = PER_LAYER if trace else END_TO_END
    return {row[0]: row[1] for row in table}
