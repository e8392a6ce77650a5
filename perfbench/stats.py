"""Statistics, metric names and the result line of the benchmark.

Kept free of I/O so test_stats.py can check every rule on its own.
"""

import json
import math
import re
import statistics

# A metric name as the benchmark contract allows it.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# A percentile is only reported when at least this many samples lie
# beyond it; below that it says more about one outlier than about a tail.
MIN_BEYOND = 10

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as
    statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two samples")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, q):
    """Nearest-rank q-th percentile, or None unless at least MIN_BEYOND
    samples rank above it."""
    if not 0 < q < 100:
        raise ValueError("percentile must lie strictly between 0 and 100")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)  # 1-based rank of the percentile
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def valid_name(name):
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.fullmatch(unit) is not None


def format_result(correct, attempted, failed, metrics):
    """The one-line result: metrics maps name -> (value, unit)."""
    if not isinstance(attempted, int) or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(failed, int) or not 0 <= failed <= attempted:
        raise ValueError("failed must be a whole number in [0, attempted]")
    out = {}
    for name, (value, unit) in metrics.items():
        if not valid_name(name):
            raise ValueError("bad metric name %r" % name)
        if not valid_unit(unit):
            raise ValueError("bad unit %r for %s" % (unit, name))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number: %r"
                             % (name, value))
        out[name] = {"value": float(value), "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": attempted,
                       "failed": failed, "metrics": out})


def parse_result(line):
    """Parses and validates a result line; inverse of format_result."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or tuple(sorted(doc)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    metrics = {}
    for name, entry in doc["metrics"].items():
        if set(entry) != {"value", "unit"}:
            raise ValueError("metric %s needs exactly value and unit" % name)
        metrics[name] = (entry["value"], entry["unit"])
    # Re-formatting validates every field.
    format_result(doc["correct"], doc["attempted"], doc["failed"], metrics)
    return doc["correct"], doc["attempted"], doc["failed"], metrics
