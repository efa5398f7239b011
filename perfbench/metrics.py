"""The benchmark's arithmetic: percentiles, CPU accounting, stage sums,
failure counting and span self times.

Kept apart from run.py, which drives the processes, so that
test_metrics.py can check every formula on fixed inputs.
"""

import math
import os

# Candidate percentiles for the tail, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest rank of the p-th percentile among n samples (the
    small slack keeps 99.9% of 10000 at rank 9990 despite rounding)."""
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it. Failed operations enter as +inf, so they
    count as missing any latency limit."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - rank(n, p)


def tail(values, min_beyond=MIN_BEYOND):
    """The highest candidate percentile with at least `min_beyond`
    samples beyond it, as (percentile, value, sample count). None when
    even the median has fewer."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n and beyond(n, p) >= min_beyond:
            return p, percentile(values, p), n
    return None


def median(values):
    return percentile(values, 50.0)


def parse_proc_stat(text):
    """(utime, stime) in clock ticks from the text of /proc/<pid>/stat.
    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]), int(rest[12])


def parse_schedstat(text):
    """Nanoseconds on the CPU from the text of /proc/<pid>/task/<tid>/schedstat
    (its first field)."""
    return int(text.split()[0])


def cpu_seconds(pid):
    """CPU time of a running process, read from outside it: the sum of
    its threads' nanosecond run times in /proc/<pid>/task/*/schedstat.
    /proc/<pid>/stat counts only whole clock ticks (10 ms), which in a
    window of a few seconds is several percent of the daemon's CPU, so
    it is the fallback for kernels without schedstat. Only threads alive
    now are counted, which is the whole process while the benchmark's
    programs run: they start every thread before timing begins."""
    if not os.path.exists("/proc/%d/schedstat" % pid):
        with open("/proc/%d/stat" % pid) as f:
            utime, stime = parse_proc_stat(f.read())
        return (utime + stime) / os.sysconf("SC_CLK_TCK")
    total = 0
    for tid in os.listdir("/proc/%d/task" % pid):
        try:
            with open("/proc/%d/task/%s/schedstat" % (pid, tid)) as f:
                total += parse_schedstat(f.read())
        except (FileNotFoundError, ProcessLookupError):
            pass  # the thread ended while the directory was read
    return total / 1e9


def parse_host_cpu(text):
    """(busy, stolen) clock ticks of all CPUs from the text of /proc/stat.
    Stolen ticks are those in which a virtual machine's CPU had work but
    the hypervisor ran something else; busy counts them too."""
    fields = [int(x) for x in text.splitlines()[0].split()[1:]]
    idle, iowait, steal = fields[3], fields[4], fields[7] if len(fields) > 7 else 0
    return sum(fields[:8]) - idle - iowait, steal


def host_cpu():
    with open("/proc/stat") as f:
        return parse_host_cpu(f.read())


def peak_rss_kb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError("no VmHWM for pid %d" % pid)


def per_op(total, ops):
    """A total spread over operations; 0 when nothing ran."""
    return total / ops if ops else 0.0


def failed_ratio(outcomes):
    """Failed operations over attempted ones. An outcome is "ok" or a
    failure cause (wrong plaintext, rejected update, false batch,
    timeout, eviction, unexpected miss): anything but "ok" fails."""
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o != "ok")
    return (failed / attempted if attempted else 0.0), attempted, failed


def latencies_with_failures(samples):
    """Latency samples from (outcome, seconds) pairs, a failure counting
    as +inf so that it misses every latency limit."""
    return [s if o == "ok" else math.inf for o, s in samples]


def stage_sum_ratio(stages, end_to_end_p50):
    """Sum of the stage medians over the end-to-end median. `stages`
    maps each consecutive stage to its samples."""
    if end_to_end_p50 <= 0:
        return 0.0
    return sum(median(v) for v in stages.values() if v) / end_to_end_p50


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover. `spans` is a list of dicts with id, parent, t0
    and t1 (ids unique within the list). Returns {id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        end = s["t0"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["t0"]):
            lo, hi = max(c["t0"], end, s["t0"]), min(c["t1"], s["t1"])
            if hi > lo:
                covered += hi - lo
                end = hi
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out

