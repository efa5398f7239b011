#!/usr/bin/env python3
"""Benchmark of the networked passive time server, end to end.

    python3 perfbench/run.py --workload live|catchup --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark's two
programs (perfbench/daemon.ml, perfbench/client.ml) with dune, then, for
one workload:

  1. sets up a fresh daemon process and a fresh client process on a fresh
     socket path, several times, and reports the median set-up time;
  2. on the last set-up, runs a warm-up that is discarded, then measures
     for --seconds seconds (with --trace 1: half untraced, half traced);
  3. checks every output (see README.md) and prints one JSON line with a
     full report, then the result line: correct, attempted, failed and
     the metrics (end-to-end ones with --trace 0, per-layer ones with
     --trace 1).

The daemon and the clients never share a process. The daemon receives
only key material and a tick schedule derived from --seed.
"""

import argparse
import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics as M  # noqa: E402

WORKLOADS = ("live", "catchup")
PERIOD_S = 0.03  # live tick rate: 33.3 epochs/s
WARMUP_S = 1.0
# An untimed run is measured as this many consecutive sub-windows of
# equal length, and each end-to-end metric is the median of its
# sub-window values, so slow spells of the host that cover less than
# half of a run do not move the result. At --seconds 51 a sub-window
# lasts 5.1 s and holds about sixteen batch verifications per walker, so
# a batch whose CPU falls in the window after its lookups changes a
# window's CPU by little.
SUBWINDOWS = 10
# Set-up is timed SETUPS_BEFORE times before the measured window (the
# last of them runs the workload) and SETUPS_AFTER times after it, each
# with fresh processes, and setup_s is the median of all of them. One
# set-up takes about 0.08 s and the host's speed swings by up to 1.7x in
# spells from a fraction of a second up; samples from both ends of the
# run keep one short spell from setting the median.
SETUPS_BEFORE = 13
SETUPS_AFTER = 12
RUN_DIR = ".perfbench_run"
DAEMON = "_build/default/perfbench/daemon.exe"
CLIENT = "_build/default/perfbench/client.exe"
SOURCES = ("lib", "bin", "perfbench")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "ops_per_s": "1/s",
    "server_cpu_ms_per_op": "ms",
    "client_cpu_ms_per_op": "ms",
    "server_rss_mb": "MB",
}

PER_LAYER = {
    "latency.p95_ms": "ms",
    "net_server.tick_us_p50": "us",
    "net_server.tick_us_p99": "us",
    "net_server.tick_late_ms_p99": "ms",
    "net_server.updates_encoded_per_op": "count",
    "net_server.archive_hit_ratio": "ratio",
    "net_server.send_syscalls_per_epoch": "count",
    "net_server.frames_per_send": "count",
    "net_server.poll_wakeups_per_op": "count",
    "net_server.bytes_sent_per_op": "bytes",
    "net_server.queue_bytes_peak": "bytes",
    "net_server.slow_disconnects": "count",
    "net_server.protocol_errors": "count",
    "wire.wait_us_p50": "us",
    "frame.decode_us_p50": "us",
    "tre.update_of_bytes_us_p50": "us",
    "tre.verify_update_us_p50": "us",
    "tre.verify_updates_us_per_update": "us",
    "tre.decrypt_us_p50": "us",
    "tre.encrypt_us_p50": "us",
    "archive.server_us_p50": "us",
    "archive.rtt_ms_p50": "ms",
    "client.alloc_words_per_op": "words",
    "pairing.hash_to_g1_us": "us",
    "curve.mul_us": "us",
    "pairing.check_product_one_us": "us",
    "pairing.final_exponentiation_us": "us",
    "curve.msm_us_per_term": "us",
    "fp.mul_ns": "ns",
    "trace.stage_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# The consecutive stages whose medians should add up to the untraced
# latency_p50_ms. A delivery's (live): due -> tick start (generator lag),
# tick start -> the daemon's send stamp (sign and encode once), send
# stamp -> update readable at the client (fan-out, writev, socket, client
# poll), then the client's own calls.
DELIVER_STAGES = ("due_to_tick", "tick.sign_encode", "wire.wait", "frame.decode",
                  "tre.update_of_bytes", "tre.verify_update", "tre.decrypt")
# A lookup's (catchup): write, query written -> reply readable, framing,
# decode.
LOOKUP_STAGES = ("net.write", "archive.server", "frame.decode", "tre.update_of_bytes")


class BenchError(Exception):
    pass


# --------------------------------------------------------------- processes

class Proc:
    """A child speaking the line protocol: commands on stdin, one JSON
    report per stdout line."""

    def __init__(self, name, argv):
        self.name = name
        self.p = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.pid = self.p.pid
        self.fd = self.p.stdout.fileno()
        self.buf = b""

    def send(self, cmd):
        try:
            self.p.stdin.write((cmd + "\n").encode())
            self.p.stdin.flush()
        except BrokenPipeError:
            raise BenchError("%s exited (code %s)" % (self.name, self.p.poll()))

    def read(self, timeout):
        deadline = time.monotonic() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("%s: no report within %gs" % (self.name, timeout))
            ready, _, _ = select.select([self.fd], [], [], left)
            if ready:
                chunk = os.read(self.fd, 1 << 20)
                if not chunk:
                    raise BenchError("%s exited (code %s)" % (self.name, self.p.wait()))
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def expect(self, event, timeout):
        ev = self.read(timeout)
        if ev.get("event") != event:
            raise BenchError("%s: expected %s, got %s" % (self.name, event, ev.get("event")))
        return ev

    def hang_up(self):
        """Close stdin: both programs finish and exit on EOF."""
        try:
            self.p.stdin.close()
        except OSError:
            pass

    def reap(self, timeout=10):
        """Wait for the exit, killing the process if it is stuck."""
        try:
            self.p.wait(timeout)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        self.p.stdout.close()


def pid_alive(pid):
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def daemon_cpus():
    """The client domains take the first two allowed CPUs, one each
    (client.ml); the daemon gets the rest, or on a two-CPU host shares
    the first client's, which is idle when a tick is due. Unpinned, the
    scheduler ran the daemon's busy shard sometimes beside one client
    and sometimes beside the other, and the delivery p50 jumped from run
    to run with it."""
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[2:] or allowed[:1])


def pin_threads(pid, cpus):
    """Pin every thread of a running process. Done once the daemon has
    started, so that its default shard count still follows the host's
    core count; threads it starts later inherit the main thread's set."""
    for tid in os.listdir("/proc/%d/task" % pid):
        os.sched_setaffinity(int(tid), cpus)


def check_run_dir():
    """Refuse to start beside a stale socket or a live process of an earlier run."""
    os.makedirs(RUN_DIR, exist_ok=True)
    for f in sorted(os.listdir(RUN_DIR)):
        path = os.path.join(RUN_DIR, f)
        if f.endswith(".sock"):
            raise BenchError("stale socket %s: an earlier run did not finish" % path)
        if f.endswith(".pid"):
            with open(path) as fh:
                pid = int(fh.read().strip() or 0)
            if pid and pid_alive(pid):
                raise BenchError("process %d from an earlier run is still alive (%s)" % (pid, path))
            os.unlink(path)


class Instance:
    """One fresh daemon and one fresh client process on a fresh socket."""

    def __init__(self, workload, seed_inputs, idx):
        self.sock = os.path.join(RUN_DIR, "d%d.sock" % idx)
        self.pidfiles = []
        self.procs = []
        if os.path.exists(self.sock):
            raise BenchError("stale socket %s" % self.sock)
        period = 0 if workload == "catchup" else PERIOD_S
        t0 = time.perf_counter()
        self.daemon = self._spawn("daemon", idx, [
            DAEMON, "--sock", self.sock, "--key", seed_inputs["key"],
            "--first-epoch", str(seed_inputs["first_epoch"]),
            "--period", repr(period)])
        self.daemon_ready = self.daemon.expect("ready", 120)
        pin_threads(self.daemon.pid, daemon_cpus())
        self.client = self._spawn("client", idx, [
            CLIENT, "--sock", self.sock, "--workload", workload,
            "--seed", seed_inputs["client"]])
        self.client_ready = self.client.expect("ready", 120)
        self.setup_s = time.perf_counter() - t0

    def _spawn(self, name, idx, argv):
        p = Proc(name, argv)
        self.procs.append(p)
        pidfile = os.path.join(RUN_DIR, "%s%d.pid" % (name, idx))
        with open(pidfile, "w") as fh:
            fh.write("%d\n" % p.pid)
        self.pidfiles.append(pidfile)
        return p

    def close(self):
        for p in self.procs:
            p.hang_up()
        for p in self.procs:
            p.reap()
        for f in self.pidfiles + [self.sock]:
            if os.path.exists(f):
                os.unlink(f)


# -------------------------------------------------------------- measuring

def seed_inputs(seed):
    rng = random.Random(seed)
    return {
        "key": "perfbench-key-%d-%016x" % (seed, rng.getrandbits(64)),
        "client": "perfbench-client-%d-%016x" % (seed, rng.getrandbits(64)),
        "first_epoch": rng.randrange(10 ** 6, 10 ** 7),
    }


def snapshot(inst):
    """Time, both processes' CPU, the host's busy and stolen CPU, and the
    daemon's counters, now."""
    t = time.time()
    cpu = (M.cpu_seconds(inst.daemon.pid), M.cpu_seconds(inst.client.pid))
    host = M.host_cpu()
    inst.daemon.send("mark")
    mark = inst.daemon.expect("mark", 10)
    return {"t": t, "cpu": cpu, "host": host, "mark": mark}


def window(a, b):
    return {"t0": a["t"], "t1": b["t"],
            "server_cpu_s": b["cpu"][0] - a["cpu"][0],
            "client_cpu_s": b["cpu"][1] - a["cpu"][1],
            "steal_share": M.per_op(b["host"][1] - a["host"][1], b["host"][0] - a["host"][0]),
            "mark0": a["mark"], "mark1": b["mark"]}


def run_workload(inst, seconds, trace):
    d, c = inst.daemon, inst.client
    c.send("start")
    d.send("start")
    time.sleep(WARMUP_S)
    windows = {}
    if trace:
        plan = [("untraced", seconds / 2, 1), ("traced", seconds / 2, 1)]
    else:
        plan = [("untraced", seconds, SUBWINDOWS)]
    for name, length, parts in plan:
        if name == "traced":
            c.send("trace")
        snaps = [snapshot(inst)]
        for _ in range(parts):
            time.sleep(length / parts)
            snaps.append(snapshot(inst))
        windows[name] = [window(a, b) for a, b in zip(snaps, snaps[1:])]
        if name == "traced":
            c.send("untrace")
    rss_kb = M.peak_rss_kb(d.pid)
    d.send("halt")
    ticks = d.expect("ticks", 30)["ticks"]
    time.sleep(0.3)  # let the last broadcast land before the clients stop
    c.send("stop")
    events = []
    while True:
        ev = c.read(60)
        if ev["event"] == "done":
            break
        events.append(ev)
    probe = None
    if trace:
        c.send("probe")
        probe = c.expect("probe", 60)
    c.send("quit")
    d.send("quit")
    final = d.expect("final", 30)
    return {"windows": windows, "ticks": ticks, "client_events": events,
            "probe": probe, "final": final, "server_rss_kb": rss_kb}


# --------------------------------------------------------------- analysis

def collect(raw):
    """Index the clients' records."""
    clients, deliver, lookups, batches, spans, controls = {}, {}, {}, {}, [], None
    for ev in raw["client_events"]:
        kind = ev["event"]
        if kind == "client":
            clients[ev["idx"]] = ev
        elif kind == "deliver":
            deliver[ev["idx"]] = ev["records"]
        elif kind == "lookups":
            lookups[ev["idx"]] = ev["records"]
        elif kind == "batches":
            batches[ev["idx"]] = ev["records"]
        elif kind == "spans":
            for who, sid, name, req, parent, t0, t1 in ev["spans"]:
                spans.append({"who": who, "id": sid, "name": name, "req": req,
                              "parent": parent, "t0": t0, "t1": t1})
        elif kind == "controls":
            controls = ev["controls"]
    return clients, deliver, lookups, batches, spans, controls


def window_ops(workload, w, ticks, clients, deliver, lookups):
    """Outcomes and latencies of the operations due in one window."""
    t0, t1 = w["t0"], w["t1"]
    subs = [i for i, c in clients.items() if c["role"] == "subscriber"]
    by_epoch = {i: {r[0]: r for r in deliver.get(i, [])} for i in subs}
    epochs = [t for t in ticks if t0 <= t[1] < t1]
    outcomes, lat = [], []
    epochs_ok = 0
    for epoch, due, _ts, _te in epochs:
        all_ok = True
        for i in subs:
            r = by_epoch[i].get(epoch)
            outcome = "timeout" if r is None else ("ok" if r[2] else "rejected_or_wrong_plaintext")
            outcomes.append(outcome)
            lat.append((outcome, (r[1] - due) if r else 0.0))
            all_ok = all_ok and outcome == "ok"
        epochs_ok += all_ok
    look = [r for i in lookups for r in lookups[i] if t0 <= r[1] < t1]
    rtt = [(r[3], r[2] - r[1]) for r in look]
    outcomes += [o for o, _ in rtt]
    lookups_ok = sum(1 for o, _ in rtt if o == "ok")
    if workload == "catchup":
        samples = M.latencies_with_failures(rtt)
    else:
        samples = M.latencies_with_failures(lat)
    ops = len(epochs) + len(look)
    return {"epochs": len(epochs), "lookups": len(look), "ops": ops,
            "ops_ok": epochs_ok + lookups_ok, "outcomes": outcomes,
            "latency_s": samples,
            "rtt_s": M.latencies_with_failures(rtt)}


def stats_delta(w):
    a, b = w["mark0"]["stats"], w["mark1"]["stats"]
    return {k: b[k] - a[k] for k in a if k != "shard_conns"}


def checks(raw, clients, deliver, lookups, controls):
    """Every correctness check of the run; returns the failed ones."""
    bad = []
    final = raw["final"]["stats"]
    for i, c in sorted(clients.items()):
        for e in c["errors"]:
            bad.append("client %d: %s" % (i, e))
        if not c["future_refused"]:
            bad.append("client %d: a future label was not refused" % i)
    for i, recs in deliver.items():
        nbad = sum(1 for r in recs if not r[2])
        if nbad:
            bad.append("client %d: %d broadcast updates rejected or opened wrong" % (i, nbad))
    for i, recs in lookups.items():
        nbad = sum(1 for r in recs if r[3] != "ok")
        if nbad:
            bad.append("client %d: %d archive lookups failed" % (i, nbad))
    # Byte-identical frames for the same label, across the two clients.
    frames = {}
    for i in clients:
        seen = {}
        for r in deliver.get(i, []):
            seen[r[0]] = r[3]
        for r in lookups.get(i, []):
            if r[4]:
                seen[r[0]] = r[4]
        frames[i] = seen
    ids = sorted(frames)
    shared = set(frames[ids[0]]) & set(frames[ids[1]])
    diff = [e for e in shared if frames[ids[0]][e] != frames[ids[1]][e]]
    if diff:
        bad.append("%d labels reached the two clients as different bytes" % len(diff))
    if not shared:
        bad.append("the two clients share no label to compare")
    # Encode once: frames built = epochs ticked (the start-up tick
    # included) + archive re-signs. Live fetches nothing. The catchup
    # walkers share their epochs: each is signed once, and once more only
    # if the daemon's frame cache was reset between the two clients'
    # fetches, so the count lies between the distinct epochs fetched and
    # the lookups made.
    ticked = {t[0] for t in raw["ticks"]}
    served = [r[0] for recs in lookups.values() for r in recs if r[3] != "timeout"]
    low = 1 + len(ticked) + len(set(served) - ticked)
    high = 1 + len(ticked) + len(served)
    if not low <= final["updates_encoded"] <= high:
        bad.append("updates_encoded %d outside [%d, %d]: epochs ticked + archive re-signs"
                   % (final["updates_encoded"], low, high))
    placement = raw["windows"]["untraced"][0]["mark0"]["stats"]["shard_conns"]
    if max(placement) > 1:
        bad.append("the two clients share a daemon shard (connections per shard %s)" % placement)
    if final["protocol_errors"]:
        bad.append("protocol_errors = %d" % final["protocol_errors"])
    if final["slow_disconnects"]:
        bad.append("slow_disconnects = %d" % final["slow_disconnects"])
    if controls is None:
        bad.append("negative controls did not run")
    else:
        if not controls["right_update_opens"]:
            bad.append("control: the right update did not open its ciphertext")
        for name, rejected in controls["rejected"].items():
            if not rejected:
                bad.append("negative control %s was accepted" % name)
    if raw["probe"] is not None and not raw["probe"]["equations_hold"]:
        bad.append("probe: a verification equation did not hold")
    return bad


def spans_in(spans, w):
    return [s for s in spans if w["t0"] <= s["t0"] < w["t1"]]


def span_samples(spans, name):
    return [s["t1"] - s["t0"] for s in spans if s["name"] == name]


def deliver_stages(spans, ticks):
    """Per-delivery stage durations, joined with the daemon's tick of
    the same epoch."""
    by_epoch = {t[0]: t for t in ticks}
    stages = {k: [] for k in DELIVER_STAGES}
    for s in spans:
        if s["name"] == "wire.wait":
            t = by_epoch.get(int(s["req"].split("/e")[1]))
            if t is None:
                continue
            _, due, ts, _te = t
            stages["due_to_tick"].append(ts - due)
            stages["tick.sign_encode"].append(s["t0"] - ts)
        if s["name"] in stages:
            stages[s["name"]].append(s["t1"] - s["t0"])
    return stages


def self_time_medians(spans):
    out = {}
    for who in {s["who"] for s in spans}:
        mine = [s for s in spans if s["who"] == who]
        st = M.self_times(mine)
        for s in mine:
            out.setdefault(s["name"], []).append(st[s["id"]])
    return {k: round(M.median(v) * 1e6, 3) for k, v in sorted(out.items())}


def p50_us(xs):
    return M.median(xs) * 1e6 if xs else 0.0


def analyse(workload, raw, setup_times, trace):
    clients, deliver, lookups, batches, spans, controls = collect(raw)
    bad = checks(raw, clients, deliver, lookups, controls)
    ticks = raw["ticks"]
    subs = raw["windows"]["untraced"]
    per = []
    attempted = failed = 0
    lat = []
    for w in subs:
        ops = window_ops(workload, w, ticks, clients, deliver, lookups)
        _, a, f = M.failed_ratio(ops["outcomes"])
        attempted, failed = attempted + a, failed + f
        lat += ops["latency_s"]
        if not ops["latency_s"]:
            raise BenchError("no operation completed in a measured window")
        per.append({
            "latency_p50_ms": M.percentile(ops["latency_s"], 50) * 1e3,
            "ops_per_s": ops["ops_ok"] / (w["t1"] - w["t0"]),
            "server_cpu_ms_per_op": M.per_op(w["server_cpu_s"] * 1e3, ops["ops"]),
            "client_cpu_ms_per_op": M.per_op(w["client_cpu_s"] * 1e3, ops["ops"]),
            "epochs": ops["epochs"], "lookups": ops["lookups"],
            "t0": w["t0"], "t1": w["t1"], "steal_share": w["steal_share"],
        })
    e2e_tail = M.tail(lat)
    deltas = [stats_delta(w) for w in subs]
    report = {
        "window_s": subs[-1]["t1"] - subs[0]["t0"],
        "epochs": sum(p["epochs"] for p in per), "lookups": sum(p["lookups"] for p in per),
        "subwindows": per,
        "steal_share_median": M.median([w["steal_share"] for w in subs]),
        "latency_samples": len(lat),
        "latency_quantiles_ms": {str(p): M.percentile(lat, p) * 1e3 for p in (10, 25, 50, 75, 90, 95, 99)}
        if lat else None,
        "latency_tail": {"percentile": e2e_tail[0], "ms": e2e_tail[1] * 1e3, "samples": e2e_tail[2]}
        if e2e_tail else None,
        "setup_s_each": setup_times, "checks_failed": bad, "controls": controls,
        "server_stats_delta": {k: sum(d[k] for d in deltas) for k in deltas[0]},
    }
    if not trace:
        metrics = {k: M.median([p[k] for p in per]) for k in END_TO_END if k in per[0]}
        metrics["setup_s"] = M.median(setup_times)
        metrics["server_rss_mb"] = raw["server_rss_kb"] / 1024.0
        out = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        return out, report, attempted, failed, not bad and failed == 0
    # Traced run: counts over the untraced half, spans over the traced half.
    (w,) = subs
    (tw,) = raw["windows"]["traced"]
    traced_ops = window_ops(workload, tw, ticks, clients, deliver, lookups)
    _, t_att, t_failed = M.failed_ratio(traced_ops["outcomes"])
    attempted += t_att
    failed += t_failed
    delta = stats_delta(w)
    m0t, m1t = w["mark0"]["t"], w["mark1"]["t"]
    win_ticks = [t for t in ticks if m0t <= t[2] < m1t]
    resigns = max(0, delta["updates_encoded"] - len(win_ticks))
    tick_us = [(t[3] - t[2]) * 1e6 for t in ticks if w["t0"] <= t[1] < w["t1"]]
    late_ms = [(t[2] - t[1]) * 1e3 for t in ticks if w["t0"] <= t[1] < w["t1"]]
    sp = spans_in(spans, tw)
    untraced_p50 = M.median(lat) if lat else 0.0
    traced_p50 = M.median(traced_ops["latency_s"]) if traced_ops["latency_s"] else 0.0
    if workload == "catchup":
        stages = {k: span_samples(sp, k) for k in LOOKUP_STAGES}
    else:
        stages = deliver_stages(sp, ticks)
    tw_batches = [b for i in batches for b in batches[i] if tw["t0"] <= b[0] < tw["t1"]]
    total_ops = sum(c["ops"] for c in clients.values())
    total_words = sum(c["alloc_words"] for c in clients.values())
    probe = raw["probe"]
    metrics = {
        # The tail, kept out of the end-to-end gate: on the reference
        # host its run-to-run spread exceeded any allowed bound.
        "latency.p95_ms": M.percentile(lat, 95) * 1e3,
        "net_server.tick_us_p50": M.percentile(tick_us, 50) if tick_us else 0.0,
        "net_server.tick_us_p99": M.percentile(tick_us, 99) if tick_us else 0.0,
        "net_server.tick_late_ms_p99": M.percentile(late_ms, 99) if late_ms else 0.0,
        "net_server.updates_encoded_per_op": M.per_op(delta["updates_encoded"], ops["ops"]),
        "net_server.archive_hit_ratio":
            max(0.0, M.per_op(delta["archive_hits"] - resigns, delta["archive_hits"])),
        "net_server.send_syscalls_per_epoch": M.per_op(delta["send_syscalls"], len(win_ticks)),
        "net_server.frames_per_send": M.per_op(delta["frames_sent"], delta["send_syscalls"]),
        "net_server.poll_wakeups_per_op": M.per_op(delta["poll_wakeups"], ops["ops"]),
        "net_server.bytes_sent_per_op": M.per_op(delta["bytes_sent"], ops["ops"]),
        "net_server.queue_bytes_peak": raw["final"]["stats"]["queue_bytes_peak"],
        "net_server.slow_disconnects": raw["final"]["stats"]["slow_disconnects"],
        "net_server.protocol_errors": raw["final"]["stats"]["protocol_errors"],
        "wire.wait_us_p50": p50_us(stages.get("wire.wait", [])),
        "frame.decode_us_p50": p50_us(span_samples(sp, "frame.decode")),
        "tre.update_of_bytes_us_p50": p50_us(span_samples(sp, "tre.update_of_bytes")),
        "tre.verify_update_us_p50": p50_us(span_samples(sp, "tre.verify_update")),
        "tre.verify_updates_us_per_update":
            M.median([(b[1] - b[0]) / b[2] for b in tw_batches]) * 1e6 if tw_batches else 0.0,
        "tre.decrypt_us_p50": p50_us(span_samples(sp, "tre.decrypt")),
        "tre.encrypt_us_p50": p50_us(span_samples(sp, "tre.encrypt")),
        "archive.server_us_p50": p50_us(span_samples(sp, "archive.server")),
        "archive.rtt_ms_p50": M.percentile(ops["rtt_s"], 50) * 1e3 if ops["rtt_s"] else 0.0,
        "client.alloc_words_per_op": M.per_op(total_words, total_ops),
        "trace.stage_sum_ratio": M.stage_sum_ratio(stages, untraced_p50),
        "trace.overhead_ratio": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
    }
    for k in ("pairing.hash_to_g1_us", "curve.mul_us", "pairing.check_product_one_us",
              "pairing.final_exponentiation_us", "curve.msm_us_per_term", "fp.mul_ns"):
        metrics[k] = probe[k]
    report["stage_p50_us"] = {k: p50_us(v) for k, v in stages.items()}
    report["stage_p99_us"] = {k: M.percentile(v, 99) * 1e6 for k, v in stages.items() if v}
    report["untraced_latency_p50_ms"] = untraced_p50 * 1e3
    report["traced_latency_p50_ms"] = traced_p50 * 1e3
    report["self_time_p50_us"] = self_time_medians(sp)
    out = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()}
    return out, report, attempted, failed, not bad and failed == 0


# -------------------------------------------------------------- fingerprint

def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        for root, dirs, files in sorted(os.walk(top)):
            dirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".c", ".py")) or f in ("dune", "dune-project"):
                    path = os.path.join(root, f)
                    h.update(path.encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def fingerprint(args, ready, client_ready):
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "ocaml": ready["ocaml"], "poller_backend": ready["backend"],
        "vectored": ready["vectored"], "shards": ready["shards"], "params": ready["params"],
        "client_roles": client_ready["roles"], "client_cpus": client_ready["cpus"],
        "daemon_cpus": sorted(daemon_cpus()),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
    }


# ------------------------------------------------------------------ main

def build():
    r = subprocess.run(["dune", "build", "--root", ".", "./perfbench/daemon.exe",
                        "./perfbench/client.exe"],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        raise BenchError("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib/net")):
        raise BenchError("run from the root of a source checkout (no dune-project or lib/net here)")
    build()
    check_run_dir()
    inputs = seed_inputs(args.seed)
    instances = []
    setup_times = []

    def set_up():
        inst = Instance(args.workload, inputs, len(instances))
        instances.append(inst)
        setup_times.append(inst.setup_s)
        return inst

    try:
        before, after = (SETUPS_BEFORE, SETUPS_AFTER) if not args.trace else (1, 0)
        for _ in range(before - 1):
            set_up().close()
        inst = set_up()
        raw = run_workload(inst, args.seconds, bool(args.trace))
        ready, client_ready = inst.daemon_ready, inst.client_ready
        inst.close()
        for _ in range(after):
            set_up().close()
    finally:
        for inst in instances:
            inst.close()
    metrics, report, attempted, failed, correct = analyse(args.workload, raw, setup_times,
                                                          bool(args.trace))
    report["fingerprint"] = fingerprint(args, ready, client_ready)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _terminate(signum, _frame):
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        main()
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
