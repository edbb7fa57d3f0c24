#!/usr/bin/env python3
"""Repository benchmark: what a client of `guarded listen` and a user of
the `guarded` CLI see, over four seeded workloads.

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds `guarded` and the harness
(`perfbench/harness`) with dune, writes the seed's inputs under
`.bench_work/`, measures for `--seconds` and prints one JSON object as
the last line of standard output. `--trace 1` runs the in-process traced
replay instead and reports the per-layer metrics. See README.md.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

WORKLOADS = ("serve-read", "serve-churn", "serve-demand", "pipeline")
SETUPS = 8  # server spawns per run, half before the load and half after; setup_s is their median
CATCHUPS = 3  # follower bootstraps per serve-churn run


class BenchError(Exception):
    pass


def log(msg):
    sys.stderr.write("perfbench: %s\n" % msg)


# --------------------------------------------------------------------------
# Build


def build(root):
    for f in ("dune-project", os.path.join("bin", "guarded.ml")):
        if not os.path.exists(os.path.join(root, f)):
            raise BenchError("no %s here: run from the root of a checkout" % f)
    dune = shutil.which("dune")
    if dune is None:
        raise BenchError("dune is not on PATH")
    # The shared dune cache lives outside the checkout; keep the build in it.
    # The harness is its own dune project, built only under this profile.
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(
        [dune, "build", "--root", ".", "--profile", "perfbench",
         "./bin/guarded.exe", "./perfbench/harness/pb.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        raise BenchError("build failed")
    exe = os.path.join(root, "_build", "default")
    return (os.path.join(exe, "bin", "guarded.exe"),
            os.path.join(exe, "perfbench", "harness", "pb.exe"))


# --------------------------------------------------------------------------
# Processes


def run_json(cmd, cwd, timeout=170):
    """Runs a harness command; its last stdout line is a JSON object."""
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=timeout)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        raise BenchError("%s exited %d" % (os.path.basename(cmd[0]) + " " + cmd[1], p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def request(path, payload, cwd, timeout=5.0):
    """One framed request on a fresh Unix-socket connection."""
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(timeout)
    try:
        s.connect(os.path.join(cwd, path))
        data = payload.encode()
        s.sendall(struct.pack(">I", len(data)) + data)
        buf = b""
        while len(buf) < 4 or len(buf) < 4 + struct.unpack(">I", buf[:4])[0]:
            chunk = s.recv(65536)
            if not chunk:
                raise ConnectionError("closed")
            buf += chunk
        return buf[4:4 + struct.unpack(">I", buf[:4])[0]].decode()
    finally:
        s.close()


def stats(path, cwd):
    reply = request(path, "STATS", cwd)
    out = {}
    for line in reply.splitlines()[1:]:
        k, _, v = line.partition(" ")
        out[k] = int(v)
    return out


class Server:
    """A `guarded listen` child; `ready_s` is the time from spawn to its
    first answered request. Servers still running when the benchmark
    exits are stopped by `main`."""

    live = []

    def __init__(self, cmd, cwd, sock, probe, logname):
        self.cwd, self.sock = cwd, sock
        if os.path.exists(os.path.join(cwd, sock)):
            os.remove(os.path.join(cwd, sock))
        self.log = open(os.path.join(cwd, logname), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=self.log)
        Server.live.append(self)
        while True:
            if self.proc.poll() is not None:
                self.log.close()
                raise BenchError("%s exited %d at start-up (see %s)"
                                 % (" ".join(cmd[1:3]), self.proc.returncode, logname))
            try:
                request(sock, probe, cwd)
                break
            except (FileNotFoundError, ConnectionRefusedError, ConnectionError, socket.timeout):
                if time.perf_counter() - t0 > 120:
                    self.stop()
                    raise BenchError("server did not answer within 120 s")
                time.sleep(0.002)
        self.ready_s = time.perf_counter() - t0

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        if self in Server.live:
            Server.live.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


# --------------------------------------------------------------------------
# Serving workloads


def serve(workload, seed, seconds, guarded, pb, wd):
    extra = ["--demand"] if workload == "serve-demand" else []
    probe = "? r0" if workload == "serve-demand" else "? q"
    cmd = [guarded, "listen", "theory.rules", "db.db", "--socket", "p.sock"] + extra
    setups = []

    def spawn_setups(n):
        # the host's speed drifts over tens of seconds, so the spawns are
        # spread over the run rather than bunched at its start
        for _ in range(n):
            s = Server(cmd, wd, "p.sock", probe, "primary.log")
            setups.append(s.ready_s)
            s.stop()

    spawn_setups(SETUPS // 2 - 1)
    server = Server(cmd, wd, "p.sock", probe, "primary.log")
    setups.append(server.ready_s)
    extra_metrics, correct = {}, True
    try:
        out = run_json([pb, "client", "--workload", workload, "--seed", str(seed),
                        "--socket", "p.sock", "--seconds", str(seconds)], wd)
        correct = out["correct"]
        rss = server.peak_rss_mb()
        if workload == "serve-churn":
            epoch = stats("p.sock", wd)["epoch"]
            catchups = []
            for i in range(CATCHUPS):
                # no DATABASE: the follower bootstraps from the primary's
                # wire snapshot, then replays its journal
                f = Server([guarded, "listen", "theory.rules", "--follow", "unix:p.sock",
                            "--socket", "f.sock"], wd, "f.sock", "? q", "follower.log")
                try:
                    t0 = time.perf_counter()
                    while True:
                        st = stats("f.sock", wd)
                        if st["epoch"] == epoch and st["replication_lag_epochs"] == 0:
                            break
                        if time.perf_counter() - t0 > 60:
                            raise BenchError("follower did not catch up within 60 s")
                        time.sleep(0.002)
                    catchups.append(f.ready_s + time.perf_counter() - t0)
                    if i == 0:
                        chk = run_json([pb, "follower", "--primary", "p.sock",
                                        "--follower", "f.sock"], wd)
                        correct = correct and chk["correct"]
                finally:
                    f.stop()
            extra_metrics["follow_catchup_s"] = (statistics.median(catchups), "s")
    finally:
        code = server.stop()
    if code not in (0, -signal.SIGTERM):
        log("server exited %d" % code)
        correct = False
    spawn_setups(SETUPS - len(setups))
    return out, setups, rss, extra_metrics, correct


def verb(out, name):
    return out["verbs"].get(name, {"attempted": 0, "failed": 0, "n": 0})


def serve_metrics(workload, out, setups, rss, extra):
    """The gated metrics, and the wire-verb metrics printed beside them."""
    el = out["elapsed_s"]
    reads, batch = out["reads"], verb(out, "batch")
    # the primary operation: a commit batch on serve-churn, else a `?`
    # point read (its median; the throughput counts every read)
    primary, done = (batch, batch) if workload == "serve-churn" else (verb(out, "query"), reads)
    if "p50_us" not in primary:
        raise BenchError("no successful primary operation")
    gated = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_us": (primary["p50_us"], "us"),
        "ops_per_s": (done["rate_per_s"], "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    shown = {}
    for name, v in (("query", verb(out, "query")), ("cq", verb(out, "cq"))):
        for q in ("p50", "p99"):
            if q + "_us" in v:
                shown["%s_%s_us" % (name, q)] = (v[q + "_us"], "us")
    shown["reads_per_s"] = (reads["n"] / el, "req/s")
    for q in ("p50", "p95"):
        if q + "_us" in batch:
            shown["commit_%s_ms" % q] = (batch[q + "_us"] / 1000.0, "ms")
    shown["commits_per_s"] = (batch["n"] / el, "commit/s")
    if out["load_facts"] > 0:
        shown["load_facts_per_s"] = (out["load_facts"] / out["load_s"], "fact/s")
    shown.update(extra)
    shown["server_rss_mb"] = (rss, "MB")
    return gated, shown


# --------------------------------------------------------------------------
# pipeline: the CLI over the generated corpus


def wait_child(proc, timeout):
    """Waits for a CLI child (killed after `timeout` seconds); returns its
    resource usage, for its peak resident set."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru


def cli_commands(guarded, corpus):
    for c in corpus:
        if c["cmd"] == "translate":
            yield c, "translate", [guarded, "translate", c["file"], "--target", c["target"]]
        elif c["cmd"] == "analyze":
            yield c, "analyze", [guarded, "analyze", c["file"]]
        else:
            yield c, "answer", [guarded, "answer", c["file"], c["db"], "--query", c["query"],
                                "--budget", str(c["budget"])]


def pipeline(seed, seconds, guarded, pb, wd):
    corpus = [json.loads(l) for l in open(os.path.join(wd, "corpus.jsonl"))]
    os.makedirs(os.path.join(wd, "out"), exist_ok=True)
    # wall times per command (and per `classify` set-up) across passes
    times, setup, passes, rss = {}, {}, 0, 0.0
    ops = {}  # per CLI command: [attempted, failed]

    def count(kind, returncode):
        o = ops.setdefault(kind, [0, 0])
        o[0] += 1
        o[1] += returncode != 0
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        # set-up: every pipeline command first starts, parses and
        # classifies its theory; `guarded classify` does just that
        for c in corpus:
            ts = time.perf_counter()
            p = subprocess.run([guarded, "classify", c["file"]], cwd=wd,
                               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            setup.setdefault(c["name"], []).append(time.perf_counter() - ts)
            count("classify", p.returncode)
        for c, kind, cmd in cli_commands(guarded, corpus):
            outname = os.path.join("out", c["name"] + ".out")
            with open(os.path.join(wd, outname), "w") as out:
                ts = time.perf_counter()
                p = subprocess.Popen(cmd, cwd=wd, stdout=out, stderr=subprocess.DEVNULL)
                ru = wait_child(p, 120)
                dt = time.perf_counter() - ts
            count(kind, p.returncode)
            rss = max(rss, ru.ru_maxrss / 1024.0)
            if p.returncode != 0:
                log("%s exited %s" % (" ".join(cmd[1:3]), p.returncode))
            times.setdefault((kind, c["name"]), []).append(dt)
            if not passes:
                # keep the first pass's outputs for the checks
                shutil.copy(os.path.join(wd, outname), os.path.join(wd, outname + ".first"))
        passes += 1
    elapsed = time.perf_counter() - t0
    for c in corpus:
        p = os.path.join(wd, "out", c["name"] + ".out")
        shutil.move(p + ".first", p)
    chk = run_json([pb, "pipeline-check", "--seed", str(seed), "--dir", "."], wd)
    # each command's median over the passes, summed over the corpus
    med = {key: statistics.median(v) for key, v in times.items()}
    per_kind = {}
    for (kind, _), v in med.items():
        per_kind[kind] = per_kind.get(kind, 0.0) + v
    gated = {
        "setup_s": (sum(statistics.median(v) for v in setup.values()), "s"),
        "op_p50_us": (sum(med.values()) * 1e6, "us"),
        "ops_per_s": (passes * len(corpus) / elapsed, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    shown = {"%s_s" % k: (v, "s") for k, v in per_kind.items()}
    shown["corpus_passes"] = (passes, "count")
    return gated, shown, ops, chk["correct"]


# --------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    # a SIGTERM unwinds like an error, so every child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        guarded, pb = build(root)
        # Measure on one CPU (children inherit it): a wake-up sent to an
        # idle virtual CPU costs a variable, host-dependent delay, and a
        # request crosses threads and processes several times. The server
        # is one OCaml domain, so one CPU costs it little.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        wd = os.path.join(root, ".bench_work", "%s-%d" % (a.workload, a.seed))
        shutil.rmtree(wd, ignore_errors=True)
        os.makedirs(wd)
        if a.trace:
            # the traced replay covers every workload's inputs, whichever
            # --workload names
            out = run_json([pb, "trace", "--seed", str(a.seed), "--seconds", str(a.seconds),
                            "--out", "trace.jsonl"], wd)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
            result = {"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}
        else:
            subprocess.run([pb, "gen", "--workload", a.workload, "--seed", str(a.seed),
                            "--dir", "."], cwd=wd, check=True, stdout=subprocess.DEVNULL)
            if a.workload == "pipeline":
                gated, shown, ops, correct = pipeline(a.seed, a.seconds, guarded, pb, wd)
            else:
                out, setups, rss, extra, correct = serve(a.workload, a.seed, a.seconds,
                                                         guarded, pb, wd)
                gated, shown = serve_metrics(a.workload, out, setups, rss, extra)
                # a batch is counted by its frames' verbs, so not again
                ops = {k: (v["attempted"], v["failed"]) for k, v in out["verbs"].items()
                       if k != "batch"}
            for k, (att, fail) in sorted(ops.items()):
                print("op %-9s attempted %d failed %d" % (k, att, fail))
            attempted = sum(att for att, _ in ops.values())
            failed = sum(fail for _, fail in ops.values())
            for k, (v, u) in sorted(shown.items()):
                print("metric %-18s %14.3f %s" % (k, v, u))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}
            result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        sys.exit(2)
    finally:
        for s in list(Server.live):
            s.stop()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
