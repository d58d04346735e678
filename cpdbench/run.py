#!/usr/bin/env python3
"""The system benchmark: train, serve, ingest and reload, end to end.

Run from the root of a checkout:

    python3 cpdbench/run.py --workload serve --seed 1 --seconds 15 --trace 0

It builds the `cpd` library, `cpd_serve` and the benchmark driver from the
checkout's sources into .bench_build/, makes the workload's inputs from the
seed under .bench_work/, runs the workload against the real program, checks
its outputs, and prints one JSON result line last on stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer ones, from a pass of every workload (and writes each pass's spans
to .bench_work/traces/<workload>.spans.json).
--selftest builds and runs the benchmark's own tests instead. See README.md.
"""

import argparse
import ctypes
import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

START = time.monotonic()
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("train", "serve", "ingest", "reload")

# Input sizes live in the driver (src/); only the EM iterations differ
# between its calls.
TRAIN_ITERS = 10            # EM iterations of the train workload
SERVE_MODEL_ITERS = 3       # EM iterations of the model serve/ingest load

_children = []


class Failure(Exception):
    """A step of the run could not be carried out (not a failed check)."""


def log(message):
    print("cpdbench: " + message, file=sys.stderr, flush=True)


def _die_with_parent():
    # Children receive SIGTERM if this process dies without cleaning up.
    try:
        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def spawn(cmd, **kwargs):
    proc = subprocess.Popen(cmd, preexec_fn=_die_with_parent, **kwargs)
    _children.append(proc)
    return proc


def stop_all():
    """Stops and reaps every child, newest first."""
    while _children:
        proc = _children.pop()
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def _on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def check_sources():
    missing = [name for name in ("CMakeLists.txt", "src", os.path.join("tools", "cpd_serve.cc"))
               if not os.path.exists(os.path.join(ROOT, name))]
    if missing:
        log("the program's sources are missing from %s: %s (the benchmark builds "
            "cpd_serve and links the cpd library from them)" % (ROOT, ", ".join(missing)))
        sys.exit(2)


def run_step(cmd, timeout, capture=False):
    """Runs a child to completion; returns its stdout when captured.

    The child is reaped by a blocking wait, and a timer kills it when it
    overruns: a wait with a timeout polls at up to 50 ms, too coarse for
    setup_s.
    """
    proc = spawn(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                 stderr=sys.stderr, cwd=ROOT)
    start = time.monotonic()
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc in _children and proc.poll() is not None:
            _children.remove(proc)
    if proc.returncode == -signal.SIGKILL and time.monotonic() - start >= timeout:
        raise Failure("%s did not finish in %d s" % (os.path.basename(cmd[0]), timeout))
    if proc.returncode != 0:
        raise Failure("%s exited with %d" % (" ".join(cmd[:2]), proc.returncode))
    return out.decode() if capture else None


def build(targets):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], 600)
    run_step(["cmake", "--build", BUILD, "--target"] + targets + ["-j", jobs], 900)


def driver(*args):
    return [os.path.join(BUILD, "cpdbench")] + [str(a) for a in args]


def result_of(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise Failure("the driver printed no result")
    return json.loads(lines[-1])


class Server:
    """cpd_serve as its own process on a kernel-chosen free port."""

    def __init__(self, work, model, extra=()):
        self.log_path = os.path.join(work, "cpd_serve.log")
        self.log = open(self.log_path, "wb")
        start = time.monotonic()
        self.proc = spawn([os.path.join(BUILD, "cpd", "cpd_serve"), "--model", model,
                           "--port", "0"] + list(extra),
                          stdout=self.log, stderr=subprocess.STDOUT, cwd=ROOT)
        self.port = self._wait_port(start + 120)
        self._wait_healthy(start + 120)
        self.startup_s = time.monotonic() - start

    def _wait_port(self, deadline):
        pattern = re.compile(rb"listening on [0-9.]+:(\d+)")
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise Failure("cpd_serve exited with %d during start-up" % self.proc.returncode)
            with open(self.log_path, "rb") as f:
                match = pattern.search(f.read())
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        raise Failure("cpd_serve did not start listening")

    def _wait_healthy(self, deadline):
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    return
                conn.close()
            except OSError:
                pass
            time.sleep(0.005)
        raise Failure("cpd_serve never answered /healthz with 200")

    def stop(self):
        """Stops and reaps the server; False when it had not ended cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc in _children:
            _children.remove(self.proc)
        self.log.close()
        if self.proc.returncode in (0, -signal.SIGTERM):
            return True
        with open(self.log_path, "rb") as f:
            tail = f.read()[-2000:].decode(errors="replace")
        log("cpd_serve ended with %d; its log ends:\n%s" % (self.proc.returncode, tail))
        return False


def graph_setup(work, seed, model):
    """Planted graph, plus (for serve/ingest) a quickly trained model."""
    run_step(driver("prepare-graph", "--dir", work, "--seed", seed), 300)
    if model:
        run_step(driver("train", "--dir", work, "--iters", SERVE_MODEL_ITERS, "--seconds", 0,
                        "--dense", os.path.join(work, "model.dense")), 300, capture=True)


def quartet(work):
    # One planted home community per user, one per line.
    with open(os.path.join(work, "truth.tsv")) as f:
        users = sum(1 for _ in f)
    return ["--users", str(users), "--docs", os.path.join(work, "docs.tsv"),
            "--friends", os.path.join(work, "friends.tsv"),
            "--diffusion", os.path.join(work, "diffusion.tsv")]


# The manifest's end-to-end metrics are the same on every workload; each
# stands for one of the workload's own figures (driver name, scale).
END_TO_END = {
    "train": {"op_p50_ms": ("train_s", 1e3), "throughput_per_s": ("train_tokens_per_s", 1.0),
              "rss_mb": ("train_peak_rss_mb", 1.0)},
    "serve": {"op_p50_ms": ("query_p50_us", 1e-3), "throughput_per_s": ("query_qps", 1.0),
              "rss_mb": ("serve_anon_rss_mb", 1.0)},
    "ingest": {"op_p50_ms": ("ingest_batch_ms", 1.0),
               "throughput_per_s": ("ingest_users_per_s", 1.0),
               "rss_mb": ("ingest_anon_rss_mb", 1.0)},
    "reload": {"op_p50_ms": ("reload_ms", 1.0), "throughput_per_s": ("reloads_per_s", 1.0),
               "rss_mb": ("server_anon_rss_mb", 1.0)},
}


def manifest_metrics(key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[key]}


def run_pass(workload, args, work, seconds, trace_out, extra=()):
    """Sets up and runs one workload; returns the driver's result and the
    time.monotonic() at which its set-up ended."""
    traced = ["--trace", args.trace] + (["--trace_out", trace_out] if args.trace else [])
    common = ["--dir", work, "--seed", args.seed, "--seconds", seconds] + traced + list(extra)
    timeout = seconds + 150
    server = None
    try:
        if workload == "train":
            graph_setup(work, args.seed, model=False)
            setup_end = time.monotonic()
            out = run_step(driver("train", "--iters", TRAIN_ITERS, "--check", 1, *common),
                           timeout, capture=True)
        elif workload in ("serve", "ingest"):
            graph_setup(work, args.seed, model=True)
            server = Server(work, os.path.join(work, "model.cpdb"), quartet(work))
            setup_end = time.monotonic()
            out = run_step(driver(workload, "--port", server.port, "--pid", server.proc.pid,
                                  *common), timeout, capture=True)
        else:
            run_step(driver("prepare-reload", "--dir", work, "--seed", args.seed), 300)
            server = Server(work, os.path.join(work, "a.cpdb"))
            setup_end = time.monotonic()
            out = run_step(driver("reload", "--port", server.port, "--pid", server.proc.pid,
                                  *common), timeout, capture=True)
        result = result_of(out)
        metrics = result["metrics"]
        if server is not None:
            metrics["server.startup_s"] = {"value": server.startup_s, "unit": "s"}
            if not server.stop():
                result["correct"] = False
    finally:
        stop_all()  # newest first: the client, then the server
    return result, setup_end


def run_workload(args, work_of, trace_dir, build_s):
    """Untraced: the workload, reported as the manifest's end-to-end metrics.

    Traced: every workload's pass, named workload first, because the
    manifest's per-layer metrics are the same on every workload and each
    layer is exercised by one of them. attempted and failed are the named
    workload's, so their share is that of its untraced runs; a failed
    check in any pass makes the run incorrect.
    """
    if not args.trace:
        # setup_s runs from the process's start to the end of the set-up,
        # less the build (or cmake's up-to-date check), which is not the
        # program's work.
        result, setup_end = run_pass(args.workload, args, work_of(args.workload),
                                     args.seconds, None)
        setup_s = setup_end - START - build_s
        wanted = manifest_metrics("end_to_end")
        figures = result["metrics"]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for name, (figure, scale) in END_TO_END[args.workload].items():
            if figure in figures:
                metrics[name] = {"value": figures[figure]["value"] * scale, "unit": wanted[name]}
    else:
        # Each pass measures half the run, so the four stay well within
        # the time one run may take.
        seconds = max(2, args.seconds // 2)
        result, _ = run_pass(args.workload, args, work_of(args.workload), seconds,
                             os.path.join(trace_dir, args.workload + ".spans.json"))
        metrics = result["metrics"]
        for workload in WORKLOADS:
            if workload == args.workload:
                continue
            # Only the reload workload's own runs make its fault reads,
            # which fail by design.
            one, _ = run_pass(workload, args, work_of(workload), seconds,
                              os.path.join(trace_dir, workload + ".spans.json"),
                              ["--fault_step", 0] if workload == "reload" else [])
            result["correct"] = result["correct"] and one["correct"]
            for name, metric in one["metrics"].items():
                metrics.setdefault(name, metric)
        wanted = manifest_metrics("per_layer")
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise Failure("no figure for %s" % ", ".join(missing))
    for name, unit in wanted.items():
        if metrics[name]["unit"] != unit:
            raise Failure("%s is in %s, BENCHMARK.json says %s" % (name, metrics[name]["unit"], unit))
    result["metrics"] = {name: metrics[name] for name in wanted}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    signal.signal(signal.SIGTERM, _on_sigterm)
    check_sources()
    works = []

    def work_of(workload):
        works.append(os.path.join(WORK_ROOT, "%s-%d" % (workload, os.getpid())))
        os.makedirs(works[-1])
        return works[-1]

    try:
        if args.selftest:
            build(["cpdbench_selftest"])
            run_step([os.path.join(BUILD, "cpdbench_selftest")], 120)
            return 0
        build_start = time.monotonic()
        build(["cpdbench", "cpd_serve"])
        build_s = time.monotonic() - build_start
        trace_dir = os.path.join(WORK_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        result = run_workload(args, work_of, trace_dir, build_s)
        print(json.dumps(result), flush=True)
        return 0
    except Failure as failure:
        log("run failed: %s" % failure)
        return 1
    except KeyboardInterrupt:
        log("interrupted")
        return 130
    finally:
        stop_all()
        for work in works:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
