#!/usr/bin/env python3
"""Benchmark of the maxord CLI and library on seeded corpora of documents.

Run from the repository root:

    python3 perfbench/run.py --workload zfields --seed 1 --seconds 22 --trace 0

``--workload all`` runs the workloads of BENCHMARK.json in turn.

Each document of the workload runs untraced through ``python -m
maxord.cli`` in a fresh process (end to end) and through
``maxord.cli.main(argv)`` in this interpreter (warm).  Documents are visited in full rounds for about
``--seconds``, at least one round.  Every outcome is checked against its
oracle (see corpus.py).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` times warm
passes without and then with the tracer of tracer.py and reports the
per-layer metrics.  Metric names and units are those of BENCHMARK.json.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report, and a detailed record (per-document verdicts, output
hashes, timings) is written under perfbench/work/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
sys.path.insert(0, HERE)

import corpus  # noqa: E402

SETUP_REPS = 5          # cold imports per run; setup_s is their median
IMPORTTIME_REPS = 3     # -X importtime runs per traced run
INPROC_SHARE = 0.25     # warm calls per visit fill this share of the CLI time
INPROC_MAX_REPS = 10
CHILD_TIMEOUT = 150.0   # seconds before a child process is killed
HARD_STOP = 150.0       # no new call starts after this many seconds
RUN_LIMIT = 170.0       # no CLI child outlives this many seconds of the run
TAIL_LADDER = (99, 95, 90, 75)
MODULES = ["rings", "exactlin", "algebras", "finitealg", "orders", "serre",
           "serialize", "cli", "selftest", "errors"]


def declared_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, env, out_path, err_path, timeout=CHILD_TIMEOUT):
    """Run a child with stdout/stderr to files; (seconds, exit code,
    peak RSS in KiB) from os.wait4.  The child is killed after timeout."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + args, env,
                         file_actions=actions)
    killer = threading.Timer(timeout, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return (time.perf_counter() - start, os.waitstatus_to_exitcode(status),
            usage.ru_maxrss)


def _kill(pid):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def probe():
    """A fixed stdlib loop; its time tracks the speed of the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(200000):
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - start


def sympy_import_s(env):
    """Cumulative import time of sympy inside a cold `import maxord.cli`."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import maxord.cli"],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
        check=True).stderr
    for line in out.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "sympy":
            return int(parts[1]) / 1e6
    return 0.0


def tail(calls):
    """(percentile, value): the highest ladder percentile with at least ten
    calls beyond it, else the median."""
    xs = sorted(calls)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, xs[rank - 1]
    return 50, statistics.median(xs)


def src_lines():
    pkg = os.path.join(SRC, "maxord")
    out, total = {}, 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                n = sum(1 for _ in fh)
            total += n
            out[name[:-3]] = n
    lines = {"%s.src_lines" % m: out.get(m, 0) for m in MODULES}
    lines["total.src_lines"] = total
    return lines


class Bench:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.cases = corpus.generate(workload, seed)
        self.env = child_env()
        self.dir = os.path.join(WORK, "%s-%d" % (workload, seed))
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.paths = []
        for i, case in enumerate(self.cases):
            path = os.path.join(self.dir, "%02d-%s.json" % (i, case.name))
            with open(path, "w") as fh:
                json.dump(case.doc, fh, sort_keys=True)
            self.paths.append(path)
        n = len(self.cases)
        self.cli_s = [[] for _ in range(n)]
        self.warm_s = [[] for _ in range(n)]
        self.traced = [[] for _ in range(n)]  # (seconds, accumulator delta)
        self.rss_kib = []
        self.probes = []
        self.verdicts = [{} for _ in range(n)]  # output hash -> verdict
        self.attempted = self.mismatched = self.failed = 0
        self.start = time.perf_counter()
        self.cli = None
        self.tracer_faults = []

    # -- operations -----------------------------------------------------------

    def _record(self, i, code, out, err):
        digest = hashlib.sha256(
            json.dumps([code, out, err]).encode()).hexdigest()[:16]
        verdicts = self.verdicts[i]
        if digest not in verdicts:
            verdicts[digest] = self.cases[i].verdict(
                corpus.Outcome(code, out, err))
            if len(verdicts) > 1:
                # CLI and warm runs, or repeated runs, disagree
                verdicts[digest] = corpus.fail("output differs between runs")
        status = verdicts[digest][0]
        self.attempted += 1
        self.mismatched += status != "ok"
        self.failed += status == "fail"

    def run_cli(self, i):
        out_path = os.path.join(self.dir, "stdout.txt")
        err_path = os.path.join(self.dir, "stderr.txt")
        argv = ["-m", "maxord.cli"] + self.cases[i].argv(self.paths[i])
        left = RUN_LIMIT - (time.perf_counter() - self.start)
        seconds, code, rss = spawn(argv, self.env, out_path, err_path,
                                   max(1.0, min(CHILD_TIMEOUT, left)))
        with open(out_path) as fo, open(err_path) as fe:
            self._record(i, code, fo.read(), fe.read())
        self.cli_s[i].append(seconds)
        self.rss_kib.append(rss)
        return seconds

    def run_warm(self, i):
        out, err = io.StringIO(), io.StringIO()
        argv = self.cases[i].argv(self.paths[i])
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        seconds = time.perf_counter() - start
        self._record(i, code, out.getvalue(), err.getvalue())
        return seconds

    # -- phases ---------------------------------------------------------------

    def cold_import_s(self):
        null = os.devnull
        return spawn(["-c", "import maxord.cli"], self.env, null, null)[0]

    def load(self):
        sys.path.insert(0, SRC)
        import maxord.cli

        self.cli = maxord.cli
        for i in range(len(self.cases)):  # warm-up pass, checked, not timed
            self.run_warm(i)

    def _rounds(self, seconds, visit):
        """Visit the documents in full rounds, so that each has as many
        samples as the others, while the rounds fit the time: a new round
        starts when half of one still fits in ``seconds``."""
        start = time.perf_counter()
        n = len(self.cases)
        while True:
            begin = time.perf_counter()
            self.probes.append(probe())
            for i in range(n):
                if time.perf_counter() - self.start > HARD_STOP:
                    return
                visit(i)
            now = time.perf_counter()
            if now - start + (now - begin) / 2 > seconds:
                return

    def measure(self):
        # warm calls follow their own round-robin, so that each document's
        # warm samples spread over the run like its CLI samples do
        nxt = [0]

        def visit(i):
            budget = INPROC_SHARE * self.run_cli(i)
            spent = 0.0
            for _ in range(INPROC_MAX_REPS):
                j = nxt[0]
                seconds = self.run_warm(j)
                self.warm_s[j].append(seconds)
                nxt[0] = (j + 1) % len(self.cases)
                spent += seconds
                if spent >= budget:
                    break

        self._rounds(self.seconds, visit)

    def measure_traced(self, tracer):
        def untraced(i):
            self.warm_s[i].append(self.run_warm(i))

        def traced(i):
            before = tracer.snapshot()
            tracer.sampling(True)
            seconds = self.run_warm(i)
            tracer.sampling(False)
            after = tracer.snapshot()
            self.traced[i].append(
                (seconds, {k: after[k] - before[k] for k in after}))

        self._rounds(self.seconds / 2, untraced)
        self.untraced_targets = tracer.install()
        tracer.start_sampler()
        try:
            self._rounds(self.seconds / 2, traced)
        finally:
            tracer.stop_sampler()
            tracer.uninstall()

    # -- results --------------------------------------------------------------

    def _per_pass(self, lists):
        """Sum over documents of each document's median time; the time of
        one pass over the workload."""
        return sum(statistics.median(xs) for xs in lists if xs)

    def _unsampled(self, lists):
        return [c.name for c, xs in zip(self.cases, lists) if not xs]

    def end_to_end(self, setup):
        calls = [x for xs in self.cli_s for x in xs]
        pct, tail_value = tail(calls)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": self._per_pass(self.cli_s),
            "inproc_s": self._per_pass(self.warm_s),
            "call_s.p50": statistics.median(calls),
            "call_s.tail": tail_value,
            "peak_rss_mb": max(self.rss_kib) / 1024,
        }
        info = {"call_s.tail_percentile": pct, "call_s.calls": len(calls),
                "host.probe_s": statistics.median(self.probes)}
        missing = self._unsampled(self.cli_s) + self._unsampled(self.warm_s)
        return metrics, info, missing

    def per_layer(self, tracer, sympy_s):
        from tracer import LAYERS, TARGETS

        def summed(key, name):
            total = 0.0
            for runs in self.traced:
                if runs:
                    total += statistics.median(d[key][name] for _, d in runs)
            return total

        def counted(name):
            return sum(runs[0][1]["counts"][name]
                       for runs in self.traced if runs)

        metrics = {"startup.sympy_s": sympy_s,
                   "serialize.parse_s": summed("self", "serialize.parse"),
                   "serialize.format_s": summed("self", "serialize.format")}
        for _, _, name, kind in TARGETS:
            metrics[name + ".calls"] = counted(name + ".calls")
            if kind == "span":
                metrics[name + ".s"] = summed("incl", name)
        metrics["exactlin.hnf.max_bits"] = tracer.max_bits
        calls = metrics["orders.idealizer.calls"]
        metrics["orders.idealizer.useful_ratio"] = (
            counted("orders.idealizer.useful") / calls if calls else 0.0)
        total = sum(tracer.samples.values())
        for layer in LAYERS:
            metrics[layer + ".self_share"] = (
                tracer.samples[layer] / total if total else 0.0)
        metrics.update(src_lines())
        traced = self._per_pass([[s for s, _ in runs] for runs in self.traced])
        metrics["trace.overhead_ratio"] = traced / self._per_pass(self.warm_s)
        metrics["host.probe_s"] = statistics.median(self.probes)
        repeat = [c.name for c, runs in zip(self.cases, self.traced)
                  if any(d["counts"] != runs[0][1]["counts"] for _, d in runs)]
        info = {"samples": dict(tracer.samples), "counts_differ": repeat}
        missing = self._unsampled(self.warm_s) + self._unsampled(self.traced)
        # a target not found or a figure not taken would read as 0, which
        # looks like a gain; the run is not correct instead
        self.tracer_faults = (["not found: " + t for t in self.untraced_targets]
                              + sorted(tracer.hook_errors))
        return metrics, info, missing

    def case_rows(self):
        rows = []
        for i, case in enumerate(self.cases):
            verdicts = sorted(set(self.verdicts[i].values()))
            worst = max(verdicts,
                        key=lambda v: ("ok", "known", "fail").index(v[0]))
            rows.append({
                "name": case.name, "command": case.command,
                "status": worst[0], "reason": worst[1],
                "output_hashes": sorted(self.verdicts[i]),
                "cli_s": self.cli_s[i], "warm_s": self.warm_s[i],
                "traced_s": [s for s, _ in self.traced[i]],
            })
        return rows


def report(bench, rows, metrics, info, units):
    print("maxord benchmark: workload %s, seed %d, %s s, %d documents"
          % (bench.workload, bench.seed, bench.seconds, len(bench.cases)))
    for r in rows:
        med = lambda xs: "%.4f" % statistics.median(xs) if xs else "-"
        print("  %-32s %-15s %-5s cli %s s  warm %s s  hash %s"
              % (r["name"], r["command"], r["status"], med(r["cli_s"]),
                 med(r["warm_s"]), ",".join(r["output_hashes"])))
    failing = [r for r in rows if r["status"] != "ok"]
    print("failing documents: %d" % len(failing))
    for r in failing:
        print("  %s (%s): %s" % (r["name"], r["status"], r["reason"]))
    print("fail_ratio %.4f (%d of %d operations differ from their oracle; "
          "%d not of a known kind)" % (bench.mismatched / bench.attempted,
                                       bench.mismatched, bench.attempted,
                                       bench.failed))
    for name in sorted(metrics):
        print("  %-36s %.6g %s" % (name, metrics[name], units.get(name, "-")))
    for name, value in sorted(info.items()):
        print("  %-36s %s" % (name, value))


def run_all(args):
    """The workloads of BENCHMARK.json in turn, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    codes = [subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace)]).returncode for workload in workloads]
    return next((c for c in codes if c), 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(corpus.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in (os.path.join(SRC, "maxord", "cli.py"),
                 os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(need):
            print("missing %s" % need, file=sys.stderr)
            return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # fixed hashing, so that traced counts repeat between runs
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    if args.workload == "all":
        return run_all(args)
    units = declared_metrics(args.trace)
    bench = Bench(args.workload, args.seed, args.seconds)
    setup = [] if args.trace else [bench.cold_import_s()
                                   for _ in range(SETUP_REPS)]
    bench.load()
    if args.trace:
        from tracer import Tracer

        sympy_s = statistics.median(
            sympy_import_s(bench.env) for _ in range(IMPORTTIME_REPS))
        tracer = Tracer(sys.modules["maxord"])
        bench.measure_traced(tracer)
        metrics, info, missing = bench.per_layer(tracer, sympy_s)
    else:
        bench.measure()
        metrics, info, missing = bench.end_to_end(setup)
    info["fail_ratio"] = round(bench.mismatched / bench.attempted, 6)
    # a document that never ran within HARD_STOP, or a fault of the tracer
    faults = ["not run: " + name for name in missing] + bench.tracer_faults
    bench.attempted += len(faults)
    bench.failed += len(faults)
    if faults:
        info["faults"] = faults
    rows = bench.case_rows()
    report(bench, rows, metrics, info, units)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "documents": rows, "metrics": metrics, "info": info,
              "attempted": bench.attempted, "failed": bench.failed,
              "mismatched": bench.mismatched}
    path = os.path.join(WORK, "result-%s-%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print("detailed record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
