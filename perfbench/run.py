"""The jetspace benchmark: time to verified answers, one workload per run.

    python3 perfbench/run.py --workload opspace|growth|algebra|all --seed N
                             --seconds S --trace 0|1

Run from the repository root; the program is the source tree in ./src.
One closed-loop client sends the workload's request list (generated from
the seed) one request at a time, each request starting after the previous
one finished, and repeats the list until S seconds have passed (two passes at
least, so that req_tail_s has 10 requests beyond it).  Every answer
is checked against reference.py.  Lines before the last describe the run;
the last line is one JSON object (with "all", each workload in turn prints
its own lines, ending in its own JSON object):

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced:
setup_s, wall_s, req_p50_s, req_tail_s, ok_ratio, peak_rss_mb.  With
--trace 1 passes alternate untraced and traced (child processes wrap
jetspace's public functions, see tracing.py) and the metrics are the
per-layer ones, medians over traced passes, plus trace.overhead_ratio.
"correct" is false when a request fails in a way reference.KNOWN_DEFECTS
does not list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REQUEST_LIMIT_S = 30.0
SETUP_REPEATS = 3  # before the first pass and after each pass
SCRATCH = ".perfbench_tmp"


def run_child(cmd: list[str], env: dict, cwd: str, limit: float,
              stdin: str | None = None) -> dict:
    """Run cmd to the end, or kill it after `limit` seconds.

    A kill timer stands in for subprocess's own timeout, whose wait polls
    and rounds a child's run time up to 50 ms steps.
    """
    killed = threading.Event()

    def kill(proc):
        killed.set()
        proc.kill()

    with subprocess.Popen(cmd, env=env, cwd=cwd, text=True,
                          stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        timer = threading.Timer(limit, kill, (proc,))
        timer.start()
        try:
            stdout, stderr = proc.communicate(stdin)
        finally:
            timer.cancel()
    return {"rc": proc.returncode, "stdout": stdout, "stderr": stderr,
            "timeout": killed.is_set()}


class Runner:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("JETSPACE_NMAX_OVERRIDE", None)
        self.jobs = workloads.generate(workload, seed)
        self.requests = workloads.requests(self.jobs)
        self.by_id = {r["id"]: r for r in self.requests}
        self.scratch = os.path.join(root, SCRATCH)

    # ---- set-up -----------------------------------------------------------

    def check_source(self) -> None:
        """The jetspace that the children import is the one in ./src."""
        out = run_child([sys.executable, "-c", "import jetspace.cli; print(jetspace.__file__)"],
                        self.env, self.root, REQUEST_LIMIT_S)
        want = os.path.join(self.root, "src", "jetspace")
        if out["rc"] != 0 or not out["stdout"].strip().startswith(want):
            raise SystemExit(f"cannot import jetspace from {want}:\n{out['stderr']}")

    def setup_samples(self, count: int) -> list[float]:
        """Times of a fresh interpreter plus `import jetspace.cli`."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            out = run_child([sys.executable, "-c", "import jetspace.cli"],
                            self.env, self.root, REQUEST_LIMIT_S)
            times.append(time.perf_counter() - start)
            if out["rc"] != 0:
                raise SystemExit(f"import jetspace.cli failed:\n{out['stderr']}")
        return times

    # ---- one pass ---------------------------------------------------------

    def run_pass(self, traced: bool) -> dict:
        """Send every request once; returns latencies, failures, dumps."""
        if traced:
            os.makedirs(self.scratch, exist_ok=True)
        latencies, failures, dumps = {}, {}, []
        start = time.perf_counter()
        for job in self.jobs:
            trace_file = os.path.join(self.scratch, f"{job['id']}.json") if traced else None
            if job["kind"] == "cli":
                results = {job["id"]: self._cli(job, trace_file)}
            else:
                results = self._survey(job, trace_file)
            for rid, (elapsed, outcome) in results.items():
                latencies[rid] = elapsed
                reason = self._judge(rid, outcome)
                if reason:
                    failures[rid] = reason
            if trace_file and os.path.exists(trace_file):
                with open(trace_file) as fh:
                    dumps.append(json.load(fh))
                os.remove(trace_file)
        return {"wall": time.perf_counter() - start, "latencies": latencies,
                "failures": failures, "dumps": dumps}

    def _cli(self, job: dict, trace_file: str | None):
        if trace_file:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli",
                   trace_file, job["id"], *job["argv"]]
        else:
            cmd = [sys.executable, "-m", "jetspace", *job["argv"]]
        start = time.perf_counter()
        outcome = run_child(cmd, self.env, self.root, REQUEST_LIMIT_S)
        return time.perf_counter() - start, outcome

    def _survey(self, job: dict, trace_file: str | None) -> dict:
        """One process for the survey; each call is timed inside it."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "survey",
               str(REQUEST_LIMIT_S)] + ([trace_file] if trace_file else [])
        calls = [{"id": c["id"], "fn": c["fn"], "args": c["args"]} for c in job["calls"]]
        out = run_child(cmd, self.env, self.root, REQUEST_LIMIT_S * len(calls) + 10,
                        stdin=json.dumps(calls))
        results = {}
        for line in out["stdout"].splitlines():
            call = json.loads(line)
            results[call.pop("id")] = (call.pop("elapsed"), call)
        for call in job["calls"]:
            if call["id"] not in results:
                results[call["id"]] = (REQUEST_LIMIT_S, {"timeout": True,
                                                         "stderr": out["stderr"]})
        return results

    def _judge(self, rid: str, outcome: dict) -> str | None:
        """None for a right answer, else the failure class and detail."""
        if outcome.get("timeout"):
            return f"timeout: over {REQUEST_LIMIT_S:g} s"
        if "Traceback (most recent call last)" in (outcome.get("stderr") or "") \
                or "traceback" in outcome:
            text = outcome.get("traceback") or outcome["stderr"]
            return "traceback: " + text.strip().splitlines()[-1]
        if outcome.get("rc", 0) != 0:
            return f"exit code {outcome['rc']}: " + outcome["stderr"].strip()[:200]
        return reference.check(self.by_id[rid], outcome)


# ---- figures --------------------------------------------------------------


def tail(latencies: list[float], per_pass: int) -> tuple[float, float]:
    """(latency, percentile) at the percentile that leaves 10 requests of
    two passes beyond it.

    The percentile is fixed by the pass size, so it does not move with how
    many passes fit in the run; taken by nearest rank, the value is the same
    for any number of copies of one pass, and at least 10 samples lie beyond
    it whenever two or more passes ran.
    """
    xs = sorted(latencies)
    keep = max(per_pass - 5, 1)
    rank = -(-len(xs) * keep // per_pass)  # ceil, in exact integers
    return xs[rank - 1], 100.0 * keep / per_pass


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jetspace", "cli.py")):
        print("run from the repository root: src/jetspace is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that peak_rss_mb stays per workload
        for name in workloads.WORKLOADS:
            rc = subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
            if rc:
                return rc
        return 0
    runner = Runner(root, args.workload, args.seed)
    runner.check_source()
    print(json.dumps({"workload": args.workload, **environment(args.seed),
                      "requests_per_pass": len(runner.requests)}))

    setup = [] if args.trace else runner.setup_samples(SETUP_REPEATS)
    passes = {False: [], True: []}
    start = time.perf_counter()
    traced = False
    while True:
        passes[traced].append(runner.run_pass(traced))
        if args.trace:
            traced = not traced
        else:
            setup += runner.setup_samples(SETUP_REPEATS)
        # two untraced passes at least, so that req_tail_s has 10 requests
        # beyond it; a traced run needs one pass of each kind
        enough = passes[True] if args.trace else len(passes[False]) >= 2
        if time.perf_counter() - start >= args.seconds and enough:
            break
    shutil.rmtree(runner.scratch, ignore_errors=True)

    everything = passes[False] + passes[True]
    attempted = sum(len(p["latencies"]) for p in everything)
    failures = [(rid, reason) for p in everything for rid, reason in p["failures"].items()]
    unexpected = 0
    for rid, reason in sorted(set(failures)):
        known = reference.known_defect(runner.by_id[rid], reason)
        unexpected += known is None
        print(f"FAILED {rid}: {reason}" + (f"  [known defect: {known}]" if known else ""))

    plain = passes[False]
    latencies = [t for p in plain for t in p["latencies"].values()]
    tail_s, tail_pct = tail(latencies, len(runner.requests))
    for name in (*dict(workloads.OPSPACE_ANCHORS), workloads.ALGEBRA_ANCHOR[0]):
        times = [p["latencies"][name] for p in plain if name in p["latencies"]]
        if times:
            print(f"anchor {name}: {statistics.median(times):.3f} s "
                  f"(median of {len(times)})")
    print(f"passes {len(plain)} untraced, {len(passes[True])} traced; "
          f"req_tail_s is p{tail_pct:.1f} (nearest rank) of {len(latencies)} samples, "
          f"{sum(t > tail_s for t in latencies)} beyond it")

    wall = statistics.median(p["wall"] for p in plain)
    if args.trace:
        per_pass = [tracing.summarize(p["dumps"]) for p in passes[True]]
        metrics = {name: {"value": statistics.median(s[name] for s in per_pass),
                          "unit": _unit(name)} for name in per_pass[0]}
        traced_wall = statistics.median(p["wall"] for p in passes[True])
        metrics["trace.overhead_ratio"] = {"value": traced_wall / wall - 1, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "req_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "req_tail_s": {"value": tail_s, "unit": "s"},
            "ok_ratio": {"value": 1 - len(failures) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
