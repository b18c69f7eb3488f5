"""The repository benchmark: four workloads, end-to-end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with tracing off.  ``--trace 1`` splits ``--seconds`` into an untraced
half and a traced half (span wrappers installed in the program under
test) and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import tracing  # noqa: E402
from harness import RunFailed  # noqa: E402

#: program boots per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: generator threads, each with one persistent connection (sized for
#: a 2-CPU machine).
THREADS = 2


# ----------------------------------------------------------------------
# answer checks
# ----------------------------------------------------------------------


def _parse(status: int, payload: bytes) -> dict:
    if status != 200:
        raise RunFailed(f"set-up request answered {status}")
    return json.loads(payload)


def check_simulation(ref):
    makespan, completed = ref

    def check(status, payload):
        if status != 200:
            return f"status {status}", None
        body = json.loads(payload)
        if body["makespan"] != makespan or body["completed"] != completed:
            return (f"answer {body['makespan']}/{body['completed']} != "
                    f"reference {makespan}/{completed}"), None
        return None, None

    return check


def check_schedule(fingerprint: str, profile: list):
    def check(status, payload):
        if status != 200:
            return f"status {status}", None
        body = json.loads(payload)
        if body["fingerprint"] != fingerprint:
            return "wrong fingerprint", body.get("how")
        if body["profile"] != profile:
            return "profile differs from the reference", body.get("how")
        return None, body.get("how")

    return check


def boot_repeatedly(boot, stop, times: int):
    """Boot the program ``times`` times and stop all but the last boot.

    Returns the last boot and every boot's set-up seconds."""
    setups = []
    for i in range(times):
        booted, setup_s = boot()
        setups.append(setup_s)
        if i < times - 1:
            stop(booted[0])
    return booted, setups


# ----------------------------------------------------------------------
# workloads over HTTP
# ----------------------------------------------------------------------


class SimulateWorkload:
    """``simulate_small`` / ``simulate_large``: simulate by fingerprint
    over dags registered during set-up."""

    data_dir_template = None

    def __init__(self, name: str, seed: int) -> None:
        import workloads

        self.plan = workloads.simulate_plan(name, seed)
        self.refs = workloads.simulate_references(self.plan)
        self.key = workloads.sim_key

    def register(self, port: int) -> None:
        client = harness.Client(port)
        try:
            for i, (wire, fp) in enumerate(zip(self.plan["wires"],
                                               self.plan["fingerprints"])):
                status, payload, _ = client.call("POST", "/v1/dags", wire,
                                                 f"s{i}")
                body = _parse(status, payload)
                if body["fingerprint"] != fp:
                    raise RunFailed(f"registered {wire['name']} under "
                                    f"{body['fingerprint']}, expected {fp}")
        finally:
            client.close()

    def rounds(self):
        requests = self.plan["requests"]
        ops = [("POST", "/v1/simulate", requests[i],
                check_simulation(self.refs[self.key(requests[i])]),
                {"policy": requests[i]["policy"],
                 "machine": requests[i]["machine"]})
               for i in self.plan["round"]]
        while True:
            yield ops

    def verify_boot(self, port: int) -> None:
        pass


class JournaledWorkload:
    """``submit_journaled``: submissions, resubmissions and schedule
    reads against a server that replays a pre-populated data dir."""

    def __init__(self, seed: int, tmp: str) -> None:
        import workloads

        self.workloads = workloads
        self.seed = seed
        self.profiles = workloads.journal_references()
        self.data_dir_template = os.path.join(tmp, "prepopulated")
        self.entries = workloads.prepopulate(self.data_dir_template, seed)

    def register(self, port: int) -> None:
        pass

    def verify_boot(self, port: int) -> None:
        client = harness.Client(port)
        try:
            status, payload, _ = client.call("GET", "/stats", None, "stats")
        finally:
            client.close()
        recovery = _parse(status, payload)["service"]["durability"][
            "recovery"]
        if recovery["entries_restored"] != self.entries or \
                recovery["anomalies"]:
            raise RunFailed(f"replay restored {recovery}")

    def rounds(self):
        w = self.workloads

        def http_op(op):
            target = op if op["kind"] == "new" else op["of"]
            if "fp" not in target:
                target["fp"] = w.fingerprint_of(target["wire"])
            check = check_schedule(target["fp"],
                                   self.profiles[target["family"]])
            info = {"kind": op["kind"], "family": target["family"]}
            if op["kind"] == "get":
                return ("GET", f"/v1/schedules/{target['fp']}", None,
                        check, info)
            return "POST", "/v1/dags", target["wire"], check, info

        for ops in w.journal_rounds(self.seed):
            yield [http_op(op) for op in ops]


class HttpRun:
    """Boot ``repro serve`` children and drive one workload."""

    def __init__(self, workload, root: str, tmp: str) -> None:
        self.workload = workload
        self.tmp = tmp
        self.env = harness.child_env(root, tmp)

    def boot(self, spans_path: str | None = None):
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        data_dir = None
        if self.workload.data_dir_template is not None:
            data_dir = os.path.join(run_dir, "data")
            shutil.copytree(self.workload.data_dir_template, data_dir)
        port = harness.free_port()
        argv = harness.serve_argv(spans_path, port,
                                  os.path.join(run_dir, "dumps"), data_dir)
        t0 = time.perf_counter()
        child = harness.Child(argv, self.env,
                              os.path.join(run_dir, "stderr.log"))
        try:
            harness.wait_ready(child, port)
            self.workload.register(port)
            setup_s = time.perf_counter() - t0
            self.workload.verify_boot(port)
        except BaseException:
            child.kill()
            raise
        return (child, port), setup_s

    def window(self, child, port: int, seconds: float) -> dict:
        pid = child.pid
        before = harness.scrape(port, "m0")
        cpu0, gen0 = harness.cpu_seconds(pid), harness.generator_cpu_seconds()
        records, elapsed = harness.closed_loop(
            port, self.workload.rounds(), THREADS, seconds,
            tracing.WINDOW_PREFIX)
        cpu1, gen1 = harness.cpu_seconds(pid), harness.generator_cpu_seconds()
        after = harness.scrape(port, "m1")
        return {"records": records, "elapsed": elapsed,
                "cpu_s": cpu1 - cpu0, "generator_cpu_s": gen1 - gen0,
                "peak_rss_mb": harness.peak_rss_mb(pid),
                "before": before, "after": after}

    @staticmethod
    def stop(child) -> None:
        code = child.terminate()
        if code != 0:
            raise RunFailed(f"server drain exited {code}:\n"
                            f"{child.stderr_tail()}")

    def run(self, seconds: float, trace: bool) -> tuple[dict, list]:
        (child, port), setups = boot_repeatedly(
            self.boot, self.stop, 1 if trace else SETUP_REPEATS)
        try:
            first = self.window(child, port, seconds / 2 if trace
                                else seconds)
        finally:
            self.stop(child)
        windows = [first]
        spans = None
        if trace:
            spans_path = os.path.join(self.tmp, "spans.jsonl")
            (child, port), _ = self.boot(spans_path)
            try:
                windows.append(self.window(child, port, seconds / 2))
            finally:
                self.stop(child)
            spans = tracing.load_spans(spans_path)
        return summarize(windows, setups), spans


# ----------------------------------------------------------------------
# compare_faults: the library in its own process
# ----------------------------------------------------------------------


class LibraryRun:
    """Drive ``library_worker.py`` children over stdin/stdout."""

    def __init__(self, seed: int, root: str, tmp: str) -> None:
        self.seed = seed
        self.tmp = tmp
        self.env = harness.child_env(root, tmp)

    def _readline(self, child, timeout: float) -> str:
        ready, _, _ = select.select([child.proc.stdout], [], [], timeout)
        line = child.proc.stdout.readline() if ready else b""
        if not line:
            raise RunFailed(f"library worker gave no answer within "
                            f"{timeout:.0f}s:\n{child.stderr_tail()}")
        return line.decode("utf-8")

    def boot(self, spans_path: str):
        run_dir = tempfile.mkdtemp(dir=self.tmp)
        argv = [sys.executable, os.path.join(HERE, "library_worker.py"),
                str(self.seed), spans_path]
        t0 = time.perf_counter()
        child = harness.Child(argv, self.env,
                              os.path.join(run_dir, "stderr.log"),
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            if self._readline(child, harness.READY_TIMEOUT_S).strip() \
                    != "READY":
                raise RunFailed("library worker did not report READY")
        except BaseException:
            child.kill()
            raise
        return (child,), time.perf_counter() - t0

    def _send(self, child, command: str) -> None:
        child.proc.stdin.write(command.encode() + b"\n")
        child.proc.stdin.flush()

    def stop(self, child) -> None:
        try:
            self._send(child, "QUIT")
            code = child.proc.wait(harness.DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed("library worker did not exit") from None
        finally:
            child.kill()
        if code != 0:
            raise RunFailed(f"library worker exited {code}:\n"
                            f"{child.stderr_tail()}")

    def window(self, child, seconds: float, traced: bool,
               seen: dict) -> dict:
        pid = child.pid
        cpu0, gen0 = harness.cpu_seconds(pid), harness.generator_cpu_seconds()
        self._send(child, f"RUN {seconds} {int(traced)}")
        out = json.loads(self._readline(child, seconds + 120))
        cpu1, gen1 = harness.cpu_seconds(pid), harness.generator_cpu_seconds()
        records = []
        for r in out["results"]:
            problem = None
            first = seen.setdefault(r["key"], r["makespans"])
            if r["makespans"] != first:
                problem = "makespans differ from an earlier identical call"
            elif not r["completed"]:
                problem = "a policy left tasks unfinished"
            elif r["pin"] is not None and {
                    k: round(v, 6) for k, v in r["makespans"].items()
            } != r["pin"]:
                problem = "makespans differ from the committed pin"
            records.append({"request": r["request"], "status": 200,
                            "latency": r["latency"], "problem": problem,
                            "how": None, "scenario": r["scenario"],
                            "machine": r["machine"]})
        return {"records": records, "elapsed": out["elapsed"],
                "cpu_s": cpu1 - cpu0, "generator_cpu_s": gen1 - gen0,
                "peak_rss_mb": harness.peak_rss_mb(pid),
                "before": out["before"], "after": out["after"]}

    def run(self, seconds: float, trace: bool) -> tuple[dict, list]:
        spans_path = os.path.join(self.tmp, "spans.jsonl")
        (child,), setups = boot_repeatedly(
            lambda: self.boot(spans_path), self.stop,
            1 if trace else SETUP_REPEATS)
        seen: dict = {}
        try:
            windows = [self.window(child, seconds / 2 if trace else seconds,
                                   False, seen)]
            if trace:
                windows.append(self.window(child, seconds / 2, True, seen))
        finally:
            self.stop(child)
        spans = tracing.load_spans(spans_path) if trace else None
        return summarize(windows, setups), spans


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


def window_stats(w: dict) -> dict:
    records = w["records"]
    good = [r["latency"] for r in records
            if r["status"] == 200 and r["problem"] is None]
    if not good:
        raise RunFailed("no op succeeded in the window")
    p95 = statistics.quantiles(good, n=100, method="inclusive")[94] \
        if len(good) > 1 else good[0]
    return {
        "ops": len(records),
        "ok": len(good),
        "ops_per_s": len(good) / w["elapsed"],
        "latency_p50_ms": statistics.median(good) * 1e3,
        "latency_p95_ms": p95 * 1e3,
        "cpu_ms_per_op": w["cpu_s"] * 1e3 / len(records),
        "peak_rss_mb": w["peak_rss_mb"],
    }


def summarize(windows: list[dict], setups: list[float]) -> dict:
    records = [r for w in windows for r in w["records"]]
    failed = [r for r in records
              if r["status"] != 200 or r["problem"] is not None]
    mix = {key: dict(collections.Counter(
        str(r[key]) for r in records if r.get(key) is not None))
        for key in ("how", "kind", "family", "policy", "machine",
                    "scenario")}
    return {
        "windows": windows,
        "stats": [window_stats(w) for w in windows],
        "setups": setups,
        "attempted": len(records),
        "failed": len(failed),
        "wrong": [r["problem"] for r in failed if r["problem"]][:5],
        "status": dict(collections.Counter(r["status"] for r in records)),
        "mix": {k: v for k, v in mix.items() if v},
        "generator_cpu_s": sum(w["generator_cpu_s"] for w in windows),
    }


#: every end-to-end metric, in report order, with its unit.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
)


def end_to_end(summary: dict) -> dict[str, float]:
    """The :data:`END_TO_END` metrics of an untraced run."""
    return dict(summary["stats"][0],
                setup_s=statistics.median(summary["setups"]),
                success_ratio=1.0 - summary["failed"] / summary["attempted"])


def per_layer(summary: dict, spans: list) -> dict:
    untraced, traced = summary["stats"]
    w = summary["windows"][1]
    latencies = {r["request"]: r["latency"] for r in w["records"]}
    return tracing.per_layer_metrics(
        spans, latencies, tracing.parse_prometheus(w["before"]),
        tracing.parse_prometheus(w["after"]), traced["ops"],
        untraced["ops_per_s"], traced["ops_per_s"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("error: run from the root of a checkout (no src/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    known = workloads.WORKLOADS + workloads.EXTRA_WORKLOADS
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error, so every child is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    base = os.path.join(root, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=base)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    trace = bool(args.trace)
    try:
        if args.workload == "compare_faults":
            runner = LibraryRun(args.seed, root, tmp)
        else:
            wl = (JournaledWorkload(args.seed, tmp)
                  if args.workload == "submit_journaled"
                  else SimulateWorkload(args.workload, args.seed))
            runner = HttpRun(wl, root, tmp)
        summary, spans = runner.run(args.seconds, trace)
    except RunFailed as exc:
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stats = summary["stats"]
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "ops": [s["ops"] for s in stats],
        "latency_samples": [s["ok"] for s in stats],
        "setups_s": summary["setups"], "status": summary["status"],
        "mix": summary["mix"],
        "generator_cpu_s": summary["generator_cpu_s"],
        "wrong_answers": summary["wrong"],
    }, sort_keys=True))
    if trace:
        values = per_layer(summary, spans)
        print(tracing.render_table(args.workload, values))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        values = end_to_end(summary)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({
        "correct": not summary["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
