"""Process control and the closed-loop HTTP client.

Everything the generator needs to drive a program under test: spawn it
with a fresh port and fresh directories, wait for readiness (a timeout
is a failed run, not a hang), read its CPU time and peak memory from
``/proc``, scrape ``/metrics``, stop it with SIGTERM and check the
drain exit code, and run a closed loop of persistent HTTP/1.1
connections.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 60.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


class RunFailed(Exception):
    """The run cannot produce a result (boot, readiness or drain)."""


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def child_env(root: str, tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = tmp
    return env


def cpu_seconds(pid: int) -> float:
    """User + system CPU of process ``pid`` (all threads)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RunFailed(f"no VmHWM for pid {pid}")


def generator_cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


class Child:
    """One program-under-test process; killed on every exit path."""

    def __init__(self, argv: list[str], env: dict, stderr_path: str,
                 stdin=None, stdout=None) -> None:
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        try:
            self.proc = subprocess.Popen(
                argv, env=env, stdin=stdin, stdout=stdout,
                stderr=self._stderr)
        except BaseException:
            self._stderr.close()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stderr_tail(self, limit: int = 2000) -> str:
        with open(self.stderr_path, "rb") as fh:
            return fh.read()[-limit:].decode("utf-8", "replace")

    def terminate(self) -> int:
        """SIGTERM, wait for the drain, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RunFailed("child did not exit after SIGTERM") from None
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._stderr.close()


def serve_argv(trace_spans: str | None, port: int, dump_dir: str,
               data_dir: str | None) -> list[str]:
    here = os.path.dirname(os.path.abspath(__file__))
    if trace_spans is None:
        head = [sys.executable, "-m", "repro"]
    else:
        head = [sys.executable, os.path.join(here, "launcher.py"),
                trace_spans]
    argv = head + ["serve", "--port", str(port), "--dump-dir", dump_dir]
    if data_dir is not None:
        argv += ["--data-dir", data_dir]
    return argv


def wait_ready(child: Child, port: int) -> None:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if child.proc.poll() is not None:
            raise RunFailed(
                f"server exited with {child.proc.returncode} before "
                f"ready:\n{child.stderr_tail()}")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port,
                                              timeout=5)
            try:
                conn.request("GET", "/readyz",
                             headers={"X-Repro-Request-Id": "ready"})
                if conn.getresponse().status == 200:
                    return
            finally:
                conn.close()
        except OSError:
            pass
        time.sleep(0.02)
    raise RunFailed(f"server not ready within {READY_TIMEOUT_S:.0f}s")


class Client:
    """One persistent HTTP/1.1 connection; reconnects after errors."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: dict | None,
             request_id: str) -> tuple[int, bytes, float]:
        """``(status, body, seconds)``; status 0 on a transport error
        or client timeout."""
        data = None if body is None else json.dumps(body).encode()
        headers = {"X-Repro-Request-Id": request_id}
        if data is not None:
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S)
            self.conn.request(method, path, data, headers)
            resp = self.conn.getresponse()
            payload = resp.read()
            status = resp.status
            if resp.will_close:
                self.close()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b"", time.perf_counter() - t0
        return status, payload, time.perf_counter() - t0

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def scrape(port: int, tag: str) -> str:
    client = Client(port)
    try:
        status, body, _ = client.call("GET", "/metrics", None, tag)
    finally:
        client.close()
    if status != 200:
        raise RunFailed(f"/metrics scrape answered {status}")
    return body.decode("utf-8")


def closed_loop(port: int, rounds, threads: int, seconds: float,
                prefix: str) -> tuple[list[dict], float]:
    """Drive ``threads`` persistent connections, in rounds, for at
    least ``seconds``.

    ``rounds`` yields lists of ``(method, path, body, check, info)``.
    The threads share each round, every thread taking the next unsent
    op when its previous answer arrives, and wait for each other at its
    end.  No round starts once ``seconds`` have passed, and past twice
    ``seconds`` a round is cut short.  So a window holds whole rounds
    and every run sees the workload's exact mix; an op may name the
    answer of an op from an earlier round.  ``check(status, body)``
    returns ``(problem, how)``: ``problem`` is ``None`` for a correct
    answer, else the reason it is not, and ``how`` is the service's
    ``how`` field when it has one.  ``info`` is copied into the op's
    record.  Returns one record per op and the window length (start to
    the last completion).
    """
    records: list[dict] = []
    errors: list[BaseException] = []
    start = time.perf_counter()
    deadline, cutoff = start + seconds, start + 2 * seconds
    lock = threading.Lock()
    state = {"ops": iter(next(rounds)), "go": True, "n": 0}

    def next_round() -> None:
        state["go"] = time.perf_counter() < deadline
        if state["go"]:
            state["ops"] = iter(next(rounds))

    barrier = threading.Barrier(threads, action=next_round)

    def take():
        with lock:
            op = next(state["ops"], None)
            state["n"] += 1
            return op, f"{prefix}{state['n']}"

    def worker() -> None:
        client = Client(port)
        mine = []
        try:
            while state["go"]:
                while time.perf_counter() < cutoff:
                    op, rid = take()
                    if op is None:
                        break
                    method, path, body, check, info = op
                    status, payload, latency = client.call(
                        method, path, body, rid)
                    end = time.perf_counter()
                    try:
                        problem, how = check(status, payload)
                    except Exception as exc:  # a malformed answer
                        problem, how = f"check failed: {exc!r}", None
                    mine.append(dict(info, request=rid, status=status,
                                     latency=latency, end=end,
                                     problem=problem, how=how))
                barrier.wait()
        except threading.BrokenBarrierError:
            pass  # another thread failed; its error is reported
        except BaseException as exc:
            errors.append(exc)
            barrier.abort()
        finally:
            client.close()
            with lock:
                records.extend(mine)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()
    if errors:
        raise RunFailed(f"load generator failed: {errors[0]!r}")
    elapsed = max((r["end"] for r in records), default=start) - start
    return records, elapsed
