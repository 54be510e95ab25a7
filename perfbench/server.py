"""Server processes and the closed-loop HTTP load generator.

A server is started as its own process: ``python -m repro.serve`` for the
untraced runs, or :mod:`launcher` for the traced ones.  It listens on an
ephemeral port, which is read from its ``listening`` log line.

The load generator runs one thread per connection.  Each thread owns one
keep-alive socket and sends its next request only after the previous reply
arrived (a closed loop), so a slower server receives less load.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TRANSPORT_FAILURE = 599


class ServerProcess:
    """One ``repro.serve`` process (and the worker processes it forks)."""

    def __init__(
        self,
        run_dir: str,
        label: str,
        serve_args: Sequence[str],
        spans_path: Optional[str] = None,
    ) -> None:
        self.run_dir = run_dir
        self.log_path = os.path.join(run_dir, f"{label}.log")
        self.spans_path = spans_path
        if spans_path is None:
            command = [sys.executable, "-m", "repro.serve"]
        else:
            command = [
                sys.executable,
                os.path.join(HERE, "launcher.py"),
                "--spans",
                spans_path,
                "--",
            ]
        self.command = command + ["--port", "0", *serve_args]
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None

    def start(self, timeout: float = 60.0) -> int:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["TMPDIR"] = os.path.join(self.run_dir, "tmp")
        os.makedirs(env["TMPDIR"], exist_ok=True)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            self.command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            port = self._listening_port()
            if port is not None:
                self.port = port
                return port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def _listening_port(self) -> Optional[int]:
        with open(self.log_path, "rb") as handle:
            for line in handle:
                if b'"listening"' not in line:
                    continue
                try:
                    return int(json.loads(line)["port"])
                except (ValueError, KeyError):
                    return None
        return None

    def pids(self) -> List[int]:
        """The server's pid and its descendants' (engine workers)."""
        if self.proc is None:
            return []
        found, queue = [], [self.proc.pid]
        while queue:
            pid = queue.pop()
            found.append(pid)
            task_dir = f"/proc/{pid}/task"
            try:
                tasks = os.listdir(task_dir)
            except OSError:
                continue
            for task in tasks:
                try:
                    with open(f"{task_dir}/{task}/children") as handle:
                        queue.extend(int(child) for child in handle.read().split())
                except OSError:
                    pass
        return found

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets (VmHWM) of the server's processes."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGINT (graceful: the server stops its workers), then escalate."""
        if self.proc is None:
            return
        descendants = [pid for pid in self.pids() if pid != self.proc.pid]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in descendants:
            _wait_gone(pid)
        self._log.close()


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not os.path.exists(f"/proc/{pid}"):
            return
        try:
            with open(f"/proc/{pid}/stat") as handle:
                if handle.read().split(")")[-1].split()[0] == "Z":
                    return  # exited; its new parent reaps it
        except OSError:
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except OSError:
        pass


# -- requests ----------------------------------------------------------------------------


@dataclass
class Request:
    method: str
    path: str
    body: Optional[bytes]
    #: "answer" (engine-bound read), "write" (PATCH) or "other".
    kind: str
    #: What the verifier needs to know about the request.
    tag: object
    on_done: Optional[Callable[["Result"], None]] = None


@dataclass
class Result:
    kind: str
    tag: object
    sent: float
    received: float
    status: int
    trace_id: str
    body: bytes

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000.0


def json_request(method, path, payload, kind, tag, on_done=None) -> Request:
    body = None if payload is None else json.dumps(payload).encode("utf-8")
    return Request(method, path, body, kind, tag, on_done)


class Connection:
    """One keep-alive HTTP/1.1 connection to the server."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb", buffering=65536)

    def close(self) -> None:
        try:
            self.reader.close()
            self.sock.close()
        except OSError:
            pass

    def request(self, req: Request, trace_id: str) -> Tuple[int, bytes]:
        body = req.body or b""
        head = (
            f"{req.method} {req.path} HTTP/1.1\r\n"
            f"Host: 127.0.0.1\r\n"
            f"X-Repro-Trace-Id: {trace_id}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        try:
            self.sock.sendall(head + body)
            status_line = self.reader.readline()
            if not status_line:
                raise ConnectionError("connection closed")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            payload = self.reader.read(length) if length else b""
            return status, payload
        except (OSError, ValueError, IndexError):
            self.close()
            self._open()
            return TRANSPORT_FAILURE, b""


def drive(
    port: int,
    scripts: Sequence[Iterator[Request]],
    until: Optional[float] = None,
    trace_prefix: str = "0",
) -> List[Result]:
    """Run one closed-loop caller per script until ``until`` (perf_counter).

    With ``until=None`` every script runs to exhaustion (warm-up).  Returns
    every completed request, in no particular order.
    """
    results: List[List[Result]] = [[] for _ in scripts]
    errors: List[BaseException] = []

    def caller(index: int, script: Iterator[Request]) -> None:
        try:
            conn = Connection(port)
        except OSError as exc:
            errors.append(exc)
            return
        try:
            for n, req in enumerate(script):
                if until is not None and time.perf_counter() >= until:
                    break
                trace_id = f"{trace_prefix}{index:04x}{n:012x}"
                sent = time.perf_counter()
                status, body = conn.request(req, trace_id)
                result = Result(
                    req.kind, req.tag, sent, time.perf_counter(), status, trace_id, body
                )
                results[index].append(result)
                if req.on_done is not None:
                    req.on_done(result)
        except BaseException as exc:  # reported by the caller of drive()
            errors.append(exc)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=caller, args=(i, s), daemon=True)
        for i, s in enumerate(scripts)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return [result for per_conn in results for result in per_conn]
