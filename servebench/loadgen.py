"""Server processes and the closed-loop clients that drive them.

``repro serve`` and ``repro mcp`` run as subprocesses of the benchmark,
with their default configuration (the HTTP server on an ephemeral
port).  HTTP traffic goes through the shipped ``ServeClient`` with its
socket options untouched; ``mcp`` traffic is newline-delimited
JSON-RPC over the subprocess's stdin/stdout pipes.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import canonical, failed_queries
from workloads import HTTP_PATHS, Op, Stream

#: Seconds a server may take to print its address or to exit.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


@dataclass(slots=True)
class Sample:
    """One answered operation.

    The answer is kept only as canonical JSON (see :mod:`oracle`), which
    is several times smaller than the parsed body.
    """

    index: int
    op: Op
    t0: float
    t1: float
    answer: str
    failed: int

    @classmethod
    def of(cls, index: int, op: Op, t0: float, t1: float,
           status: int | None, body: object,
           pool: dict[str, str] | None = None) -> "Sample":
        """``status`` is None after a transport exception; equal answers
        share one string through ``pool``."""
        answer = canonical(status, body)
        if pool is not None:
            answer = pool.setdefault(answer, answer)
        return cls(index, op, t0, t1, answer,
                   failed_queries(op, status, body))


class HttpCaller:
    """Sends stream operations with one shared ``ServeClient`` (one
    keep-alive connection per calling thread)."""

    rpc = False

    def __init__(self, client) -> None:
        self.client = client

    def __call__(self, index: int, op: Op,
                 traced: bool = False) -> tuple[int | None, object]:
        path = HTTP_PATHS[op.endpoint]
        if traced:
            # The server routes on the path before '?', so a query string
            # carries the request id to the traced handler untouched.
            path = f"{path}?rid={index}"
        try:
            response = self.client.request("POST", path, op.payload)
        except (OSError, ValueError, http.client.HTTPException) as exc:
            return None, repr(exc)
        return response.status, response.body


class McpPipe:
    """A JSON-RPC client over a pair of text pipes."""

    rpc = True

    def __init__(self, to_bridge, from_bridge) -> None:
        self._out = to_bridge
        self._in = from_bridge

    def __call__(self, index: int, op: Op) -> tuple[int | None, object]:
        self._out.write(json.dumps({"jsonrpc": "2.0", "id": index,
                                    "method": op.endpoint,
                                    "params": op.payload}) + "\n")
        self._out.flush()
        line = self._in.readline()
        if not line:
            return None, "bridge closed its output"
        response = json.loads(line)
        if "result" in response:
            return 200, response["result"]
        return response.get("error", {}).get("code"), response.get("error")


class ServerProcess:
    """One ``python -m repro serve|mcp`` subprocess."""

    def __init__(self, root: Path, command: str, log_dir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        args = [sys.executable, "-m", "repro", command]
        if command == "serve":
            args += ["--port", "0"]
        log_dir.mkdir(parents=True, exist_ok=True)
        self._log = open(log_dir / f"{command}.stderr.log", "ab")
        self.command = command
        self.spawned_at = time.perf_counter()
        self.proc = subprocess.Popen(
            args, cwd=root, env=env, text=True, bufsize=1,
            stdin=subprocess.PIPE if command == "mcp" else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log)
        self.pid = self.proc.pid
        self.port: int | None = None
        if command == "serve":
            self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        # "repro serve listening on http://127.0.0.1:PORT (...)"
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        return int(line.split("listening on http://", 1)[1]
                   .split()[0].rsplit(":", 1)[1])

    def mcp_pipe(self) -> McpPipe:
        return McpPipe(self.proc.stdin, self.proc.stdout)

    def stop(self) -> None:
        """Shut down gracefully (SIGINT / EOF), then kill if it hangs;
        always waits for the process to end."""
        try:
            if self.proc.poll() is None:
                if self.command == "serve":
                    self.proc.send_signal(signal.SIGINT)
                else:
                    self.proc.stdin.close()
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None and not stream.closed:
                    try:
                        stream.close()
                    except OSError:
                        pass
            self._log.close()


def closed_loop(call, stream: Stream, clients: int, seconds: float,
                samples: list[Sample]) -> float:
    """Run ``clients`` closed-loop clients for ``seconds``; appends one
    :class:`Sample` per answered operation and returns the elapsed wall
    time.  The calling thread is client 0, so a client's keep-alive
    connection is the one the caller already holds.  A client stops at
    its first transport failure: against a dead server it would
    otherwise spin through failures as fast as it can."""
    lock = threading.Lock()
    pool: dict[str, str] = {}
    start = time.perf_counter()
    deadline = start + seconds
    ends = [start] * clients

    def client(slot: int) -> None:
        local: list[Sample] = []
        while time.perf_counter() < deadline:
            index, op = stream.take()
            t0 = time.perf_counter()
            status, body = call(index, op)
            t1 = time.perf_counter()
            local.append(Sample.of(index, op, t0, t1, status, body, pool))
            if status is None:
                break
        ends[slot] = time.perf_counter()
        with lock:
            samples.extend(local)

    threads = [threading.Thread(target=client, args=(k,), daemon=True)
               for k in range(1, clients)]
    for thread in threads:
        thread.start()
    try:
        client(0)
    finally:
        for thread in threads:
            thread.join()
    return max(ends) - start
