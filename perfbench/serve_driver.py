"""Drive a ``python -m repro serve`` daemon from outside.

:class:`Daemon` starts the daemon on an ephemeral port with its default
configuration (pool backend, ``--jobs`` = CPU count, fused dispatch),
times boot to the first ``/healthz``, reads the CPU and peak RSS of the
daemon and its pool workers from ``/proc``, scrapes ``/state``, and
shuts down so that no worker outlives it.  :func:`closed_loop` is the
load generator: ``clients`` threads, each sending its next request only
after the previous reply.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_BOOT_TIMEOUT = 60.0
_STOP_TIMEOUT = 30.0


def _children(pid: int) -> List[int]:
    """Direct children of ``pid`` (all threads' child lists)."""
    found: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tasks = os.listdir(task_dir)
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"{task_dir}/{task}/children") as handle:
                found.extend(int(item) for item in handle.read().split())
        except OSError:
            continue
    return found


def process_tree(pid: int) -> List[int]:
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def _stat_fields(pid: int) -> List[str]:
    """Fields of ``/proc/<pid>/stat`` after the command name ([] if gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return []


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return bool(fields) and fields[0] != "Z"


def cpu_seconds(pid: int) -> float:
    """User + system CPU of one live process (0 once it is gone)."""
    fields = _stat_fields(pid)
    if not fields:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Daemon:
    """One ``repro serve`` subprocess."""

    def __init__(self, src_dir: str, work_dir: str) -> None:
        self.src_dir = src_dir
        self.work_dir = work_dir
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self._tree: List[int] = []

    def start(self) -> "Daemon":
        env = dict(os.environ, PYTHONPATH=self.src_dir, PYTHONUNBUFFERED="1")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
            text=True,
            env=env,
            cwd=self.work_dir,
        )
        try:
            self._wait_healthy(started)
        except BaseException:  # an interrupted start must not leak the daemon
            self.stop()
            raise
        return self

    def _wait_healthy(self, started: float) -> None:
        line = self.process.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"repro serve did not start: {line!r}")
        address = line.split("listening on http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        deadline = started + _BOOT_TIMEOUT
        while True:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve never answered /healthz")
            time.sleep(0.005)

    # -- HTTP ------------------------------------------------------------
    def request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def get(self, path: str) -> Tuple[int, bytes]:
        return self.request("GET", path)

    def state(self) -> Dict[str, Any]:
        status, body = self.get("/state")
        if status != 200:
            raise RuntimeError(f"/state answered {status}")
        return json.loads(body)

    # -- resources, read from outside ------------------------------------
    def tree(self) -> List[int]:
        """The daemon and every descendant alive now (remembered for stop)."""
        assert self.process is not None
        tree = process_tree(self.process.pid)
        self._tree = sorted(set(self._tree) | set(tree))
        return tree

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.tree())

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.tree())

    # -- shutdown ----------------------------------------------------------
    def stop(self) -> None:
        """SIGINT (the daemon's clean path), then make sure all are gone."""
        if self.process is None:
            return
        process, self.process = self.process, None
        self._tree = sorted(set(self._tree) | set(process_tree(process.pid)))
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()
        leftovers = [pid for pid in self._tree if pid != process.pid]
        for _ in range(2):  # wait for the workers, then SIGKILL and wait again
            deadline = time.monotonic() + _STOP_TIMEOUT
            while leftovers and time.monotonic() < deadline:
                time.sleep(0.02)
                leftovers = [pid for pid in leftovers if _alive(pid)]
            for pid in leftovers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self._tree = []


class Reply:
    __slots__ = ("index", "status", "body", "latency")

    def __init__(self, index: int, status: int, body: bytes, latency: float):
        self.index = index
        self.status = status
        self.body = body
        self.latency = latency


def closed_loop(
    daemon: Daemon,
    requests: Iterator[Tuple[int, bytes]],
    clients: int,
    seconds: Optional[float],
) -> Tuple[List[Reply], float]:
    """Send ``requests`` from ``clients`` threads until the time is up.

    Each client takes the next ``(index, body)`` only after its previous
    reply arrived.  With ``seconds=None`` the iterator is drained.
    Returns the replies (in completion order) and the loop's wall time;
    a request that raised counts with status 0.
    """
    lock = threading.Lock()
    replies: List[Reply] = []
    started = time.perf_counter()
    stop_at = None if seconds is None else started + seconds

    def client() -> None:
        while True:
            with lock:
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return
                try:
                    index, body = next(requests)
                except StopIteration:
                    return
            sent = time.perf_counter()
            try:
                status, reply = daemon.request("POST", "/compile", body)
            except OSError:
                status, reply = 0, b""
            latency = time.perf_counter() - sent
            with lock:
                replies.append(Reply(index, status, reply, latency))

    # daemon threads: an interrupted run exits without draining its clients
    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - started
