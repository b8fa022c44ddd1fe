"""Server process control, HTTP client and run accounting.

Everything here speaks to the program only through its command line
(``python -m repro.app``), its HTTP API and the operating system's view
of the server process (``/proc``, ``/dev/shm``), so the timed phase
measures exactly what a user of the server would see.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

# Shared-memory segments the sharded miner exports live here; a segment
# that outlives its server is a leak.
SHM_DIR = "/dev/shm"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 120.0


def work_dir(root: str) -> str:
    """Scratch directory for server logs, stores and spans (git-ignored)."""
    path = os.path.join(root, ".perfbench_out")
    os.makedirs(path, exist_ok=True)
    return path


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


@dataclass
class Reply:
    """One HTTP exchange: status, decoded JSON body and wall latency."""

    path: str
    status: int
    body: object
    seconds: float


class Client:
    """Minimal HTTP/1.0 client: one TCP connection per request, as the
    server closes the socket after every response."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port

    def request(
        self,
        path: str,
        body: bytes | None = None,
        timeout: float = REQUEST_TIMEOUT_S,
        expect_json: bool = True,
        headers: dict[str, str] | None = None,
    ) -> Reply:
        started = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
        try:
            method = "GET" if body is None else "POST"
            sent = dict(headers or {})
            if body is not None:
                sent["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=sent)
            response = conn.getresponse()
            raw = response.read()
            status = response.status
        except (OSError, http.client.HTTPException) as exc:
            return Reply(path, 0, {"error": repr(exc)}, time.perf_counter() - started)
        finally:
            conn.close()
        elapsed = time.perf_counter() - started
        if not expect_json:
            return Reply(path, status, None, elapsed)
        try:
            payload = json.loads(raw) if raw else None
        except ValueError:
            payload = {"error": "response is not JSON", "raw": raw[:200].decode(errors="replace")}
            status = status if status != 200 else -1
        return Reply(path, status, payload, elapsed)


def _proc_status(pid: int) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                out[key] = value.strip()
    except OSError:
        pass
    return out


def _children(pid: int) -> list[int]:
    """Direct and indirect children of ``pid`` (from ``/proc``)."""
    parents: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # comm may hold spaces and parentheses: split after the last ')'.
        fields = stat.rsplit(")", 1)[1].split()
        parents[int(name)] = int(fields[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux ``PR_SET_CHILD_SUBREAPER``).

    A process the server leaves behind is re-parented to this process
    instead of init, so ``ServerRun.stop`` can still find it.
    """
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(36, 1, 0, 0, 0) != 0:  # PR_SET_CHILD_SUBREAPER
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


@dataclass
class ServerRun:
    """A ``python -m repro.app`` process started by the benchmark.

    ``launched`` is the launch instant (``time.perf_counter``) so that
    set-up time can be measured from it. ``stop()`` asks the server to
    shut down with SIGINT (its documented Ctrl-C path), waits, and
    records every leftover it can see: an unclean exit, a surviving
    child process or a new ``/dev/shm`` segment.
    """

    root: str
    extra_args: list[str] = field(default_factory=list)
    port: int = 0
    proc: subprocess.Popen | None = None
    launched: float = 0.0
    leaks: list[str] = field(default_factory=list)
    log_path: str = ""
    _shm_before: set[str] = field(default_factory=set)
    _children_seen: set[int] = field(default_factory=set)

    def start(self) -> "ServerRun":
        self.port = free_port()
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.setdefault("PYTHONHASHSEED", "0")
        self._shm_before = shm_entries()
        self.log_path = os.path.join(work_dir(self.root), f"server-{self.port}.log")
        with open(self.log_path, "wb") as log:
            self.launched = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.app", "--port", str(self.port), "--seed", "0", *self.extra_args],
                cwd=self.root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        return self

    @property
    def client(self) -> Client:
        return Client(self.port)

    def wait_ready(self) -> float:
        """Poll the index page until it answers; returns seconds since launch."""
        deadline = time.perf_counter() + READY_TIMEOUT_S
        client = self.client
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                with open(self.log_path, errors="replace") as fh:
                    err = fh.read()[-2000:]
                raise RuntimeError(f"server exited during start-up: {err}")
            reply = client.request("/", timeout=5.0, expect_json=False)
            if reply.status == 200:
                return time.perf_counter() - self.launched
            time.sleep(0.01)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        return _kb(_proc_status(self.proc.pid).get("VmHWM", "0 kB")) / 1024.0

    def rss_mb(self) -> float:
        return _kb(_proc_status(self.proc.pid).get("VmRSS", "0 kB")) / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU of the server and its reaped children."""
        try:
            with open(f"/proc/{self.proc.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        ticks = sum(int(x) for x in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def note_children(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self._children_seen.update(_children(self.proc.pid))

    def stop(self) -> list[str]:
        """Stop the server and return the leftovers found (empty = clean)."""
        if self.proc is None:
            return []
        self.note_children()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            code = None
        if code != 0:
            self.leaks.append(f"server exit code {code} (log: {self.log_path})")
        else:
            os.unlink(self.log_path)
        # Descendants the server left behind are now this process's
        # children (it is a subreaper); give exiting ones a moment.
        deadline = time.perf_counter() + 5.0
        survivors = set(self._children_seen) | set(_children(os.getpid()))
        survivors = [p for p in survivors if _alive(p)]
        while survivors and time.perf_counter() < deadline:
            time.sleep(0.05)
            survivors = [p for p in survivors if _alive(p)]
        for pid in survivors:
            self.leaks.append(f"child process {pid} outlived the server")
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        _reap_orphans()
        for name in sorted(shm_entries() - self._shm_before):
            self.leaks.append(f"shared-memory segment {name} outlived the server")
        self.proc = None
        return self.leaks


def _reap_orphans() -> None:
    """Collect the exit status of adopted descendants that have ended.

    Only processes adopted from a stopped server are reaped: when this
    runs, the benchmark has no child of its own left running.
    """
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _kb(value: str) -> float:
    parts = value.split()
    return float(parts[0]) if parts else 0.0


def metric_counters(client: Client) -> dict[str, float]:
    """The counters of ``/api/metrics`` (empty when unreachable)."""
    reply = client.request("/api/metrics")
    if reply.status != 200 or not isinstance(reply.body, dict):
        return {}
    return {k: float(v) for k, v in reply.body.get("counters", {}).items()}


def counter_delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


@dataclass
class Tally:
    """Attempted and failed operations per phase of one run."""

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)
    rejected: int = 0

    def ok(self, phase: str) -> None:
        self.attempted[phase] = self.attempted.get(phase, 0) + 1

    def fail(self, phase: str, reason: str) -> None:
        self.ok(phase)
        self.failed[phase] = self.failed.get(phase, 0) + 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{phase}: {reason}")

    def reject(self, phase: str, reason: str) -> None:
        """Turn an already-attempted operation into a failed one: its
        answer was wrong (the checker refused it)."""
        self.rejected += 1
        self.failed[phase] = self.failed.get(phase, 0) + 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{phase}: {reason}")

    def teardown(self, leaks: list[str]) -> None:
        """One server stop: failed when it left anything behind."""
        if leaks:
            self.fail("teardown", "; ".join(leaks))
        else:
            self.ok("teardown")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


def machine_record(root: str) -> dict[str, object]:
    """nproc, interpreter and numpy versions and the commit measured."""
    import platform

    import numpy

    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                commit = fh.read().strip()
        else:
            commit = ref
    except OSError:
        # A checkout without git metadata: identify the source tree by
        # a digest of the program files instead.
        import hashlib

        digest = hashlib.sha1()
        src = os.path.join(root, "src")
        for base, dirs, files in sorted(os.walk(src)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    with open(os.path.join(base, name), "rb") as fh:
                        digest.update(name.encode() + fh.read())
        commit = "src-sha1:" + digest.hexdigest()[:12]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }
