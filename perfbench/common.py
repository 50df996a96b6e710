"""Shared plumbing for the benchmark: paths, child processes, /proc
readings, a keep-alive HTTP client and summary statistics.

Nothing here imports the program under test; the program lives in
``src/`` of the checkout the benchmark runs from and is only ever run
in child processes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

# The Fig 4.2 analog every workload runs on: the first DATABASE_GRAPHS
# graphs the D5000 generator draws.  The benchmark asks it for
# POOL_SCALE x 5000 graphs; the rest are further draws of the same
# generator, from which ``ingest`` picks the graphs it adds.
DATASET = "D5000"
DATABASE_GRAPHS = 500
POOL_SCALE = 0.2
TAXONOMY_SCALE = 0.01
SIGMA = 0.2
MAX_EDGES = 3

# Fixed service settings (see README.md, "Fixed settings").
BATCH_LATENCY_S = 0.02
FOLLOWER_POLL_S = 0.05

CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark cannot run: missing program, a process that will
    not start, an operation that cannot be measured."""


def check_program() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"program source not found: expected {SRC / 'repro' / 'cli.py'}"
            " (run from the root of a checkout)"
        )


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    tmp = workdir / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_FAULTPOINTS_FILE", None)
    env.pop("REPRO_BENCH_JSON_DIR", None)
    return env


def cli_argv(args: list[str], trace_out: Path | None, role: str) -> list[str]:
    """argv that runs ``taxogram <args>``: plain ``python -m repro`` when
    untraced, the span-recording launcher when traced."""
    if trace_out is None:
        return [sys.executable, "-m", "repro", *args]
    return [
        sys.executable, str(BENCH / "launch.py"),
        "--trace-out", str(trace_out), "--role", role, "--", *args,
    ]


def run_cli(args: list[str], env: dict, cwd: Path, timeout: float = 170.0) -> str:
    """Run one short CLI command to completion; returns its stdout."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env, cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchError(
            f"taxogram {' '.join(args[:2])} exited {done.returncode}: "
            f"{done.stderr.strip()[-400:]}"
        )
    return done.stdout


# -- long-running child processes ---------------------------------------------


class Proc:
    """A child process whose stdout goes to a log file (no reader thread,
    so the benchmark's own thread count stays fixed)."""

    _count = 0

    def __init__(self, argv: list[str], env: dict, cwd: Path, name: str) -> None:
        Proc._count += 1
        self.name = name
        self.log = Path(env["TMPDIR"]) / f"proc-{Proc._count}.log"
        self._handle = open(self.log, "w")
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
            stdout=self._handle, stderr=subprocess.STDOUT,
        )
        self.pid = self.popen.pid
        self.matched_at = self.started
        self._terminated = False

    def lines(self) -> list[str]:
        try:
            return self.log.read_text(errors="replace").splitlines()
        except OSError:
            return []

    def wait_line(self, pattern: str, timeout: float = 120.0) -> re.Match:
        """Block until a stdout line matches ``pattern``; the time it was
        seen is left in :attr:`matched_at` (polled every 5 ms)."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        while True:
            exited = self.popen.poll() is not None
            for line in self.lines():
                found = regex.search(line)
                if found:
                    self.matched_at = time.perf_counter()
                    return found
            if exited:
                raise BenchError(
                    f"{self.name} exited {self.popen.returncode} before "
                    f"printing /{pattern}/: {self.tail()}"
                )
            if time.monotonic() > deadline:
                raise BenchError(
                    f"{self.name} did not print /{pattern}/ within "
                    f"{timeout:.0f} s: {self.tail()}"
                )
            time.sleep(0.005)

    def ready_seconds(self, pattern: str, timeout: float = 120.0) -> float:
        """Seconds from spawn until a line matching ``pattern``."""
        self.wait_line(pattern, timeout)
        return self.matched_at - self.started

    def url(self, timeout: float = 120.0) -> str:
        """The address the process serves at (the banner's ``at URL``)."""
        return self.wait_line(r" at (http://127\.0\.0\.1:\d+)", timeout).group(1)

    def tail(self, n: int = 6) -> str:
        return " | ".join(self.lines()[-n:])

    def readings(self) -> dict:
        """CPU seconds, bytes written and peak RSS from /proc, read while
        the process is alive."""
        return proc_readings(self.pid)

    def wait(self, timeout: float) -> int:
        try:
            return self.popen.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"{self.name} did not finish within {timeout:.0f} s")

    def terminate(self) -> None:
        """Send SIGTERM once, without waiting."""
        if self.popen.poll() is None and not self._terminated:
            self.popen.send_signal(signal.SIGTERM)
            self._terminated = True

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for a graceful exit, SIGKILL as a last resort."""
        self.terminate()
        if self.popen.poll() is None:
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(10)
        self._handle.close()
        return self.popen.returncode

    def kill(self) -> None:
        if self.popen.poll() is None:
            self.popen.kill()
        self.popen.wait(10)
        self._handle.close()


def proc_readings(pid: int | str = "self") -> dict:
    out = {"cpu_s": 0.0, "wchar": 0, "vmhwm_mb": 0.0}
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2:].split()
        out["cpu_s"] = (int(fields[11]) + int(fields[12])) / CLK_TCK
        for line in Path(f"/proc/{pid}/io").read_text().splitlines():
            if line.startswith("wchar:"):
                out["wchar"] = int(line.split()[1])
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                out["vmhwm_mb"] = int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return out


class ProcGroup:
    """Every child a workload starts, so all are stopped on any exit."""

    def __init__(self) -> None:
        self.procs: list[Proc] = []

    def start(self, argv, env, cwd, name) -> Proc:
        proc = Proc(argv, env, cwd, name)
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in reversed(self.procs):
            try:
                proc.stop(timeout=30)
            except Exception:  # noqa: BLE001 - must reach every child
                proc.kill()
        self.procs.clear()


# -- HTTP --------------------------------------------------------------------


class Client:
    """A keep-alive HTTP/1.1 connection that reconnects when the server
    closes (the threaded fronts answer HTTP/1.0-style, one request per
    connection)."""

    def __init__(self, url: str, timeout: float = 120.0) -> None:
        match = re.match(r"http://([^:/]+):(\d+)", url)
        self.host, self.port = match.group(1), int(match.group(2))
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, doc: dict | None = None):
        """One request; returns ``(status, decoded JSON or None)``."""
        body = None if doc is None else json.dumps(doc).encode()
        try:
            resp, data = self._exchange(method, path, body)
        except (http.client.HTTPException, OSError):
            # A kept-alive connection the server has closed since.
            self.close()
            resp, data = self._exchange(method, path, body)
        if resp.will_close:
            self.close()
        try:
            payload = json.loads(data) if data else None
        except ValueError:
            payload = None
        return resp.status, payload

    def _exchange(self, method: str, path: str, body: bytes | None):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        headers = {"Content-Type": "application/json"} if body else {}
        self._conn.request(method, path, body=body, headers=headers)
        resp = self._conn.getresponse()
        return resp, resp.read()

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def fetch_metrics(client: Client) -> dict:
    """A process's ``GET /metrics`` document (``{}`` when unavailable)."""
    status, payload = client.request("GET", "/metrics")
    return payload if status == 200 and isinstance(payload, dict) else {}


def counter_delta(before: dict, after: dict, name: str) -> float:
    """Growth of one ``/metrics`` counter between two documents."""
    def value(doc: dict) -> float:
        return doc.get("counters", {}).get(name, 0)

    return value(after) - value(before)


def readings_delta(before: dict, after: dict) -> dict:
    """CPU and bytes written between two :func:`proc_readings`; peak RSS
    as of the later one."""
    return {"cpu_s": after["cpu_s"] - before["cpu_s"],
            "wchar": after["wchar"] - before["wchar"],
            "vmhwm_mb": after["vmhwm_mb"]}


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def dir_bytes(path: Path) -> tuple[int, int]:
    """(total bytes, file count) under ``path``."""
    total = files = 0
    for entry in path.rglob("*"):
        if entry.is_file():
            total += entry.stat().st_size
            files += 1
    return total, files


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def load_json(path: Path):
    return json.loads(path.read_text())
