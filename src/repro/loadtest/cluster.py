"""Real-process cluster management for the load/chaos harness.

:class:`ManagedProcess` wraps one ``taxogram`` subprocess: it spawns
``python -m repro.cli ...``, drains stdout on a reader thread (so the
child can never block on a full pipe mid-chaos), parses the ready
banner for the bound ephemeral port, and supports the two operations
chaos needs — ``sigkill()`` (the unclean death no destructor runs
for) and ``restart()`` (respawn with the port *pinned* to the one the
first incarnation bound, so clients mid-run reconnect to the same
address and recovery is observable as a service, not a new deploy).

The ``spawn_*`` helpers encode the argv shapes of the serving tier so
tests and the ``taxogram loadtest`` command build process trees the
same way.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "BANNER_ADDRESS",
    "ManagedProcess",
    "spawn_follower",
    "spawn_ingest",
    "spawn_router",
    "spawn_serve",
    "taxogram_argv",
]

BANNER_ADDRESS = re.compile(r"http://([^\s:]+):(\d+)")


def taxogram_argv(*args: str) -> list[str]:
    """``python -u -m repro.cli <args>`` (unbuffered: banners arrive)."""
    return [sys.executable, "-u", "-m", "repro.cli", *args]


def _child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    if extra:
        env.update(extra)
    return env


class ManagedProcess:
    """One supervised ``taxogram`` subprocess with a parsed banner."""

    def __init__(
        self,
        args: list[str],
        cwd: str | Path | None = None,
        env: dict | None = None,
        name: str = "taxogram",
    ) -> None:
        self.args = list(args)
        self.cwd = None if cwd is None else str(cwd)
        self.env = _child_env(env)
        self.name = name
        self.host: str | None = None
        self.port: int | None = None
        self.lines: list[str] = []
        self._process: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._lines_changed = threading.Condition()

    # -- lifecycle ------------------------------------------------------------

    def start(self, banner_timeout: float = 30.0) -> "ManagedProcess":
        self._process = subprocess.Popen(
            taxogram_argv(*self.args),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=self.cwd,
            env=self.env,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        banner = self.wait_for_line(BANNER_ADDRESS, banner_timeout)
        match = BANNER_ADDRESS.search(banner)
        self.host, self.port = match.group(1), int(match.group(2))
        return self

    def _drain(self) -> None:
        process = self._process
        assert process is not None and process.stdout is not None
        for line in process.stdout:
            with self._lines_changed:
                self.lines.append(line.rstrip("\n"))
                self._lines_changed.notify_all()
        with self._lines_changed:
            self._lines_changed.notify_all()

    def wait_for_line(
        self, pattern: str | re.Pattern, timeout: float = 30.0
    ) -> str:
        """Block until a stdout line matches; returns that line."""
        regex = re.compile(pattern) if isinstance(pattern, str) else pattern
        deadline = time.monotonic() + timeout
        seen = 0
        with self._lines_changed:
            while True:
                while seen < len(self.lines):
                    if regex.search(self.lines[seen]):
                        return self.lines[seen]
                    seen += 1
                if self._process is not None and (
                    self._process.poll() is not None
                ):
                    raise RuntimeError(
                        f"{self.name} exited (code "
                        f"{self._process.returncode}) before matching "
                        f"{regex.pattern!r}; output:\n" + self.output()
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{self.name}: no line matching {regex.pattern!r} "
                        f"within {timeout}s; output:\n" + self.output()
                    )
                self._lines_changed.wait(min(remaining, 0.2))

    def output(self) -> str:
        with self._lines_changed:
            return "\n".join(self.lines)

    @property
    def url(self) -> str:
        assert self.host is not None and self.port is not None
        return f"http://{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    # -- chaos operations -----------------------------------------------------

    def sigkill(self) -> None:
        """Unclean death: no flush, no WAL truncation, no goodbye."""
        assert self._process is not None
        self._process.send_signal(signal.SIGKILL)
        self._process.wait(timeout=30)

    def restart(self, banner_timeout: float = 30.0) -> "ManagedProcess":
        """Respawn on the *same* port the first incarnation bound."""
        assert not self.alive, "restart() needs a dead process"
        port = self.port
        assert port is not None, "restart() needs a parsed banner"
        args = list(self.args)
        try:
            flag = args.index("--port")
            args[flag + 1] = str(port)
        except ValueError:
            args += ["--port", str(port)]
        self.args = args
        with self._lines_changed:
            self.lines.append(f"-- restart on port {port} --")
        # The dying listener's socket may linger briefly; the CLI binds
        # with SO_REUSEADDR, so one respawn attempt per beat suffices.
        deadline = time.monotonic() + banner_timeout
        while True:
            try:
                return self.start(banner_timeout)
            except RuntimeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    def terminate(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM shutdown; returns the exit code."""
        assert self._process is not None
        if self._process.poll() is None:
            self._process.send_signal(signal.SIGTERM)
            try:
                self._process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait(timeout=10)
        if self._reader is not None:
            self._reader.join(timeout=10)
        return self._process.returncode

    def kill(self) -> None:
        """Last-resort cleanup (idempotent)."""
        if self._process is not None and self._process.poll() is None:
            self._process.kill()
            self._process.wait(timeout=10)


# -- argv shapes for the serving tier -----------------------------------------


def spawn_ingest(
    store: str | Path,
    wal: str | Path,
    cwd: str | Path | None = None,
    *,
    port: int = 0,
    max_lag: int | None = None,
    batch_latency: float = 0.02,
    publish: bool = False,
    secret: str | None = None,
    env: dict | None = None,
) -> ManagedProcess:
    args = [
        "ingest", str(store), "--wal", str(wal), "--serve",
        "--port", str(port), "--batch-latency", str(batch_latency),
    ]
    if max_lag is not None:
        args += ["--max-lag", str(max_lag)]
    if publish:
        args.append("--publish")
    if secret is not None:
        args += ["--secret", secret]
    return ManagedProcess(args, cwd=cwd, env=env, name="ingest")


def spawn_serve(
    store: str | Path,
    cwd: str | Path | None = None,
    *,
    port: int = 0,
    env: dict | None = None,
) -> ManagedProcess:
    args = ["serve", str(store), "--port", str(port)]
    return ManagedProcess(args, cwd=cwd, env=env, name="serve")


def spawn_follower(
    store: str | Path,
    wal: str | Path,
    primary_url: str,
    cwd: str | Path | None = None,
    *,
    port: int = 0,
    poll_interval: float = 0.05,
    secret: str | None = None,
    env: dict | None = None,
) -> ManagedProcess:
    args = [
        "replicate", str(store), "--from", primary_url,
        "--wal", str(wal), "--serve", "--port", str(port),
        "--poll-interval", str(poll_interval),
    ]
    if secret is not None:
        args += ["--secret", secret]
    return ManagedProcess(args, cwd=cwd, env=env, name="replicate")


def spawn_router(
    replica_urls: list[str],
    cwd: str | Path | None = None,
    *,
    port: int = 0,
    max_staleness: int | None = None,
    env: dict | None = None,
) -> ManagedProcess:
    args = ["route"]
    for url in replica_urls:
        args += ["--replica", url]
    args += ["--port", str(port)]
    if max_staleness is not None:
        args += ["--max-staleness", str(max_staleness)]
    return ManagedProcess(args, cwd=cwd, env=env, name="route")
