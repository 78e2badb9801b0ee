"""Local multi-process cluster harness (loadgen, cluster smoke, CI).

:class:`LocalCluster` boots N real ``repro-serve serve`` processes on
localhost, each with its own store and job-queue directory and every
other node in its ``--peer`` list, so the full cluster stack -- ring
placement, HTTP peer forwarding, warm handoff, persistent jobs -- runs
exactly as deployed, just with all the "machines" on one host.  The
harness can SIGKILL a node mid-sweep and restart it with the same
identity and directories, which is how the cluster smoke proves the
job queue's kill -9 resume contract.

Ports are pre-picked (bound to 0, then released) because consistent
hashing needs every member's advertised URL *before* any member starts;
the bind-release race is real but vanishing on a CI host, and
:meth:`LocalCluster.start` fails loudly if a node never turns healthy.
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
from pathlib import Path


class ClusterError(RuntimeError):
    """A node failed to boot, respond, or die on request."""


def pick_ports(count: int) -> list[int]:
    """``count`` distinct free TCP ports, all held until chosen."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def probe(url: str, path: str = "/healthz", timeout: float = 2.0) -> dict | None:
    """GET a JSON endpoint; ``None`` on any failure (dead node)."""
    from repro.serve.client import split_server_url

    host, port = split_server_url(url)
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        if response.status != 200:
            return None
        return json.loads(response.read())
    except (OSError, http.client.HTTPException, json.JSONDecodeError):
        return None
    finally:
        conn.close()


@dataclass
class ClusterNode:
    """One member process and everything needed to restart it."""

    index: int
    url: str
    port: int
    cache_dir: Path
    jobs_dir: Path
    log_path: Path
    argv: list[str] = field(default_factory=list)
    process: subprocess.Popen | None = None

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None


class LocalCluster:
    """N-node localhost cluster of real server processes."""

    def __init__(
        self,
        root: str | Path,
        nodes: int = 3,
        pools: int = 1,
        workers: int = 1,
        env: dict[str, str] | None = None,
        handoff: bool = False,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"need at least one node, got {nodes}")
        self.root = Path(root)
        self.pools = pools
        self.workers = workers
        self.handoff = handoff
        #: Extra environment for every node (hermetic smoke/loadgen runs
        #: pin REPRO_CACHE here).
        self.env = dict(env or {})
        ports = pick_ports(nodes)
        self.nodes: list[ClusterNode] = []
        for index, port in enumerate(ports):
            node_dir = self.root / f"node{index}"
            self.nodes.append(
                ClusterNode(
                    index=index,
                    url=f"http://127.0.0.1:{port}",
                    port=port,
                    cache_dir=node_dir / "store",
                    jobs_dir=node_dir / "jobs",
                    log_path=node_dir / "serve.log",
                )
            )

    @property
    def urls(self) -> list[str]:
        return [node.url for node in self.nodes]

    # ------------------------------------------------------------------
    def _argv(self, node: ClusterNode) -> list[str]:
        argv = [
            sys.executable, "-m", "repro.serve", "serve",
            "--host", "127.0.0.1",
            "--port", str(node.port),
            "--node-url", node.url,
            "--cache-dir", str(node.cache_dir),
            "--jobs-dir", str(node.jobs_dir),
            "--pools", str(self.pools),
            "--workers", str(self.workers),
        ]
        for peer in self.nodes:
            if peer.index != node.index:
                argv += ["--peer", peer.url]
        if self.handoff:
            argv.append("--handoff")
        return argv

    def launch(self, node: ClusterNode) -> None:
        node.cache_dir.mkdir(parents=True, exist_ok=True)
        node.jobs_dir.mkdir(parents=True, exist_ok=True)
        node.argv = self._argv(node)
        log = node.log_path.open("ab")
        try:
            # Own session => own process group: killing the node kills
            # its forked pool workers too, which otherwise outlive a
            # SIGKILLed parent and keep its port bound against restart.
            node.process = subprocess.Popen(
                node.argv,
                stdout=log,
                stderr=subprocess.STDOUT,
                env={**os.environ, **self.env},
                start_new_session=True,
            )
        finally:
            log.close()  # the child holds its own descriptor

    def start(self, timeout: float = 60.0) -> "LocalCluster":
        for node in self.nodes:
            self.launch(node)
        self.wait_healthy(timeout=timeout)
        return self

    def wait_healthy(
        self, timeout: float = 60.0, indices: list[int] | None = None
    ) -> None:
        deadline = time.monotonic() + timeout
        todo = list(self.nodes if indices is None else
                    (self.nodes[i] for i in indices))
        for node in todo:
            while probe(node.url) is None:
                if not node.alive():
                    raise ClusterError(
                        f"node {node.index} exited with "
                        f"{node.process.returncode if node.process else '?'} "
                        f"(log: {node.log_path})"
                    )
                if time.monotonic() > deadline:
                    raise ClusterError(
                        f"node {node.index} never became healthy "
                        f"(log: {node.log_path})"
                    )
                time.sleep(0.05)

    # ------------------------------------------------------------------
    @staticmethod
    def _killpg(node: ClusterNode, sig: int) -> None:
        if node.process is None:
            return
        try:
            os.killpg(node.process.pid, sig)  # session leader: pgid == pid
        except ProcessLookupError:
            pass

    def kill(self, index: int) -> None:
        """SIGKILL one node (and its worker group) -- no shutdown hooks
        run, by design: this is the crash the job queue must survive."""
        node = self.nodes[index]
        if node.process is not None and node.process.poll() is None:
            self._killpg(node, signal.SIGKILL)
            node.process.wait(timeout=30)

    def restart(self, index: int, timeout: float = 60.0) -> None:
        """Relaunch a (dead) node with its exact identity: same URL,
        same store, same job queue.  Resume happens in its start path."""
        node = self.nodes[index]
        if node.alive():
            raise ClusterError(f"node {index} is still running")
        self.launch(node)
        self.wait_healthy(timeout=timeout, indices=[index])

    def stats(self) -> list[dict | None]:
        """Every node's ``/stats`` (None for dead nodes)."""
        return [probe(node.url, "/stats", timeout=10.0) for node in self.nodes]

    def stop(self) -> None:
        for node in self.nodes:
            if node.process is not None and node.process.poll() is None:
                node.process.terminate()
        for node in self.nodes:
            if node.process is not None:
                try:
                    node.process.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    node.process.kill()
                    node.process.wait(timeout=15)
                finally:
                    # Reap stragglers: pool workers whose parent died
                    # without unwinding its executors.
                    self._killpg(node, signal.SIGKILL)

    # ------------------------------------------------------------------
    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
