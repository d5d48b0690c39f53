"""Set-up of the served route system the benchmark drives.

A :class:`Cluster` is one generation-0 federation built from the churn
generator (:class:`repro.netsim.churn.ChurnScenario`): the shard maps
parsed and compiled, one snapshot per shard written, and the serving
processes started until each prints its ``listening on`` line.  Two
shapes exist:

* ``local`` -- one ``pathalias serve --shard NAME=SNAP ...`` daemon
  holding every shard in process;
* ``fanout`` -- one ``pathalias serve SNAP`` backend process per shard
  behind a ``pathalias serve --backend NAME=HOST:PORT ...`` front end.

Every process is started with ``subprocess.Popen`` from this process,
logs to a file in the run's work directory (a pipe nobody drains could
stall a daemon), and is stopped with SIGINT -- the daemons' clean
shutdown path -- then waited for.
"""

from __future__ import annotations

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.netsim.churn import ChurnParams, ChurnScenario
from repro.service import store

#: How long a daemon may take to print its listening line.
START_TIMEOUT = 60.0

#: Scheduling niceness of the serving processes (see DaemonProcess).
DAEMON_NICE = 10


@contextlib.contextmanager
def pinned_generator():
    """Pin this process (the load generator) to the lowest usable CPU
    for the block and yield the CPUs left for the serving processes;
    on a single-CPU host everything shares and nothing is pinned.

    Keeping the two apart stops the scheduler from moving the
    generator onto a daemon's core mid-run, which otherwise shifts
    round-trip times from one run to the next.  Each serving CPU also
    gets a busy loop at ``SCHED_IDLE`` priority, which runs only when
    nothing else wants that CPU: it keeps the CPU from halting while a
    daemon waits for its next request, because on a virtual machine
    waking a halted CPU takes a time that depends on the host's load,
    not on the program.
    """
    cpus = set(os.sched_getaffinity(0))
    ordered = sorted(cpus)
    if len(ordered) < 2:
        yield cpus
        return
    servers = set(ordered[1:])
    spinners = []
    os.sched_setaffinity(0, {ordered[0]})
    try:
        for cpu in sorted(servers):
            proc = subprocess.Popen([sys.executable, "-c",
                                     "while True: pass"])
            spinners.append(proc)
            os.sched_setaffinity(proc.pid, {cpu})
            os.sched_setscheduler(proc.pid, os.SCHED_IDLE,
                                  os.sched_param(0))
        yield servers
    finally:
        for proc in spinners:
            proc.kill()
            proc.wait()
        os.sched_setaffinity(0, cpus)


class DaemonProcess:
    """One spawned ``pathalias serve`` process."""

    def __init__(self, name: str, argv: list[str], log: Path,
                 src_dir: Path, cpus: set | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + \
            env.get("PYTHONPATH", "")
        self.name = name
        self.log = log
        self._log_file = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *argv],
            stdout=subprocess.DEVNULL, stderr=self._log_file, env=env)
        # The serving processes run below the load generator's
        # priority: on a host with fewer cores than processes, the
        # generator must still wake on schedule, or its own lateness
        # would be charged to the daemons.
        os.setpriority(os.PRIO_PROCESS, self.proc.pid, DAEMON_NICE)
        if cpus:
            os.sched_setaffinity(self.proc.pid, cpus)
        self.address: tuple[str, int] | None = None

    def poll_listening(self) -> bool:
        """Whether the daemon has printed its listening line; raises
        RuntimeError when it exited first."""
        if self.address is not None:
            return True
        text = self.log.read_text(encoding="utf-8", errors="replace")
        marker = "listening on"
        if marker in text:
            spec = text.split(marker, 1)[1].split()[0]
            host, _, port = spec.rpartition(":")
            self.address = (host, int(port))
            return True
        if self.proc.poll() is not None:
            raise RuntimeError(f"daemon {self.name} exited with "
                               f"{self.proc.returncode}: {text.strip()}")
        return False

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the process, in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for pid {self.proc.pid}")

    def stop(self) -> None:
        """SIGINT, then wait; kill if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_file.close()


def wait_listening(daemons: list[DaemonProcess]) -> None:
    """Block until every daemon listens (they start concurrently)."""
    deadline = time.monotonic() + START_TIMEOUT
    while not all(d.poll_listening() for d in daemons):
        if time.monotonic() > deadline:
            raise RuntimeError("daemons did not start in time")
        time.sleep(0.005)


class Cluster:
    """A built and started federation, with its set-up phase timings.

    ``graph_s`` covers generating the scenario and parsing and
    compiling every shard map, ``build_s`` writing the generation-0
    snapshots, ``start_s`` spawning the daemons until all listen.
    With ``frontend="inline"`` the front end is not spawned: the
    caller runs it in its own process (the traced run), and only the
    fanout shape's backend daemons are started here.  ``cpus`` pins
    every spawned process (see :func:`pinned_generator`).
    """

    def __init__(self, params: ChurnParams, shape: str, workdir: Path,
                 src_dir: Path, frontend: str = "process",
                 cpus: set | None = None):
        if shape not in ("local", "fanout"):
            raise ValueError(f"unknown cluster shape {shape!r}")
        self.shape = shape
        self.frontend = frontend
        self.cpus = cpus
        self.workdir = workdir
        self.daemons: list[DaemonProcess] = []
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            t0 = time.perf_counter()
            self.scenario = ChurnScenario(params)
            self.graphs = self.scenario.build_graphs()
            t1 = time.perf_counter()
            self.paths: dict[str, str] = {}
            for name in self.scenario.shard_names:
                self.paths[name] = str(workdir / f"{name}.g0.snap")
                # through the module attribute, so a traced run sees it
                store.build_snapshot(self.graphs[name], self.paths[name])
            t2 = time.perf_counter()
            self._start(src_dir)
            t3 = time.perf_counter()
        except BaseException:
            self.stop()
            raise
        self.graph_s = t1 - t0
        self.build_s = t2 - t1
        self.start_s = t3 - t2

    @property
    def setup_s(self) -> float:
        """The whole set-up: graphs, snapshots, daemons listening."""
        return self.graph_s + self.build_s + self.start_s

    def _start(self, src_dir: Path) -> None:
        common = ["--host", "127.0.0.1", "--port", "0"]
        inline = self.frontend == "inline"
        if self.shape == "local":
            if inline:
                return
            shards = [a for name, path in sorted(self.paths.items())
                      for a in ("--shard", f"{name}={path}")]
            self.daemons.append(DaemonProcess(
                "front", shards + common, self.workdir / "front.log",
                src_dir, self.cpus))
            wait_listening(self.daemons)
            return
        backends = []
        for name, path in sorted(self.paths.items()):
            backends.append(DaemonProcess(
                name, [path] + common, self.workdir / f"{name}.log",
                src_dir, self.cpus))
        self.daemons.extend(backends)
        wait_listening(backends)
        if inline:
            return
        specs = [a for d in backends
                 for a in ("--backend",
                           f"{d.name}={d.address[0]}:{d.address[1]}")]
        front = DaemonProcess("front", specs + common,
                              self.workdir / "front.log", src_dir,
                              self.cpus)
        self.daemons.append(front)
        wait_listening([front])

    @property
    def front(self) -> DaemonProcess:
        """The process clients talk to."""
        return self.daemons[-1]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of every serving process."""
        return sum(d.peak_rss_mb() for d in self.daemons)

    def snapshot_mb(self) -> float:
        """Bytes of every live shard snapshot, in MiB."""
        return sum(os.path.getsize(p) for p in self.paths.values()) \
            / 2 ** 20

    def stop(self) -> None:
        """Stop every process this cluster started, front end first."""
        for daemon in reversed(self.daemons):
            daemon.stop()
