"""Load generation over the daemons' pipelined line protocol.

A :class:`Wire` is one persistent connection speaking tagged frames
(``@<tag> VERB ...``): requests go out without waiting, replies come
back in any order and are matched by tag.  Each lookup is a
``(verb, source, dest)`` triple; the wire sends an inline ``SOURCE``
frame first whenever the source differs from the one the connection
last selected (the daemon applies tagged ``SOURCE`` frames in read
order, so it governs exactly the lookups written after it).

:func:`open_loop` offers lookups on a fixed schedule regardless of
replies -- independent mailers, each request timed from the moment it
was *due*, so a stall is charged to every request queued behind it.
It also records the generator's own lateness (send time minus due
time) and the backlog of unanswered requests, so a rung where the
generator itself could not keep the schedule is marked invalid instead
of passing.  :class:`Ladder` sweeps a fixed geometric rate ladder
down to the highest rate that meets the latency limit without a
growing backlog.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import os
import random
import time
from dataclasses import dataclass, field

from repro.netsim.churn import ChurnScenario

Key = tuple  # (verb, source, dest)


class Request:
    """One lookup in flight: its key, schedule, and reply."""

    __slots__ = ("key", "tag", "due", "sent", "done", "reply",
                 "source_reply", "waiter")

    def __init__(self, key: Key):
        self.key = key
        self.tag = ""
        self.due = 0.0
        self.sent = 0.0
        self.done = 0.0
        self.reply: str | None = None
        self.source_reply: str | None = None
        self.waiter: asyncio.Future | None = None

    @property
    def latency(self) -> float:
        """Seconds from due time to reply (inf when unanswered)."""
        return self.done - self.due if self.reply is not None \
            else math.inf


class Wire:
    """One pipelined client connection."""

    def __init__(self, idx: int, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.idx = idx
        self.reader = reader
        self.writer = writer
        self.source: str | None = None
        #: tag -> (request or future, "lookup" | "source" | "call")
        self.pending: dict[str, tuple] = {}
        self.answered = 0
        self._seq = 0
        self._out: list[str] = []
        self._task = asyncio.get_running_loop().create_task(
            self._read_loop())
        self.broken: BaseException | None = None

    @classmethod
    async def open(cls, idx: int, address: tuple[str, int]) -> "Wire":
        """Dial the daemon at ``address``."""
        reader, writer = await asyncio.open_connection(*address)
        return cls(idx, reader, writer)

    def _tag(self) -> str:
        self._seq += 1
        return f"w{self.idx}n{self._seq}"

    def queue(self, req: Request) -> None:
        """Buffer ``req``'s frames (SOURCE first if needed)."""
        verb, source, dest = req.key
        if source != self.source:
            tag = self._tag()
            self.pending[tag] = (req, "source")
            self._out.append(f"@{tag} SOURCE {source}\n")
            self.source = source
        tag = self._tag()
        req.tag = tag
        self.pending[tag] = (req, "lookup")
        self._out.append(f"@{tag} {verb} {dest}\n")

    async def call(self, line: str) -> str:
        """Send one request line and await its reply (an admin verb
        such as ``RELOAD``)."""
        if self.broken is not None:
            raise ConnectionError(f"wire {self.idx}: {self.broken}")
        tag = self._tag()
        fut = asyncio.get_running_loop().create_future()
        self.pending[tag] = (fut, "call")
        self._out.append(f"@{tag} {line}\n")
        self.flush()
        return await fut

    def flush(self) -> None:
        """Write every buffered frame in one call."""
        if self._out:
            self.writer.write("".join(self._out).encode("utf-8"))
            self._out.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                raw = await self.reader.readline()
                if not raw:
                    raise ConnectionError("daemon closed the connection")
                now = time.perf_counter()
                tag, _, rest = raw.decode("utf-8").rstrip("\n") \
                    .partition(" ")
                entry = self.pending.pop(tag[1:], None)
                if entry is None:
                    continue  # an unsolicited frame: never ours
                req, kind = entry
                if kind == "lookup":
                    req.reply = rest
                    req.done = now
                    self.answered += 1
                    if req.waiter is not None:
                        req.waiter.set_result(None)
                elif kind == "source":
                    req.source_reply = rest
                elif not req.done():
                    req.set_result(rest)
        except (ConnectionError, OSError) as exc:
            self.broken = exc
            for req, kind in self.pending.values():
                waiter = req if kind == "call" else req.waiter
                if waiter is not None and not waiter.done():
                    waiter.set_exception(exc)

    async def close(self) -> None:
        """Say QUIT, close, and reap the reader task."""
        try:
            self.writer.write(b"QUIT\n")
            self.writer.close()
        except (ConnectionError, OSError):
            pass
        try:
            await asyncio.wait_for(self._task, 5.0)
        except asyncio.TimeoutError:
            self._task.cancel()
            await asyncio.gather(self._task, return_exceptions=True)


def connection_count() -> int:
    """Client connections per workload: two, or one on a 1-CPU host
    (never more than the CPUs the benchmark may run on)."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


async def open_wires(address: tuple[str, int], count: int) -> list[Wire]:
    """``count`` pipelined connections to ``address``."""
    return [await Wire.open(i, address) for i in range(count)]


async def pause(seconds: float, spin: bool) -> None:
    """Wait ``seconds``.  With ``spin`` (the generator has a CPU to
    itself) the event loop keeps polling instead of sleeping, so
    neither a send nor the read of a reply waits for an idle CPU to
    wake up -- on a virtual machine that wake-up alone can take
    milliseconds and would be charged to the daemons."""
    if not spin:
        await asyncio.sleep(seconds if seconds > 0 else 0)
        return
    end = time.perf_counter() + seconds
    while True:
        await asyncio.sleep(0)
        if time.perf_counter() >= end:
            return


async def lockstep(wire: Wire, req: Request, spin: bool) -> Request:
    """Send one lookup and wait for its reply (closed loop); the
    request is timed from the moment it is written."""
    req.waiter = asyncio.get_running_loop().create_future()
    req.due = req.sent = time.perf_counter()
    wire.queue(req)
    wire.flush()
    deadline = req.sent + 10.0
    while not req.waiter.done() and time.perf_counter() < deadline:
        await pause(0.0005, spin)
    return req  # unanswered: the oracle check counts it failed


async def closed_window(wires: list[Wire], keys: list[Key],
                        window: int = 64, spin: bool = False
                        ) -> list[Request]:
    """Push ``keys`` through with at most ``window`` unanswered per
    wire (used to warm caches and tables before timing)."""
    reqs = [Request(k) for k in keys]
    i = 0
    while i < len(reqs):
        for wire in wires:
            while i < len(reqs) and len(wire.pending) < window:
                reqs[i].due = reqs[i].sent = time.perf_counter()
                wire.queue(reqs[i])
                i += 1
            wire.flush()
        await pause(0.0005, spin)
        if any(w.broken for w in wires):
            break
    await _drain(wires, 10.0, spin)
    return reqs


async def _drain(wires: list[Wire], timeout: float, spin: bool) -> None:
    """Wait until every sent frame is answered (or ``timeout``)."""
    deadline = time.perf_counter() + timeout
    while any(w.pending for w in wires):
        if time.perf_counter() > deadline or \
                any(w.broken for w in wires):
            return
        await pause(0.001, spin)


def quantile(values: list[float], q: float) -> float:
    """The ``q`` quantile by the nearest-rank rule (values unsorted)."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class PhaseResult:
    """One open-loop window at one offered rate."""

    rate: float
    requests: list[Request]
    send_lag: list[float] = field(default_factory=list)
    backlog: list[tuple[float, int]] = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        """Per-request seconds from due to reply (inf: unanswered)."""
        return [r.latency for r in self.requests]

    def p(self, q: float) -> float:
        """Latency quantile ``q`` in seconds."""
        return quantile(self.latencies, q)

    @property
    def unanswered(self) -> int:
        """Requests without a reply when the drain gave up."""
        return sum(1 for r in self.requests if r.reply is None)

    @property
    def lag_p99(self) -> float:
        """The generator's own p99 lateness behind schedule."""
        return quantile(self.send_lag, 0.99)

    def backlog_growth(self) -> float:
        """Mean outstanding requests in the last third of the window
        minus the mean in the first third (the backlog trend)."""
        if len(self.backlog) < 6:
            return 0.0
        third = len(self.backlog) // 3
        first = [b for _, b in self.backlog[:third]]
        last = [b for _, b in self.backlog[-third:]]
        return sum(last) / len(last) - sum(first) / len(first)


async def open_loop(wires: list[Wire], keys: list[Key], rate: float,
                    spin: bool, drain_timeout: float = 5.0
                    ) -> PhaseResult:
    """Offer ``keys`` at ``rate`` per second, round-robin over the
    wires, and wait for the replies (up to ``drain_timeout``)."""
    reqs = [Request(k) for k in keys]
    result = PhaseResult(rate=rate, requests=reqs)
    with quiet_gc():
        await _offer(wires, reqs, rate, result, spin)
        await _drain(wires, drain_timeout, spin)
    return result


def freeze_heap() -> None:
    """Move every object alive now (scenario graphs, oracle tables)
    out of the cyclic collector's reach until :func:`thaw_heap`."""
    gc.collect()
    gc.freeze()


def thaw_heap() -> None:
    """Hand the frozen objects back to the collector."""
    gc.unfreeze()


@contextlib.contextmanager
def quiet_gc():
    """Keep this process's cyclic garbage collector out of a timed
    window: a collection pauses the generator for milliseconds, which
    would be charged to the daemons as lateness."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def _offer(wires: list[Wire], reqs: list[Request], rate: float,
                 result: PhaseResult, spin: bool) -> None:
    interval = 1.0 / rate
    start = time.perf_counter() + 0.002
    i = 0
    n = len(reqs)
    sent_total = 0
    while i < n:
        now = time.perf_counter()
        while i < n and start + i * interval <= now:
            req = reqs[i]
            req.due = start + i * interval
            req.sent = now
            result.send_lag.append(now - req.due)
            wires[i % len(wires)].queue(req)
            i += 1
        for wire in wires:
            wire.flush()
        sent_total = i
        answered = sum(w.answered for w in wires)
        result.backlog.append((now, sent_total - answered))
        if any(w.broken for w in wires):
            break
        await pause(start + i * interval - time.perf_counter(), spin)


@dataclass
class Rung:
    """One probed ladder rung and why it passed or failed."""

    rate: float
    p99_ms: float
    lag_p99_ms: float
    backlog_growth: float
    unanswered: int
    valid: bool
    passed: bool

    def as_dict(self) -> dict:
        """JSON-ready provenance record."""
        return {"rate": round(self.rate, 1),
                "p99_ms": round(self.p99_ms, 3),
                "gen_lag_p99_ms": round(self.lag_p99_ms, 3),
                "backlog_growth": round(self.backlog_growth, 1),
                "unanswered": self.unanswered,
                "valid": self.valid, "passed": self.passed}


def ladder_rates(base: float, top: float, step: float) -> list[float]:
    """The fixed geometric ladder ``base * step**k`` up to ``top``."""
    count = int(math.log(top / base) / math.log(step)) + 1
    return [base * step ** k for k in range(count)]


class Ladder:
    """A downward sweep of a fixed rate ladder, one probe per rung.

    A rung passes when its p99 (from due time, unanswered requests
    counting as infinitely late) is under ``limit_s`` and its backlog
    did not grow; it is *invalid* -- and so not passing -- when the
    generator's own p99 lateness exceeded ``lag_limit_s``.  The sweep
    starts at rung ``top`` (the highest rung at or below a saturation
    measurement) and moves one rung down after every probe that does
    not pass; the first rung that passes is the capacity.  The caller
    drives :meth:`step` until :attr:`done`, so other timed windows can
    be interleaved with the probes.
    """

    def __init__(self, rates: list[float], probe_s: float,
                 limit_s: float, lag_limit_s: float, top: int,
                 spin: bool = False):
        self.rates = rates
        self.spin = spin
        self.probe_s = probe_s
        self.limit_s = limit_s
        self.lag_limit_s = lag_limit_s
        self.next = max(0, min(top, len(rates) - 1))
        self.passed: float | None = None
        self.probed: list[Rung] = []
        self.sent: list[Request] = []

    @property
    def done(self) -> bool:
        """Whether a rung has passed (or the ladder is exhausted)."""
        return self.passed is not None or self.next < 0

    @property
    def best(self) -> float:
        """The rung that passed (half the ladder's lowest rung if
        none did)."""
        return self.passed if self.passed is not None \
            else self.rates[0] / 2

    def want(self) -> int:
        """How many lookups the next probe sends."""
        return max(1, int(self.rates[self.next] * self.probe_s))

    async def step(self, wires: list[Wire], keys: list[Key]) -> None:
        """Probe the current rung with ``keys`` (see :meth:`want`)."""
        rate = self.rates[self.next]
        phase = await open_loop(wires, keys, rate, self.spin)
        self.sent.extend(phase.requests)
        growth = phase.backlog_growth()
        valid = phase.lag_p99 <= self.lag_limit_s
        passed = (valid and phase.p(0.99) < self.limit_s
                  and phase.unanswered == 0
                  and growth <= max(4.0, 0.25 * rate * self.limit_s))
        self.probed.append(Rung(rate, phase.p(0.99) * 1e3,
                                phase.lag_p99 * 1e3, growth,
                                phase.unanswered, valid, passed))
        if passed:
            self.passed = rate
        else:
            self.next -= 1
            await asyncio.sleep(0.1)  # let a backlog drain fully


async def saturation(wires: list[Wire], keys: list[Key], spin: bool,
                     window: int = 32) -> tuple[float, list[Request]]:
    """Completed lookups per second with ``window`` always in flight
    per wire: a quick upper estimate of capacity."""
    t0 = time.perf_counter()
    reqs = await closed_window(wires, keys, window, spin)
    return len(reqs) / (time.perf_counter() - t0), reqs


class Traffic:
    """Seeded lookup draws over a churn scenario.

    ``skew`` is the result-cache skew leg of ``benchmarks/
    bench_service.py`` (``--only cache``): one mailer source sending
    ``ROUTE`` to power-law destinations (``random() ** 3`` over the
    inventory, hottest first) -- concentrated traffic the result cache
    serves (hit ratio about 0.42 at 20k nodes).  ``uniform``: every
    source and destination equally likely, which defeats the cache,
    with ``ROUTE`` and ``EXACT`` alternating one to one as the clients
    of ``tools/soak.py`` do.
    """

    def __init__(self, scenario: ChurnScenario, shape: str, seed: int):
        if shape not in ("skew", "uniform"):
            raise ValueError(f"unknown traffic shape {shape!r}")
        self.shape = shape
        self.rng = random.Random(seed)
        self.dests = scenario.destinations
        # the mailer sits at a fixed position of the source list, so
        # every seed's traffic has the same shape
        self.sources = scenario.sources[:1] if shape == "skew" \
            else scenario.sources
        self._count = 0

    def __call__(self, count: int) -> list[Key]:
        """The next ``count`` lookup keys."""
        rng = self.rng
        out = []
        for _ in range(count):
            if self.shape == "skew":
                dst = self.dests[int(len(self.dests) * rng.random() ** 3)]
                out.append(("ROUTE", self.sources[0], dst))
            else:
                verb = "EXACT" if self._count % 2 else "ROUTE"
                self._count += 1
                out.append((verb, rng.choice(self.sources),
                            rng.choice(self.dests)))
        return out
