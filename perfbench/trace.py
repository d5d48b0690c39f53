"""In-memory spans around the public calls of each ``service/`` layer.

The traced run installs wrappers from here -- the program itself is
not edited -- around the functions each layer exposes, records one
span per call (name, start, end, parent span, request id), and turns
the spans into per-layer metrics when the run ends.  The request id of
a server-side span is the wire tag of the request that caused it: the
``handle_line`` wrapper opens a per-request record in the handling
task's context, and the daemon's tagged-frame encoder, called in the
same task as the reply goes out, stamps the tag onto it.  Child tasks
(the stitcher's speculative prefetches) inherit the context, so their
spans land under the request's stitch span.

Calls that are cheap once warm -- ``SnapshotTable.automaton``,
``SnapshotReader.table``, ``SnapshotTable.state_cost_map`` -- get a
span only when they do their one-time work (inflate, decode, build),
so tracing does not tax the warm path it is measuring.

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  For one request the self times of all
its spans plus the wire time (client round trip minus ``handle_line``)
must add up to the client's round trip; :meth:`Tracer.lookup_layers`
returns both sums so the run can report how far they differ
(``trace.reconcile_err``).  Because the wire time is defined as the
remainder, that is only a consistency check on the spans: it catches
spans that escape their parent or overlap, not a layer left unwrapped.
Time no wrapped layer claims stays in ``handle_line``'s own self time,
and its share of ``handle_line`` is reported as
``trace.unclaimed_frac``.

Store and dispatch first-touch spans (``store.*``, ``fsm.*``) count
towards the serving layers only when they run inside a request
(under a ``daemon`` span); the same calls made by ``update_snapshot``
are charged to ``incremental.decode_ms`` instead.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

#: (span index, request record) of the innermost open span.
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
#: The request record of the last ``handle_line`` in this task.
_LAST_REQUEST = contextvars.ContextVar("perfbench_request",
                                       default=None)

#: Per-layer metric -> (layer module, end-to-end metric it should
#: move).  Printed with every traced result so a later change can
#: state its prediction in these terms.  ``lookup_p99_ms`` is reported
#: by every untraced run but not gated (see ``perfbench/README.md``).
LAYER_MAP = {
    "daemon.self_us": ("service.daemon", "lookup_p50_ms, capacity_per_s"),
    "daemon.wire_us": ("service.daemon", "lookup_p50_ms, capacity_per_s"),
    "cache.hit_ratio": ("service.cache", "lookup_p50_ms, capacity_per_s"),
    "cache.probe_us": ("service.cache", "lookup_p50_ms, capacity_per_s"),
    "cache.invalidations": ("service.cache", "lookup_p99_ms (churn)"),
    "fsm.owner_us": ("service.fsm", "lookup_p50_ms"),
    "fsm.inflates": ("service.fsm", "lookup_p99_ms (churn)"),
    "fsm.inflate_ms": ("service.fsm", "lookup_p99_ms (churn)"),
    "shard.stitch_us": ("service.shard", "lookup_p99_ms"),
    "shard.legs_per_lookup": ("service.shard", "lookup_p99_ms"),
    "shard.federated_frac": ("service.shard", "lookup_p99_ms"),
    "store.open_ms": ("service.store",
                      "lookup_p99_ms (churn), server_rss_mb, setup_s"),
    "store.table_opens": ("service.store", "lookup_p99_ms (churn)"),
    "store.table_ms": ("service.store", "lookup_p99_ms (churn)"),
    "store.state_cost_ms": ("service.store", "lookup_p99_ms (churn)"),
    "store.build_s": ("service.store", "setup_s"),
    "backend.rtt_us": ("service.backend",
                       "lookup_p50_ms, lookup_p99_ms, capacity_per_s "
                       "(fanout)"),
    "backend.roundtrips_per_lookup": ("service.backend",
                                      "lookup_p50_ms (fanout)"),
    "backend.retries": ("service.backend", "lookup_p99_ms (fanout)"),
    "federation.reload_ms": ("service.federation",
                             "capacity_per_s, lookup_p99_ms (churn)"),
    "federation.reload_rtt_ms": ("service.federation",
                                 "capacity_per_s (churn)"),
    "incremental.update_s": ("service.incremental",
                             "capacity_per_s (churn)"),
    "incremental.diff_ms": ("service.incremental",
                            "capacity_per_s (churn)"),
    "incremental.affected_ms": ("service.incremental",
                                "capacity_per_s (churn)"),
    "incremental.remap_frac": ("service.incremental",
                               "capacity_per_s (churn)"),
    "incremental.remap_s": ("service.incremental",
                            "capacity_per_s (churn)"),
    "incremental.encode_s": ("service.incremental",
                             "capacity_per_s (churn)"),
    "incremental.dfsm_check_ms": ("service.incremental",
                                  "capacity_per_s (churn)"),
    "incremental.write_ms": ("service.incremental",
                             "capacity_per_s (churn)"),
    "incremental.decode_ms": ("service.incremental, service.store",
                              "capacity_per_s (churn)"),
    "incremental.fallbacks": ("service.incremental",
                              "capacity_per_s (churn)"),
    "graph.build_s": ("parser, graph, core", "setup_s"),
    "daemon.start_s": ("service.daemon", "setup_s"),
    "trace.overhead_ms": ("perfbench", "(tracing cost, not a layer)"),
    "trace.reconcile_err": ("perfbench", "(self-check, not a layer)"),
    "trace.unclaimed_frac": ("perfbench",
                             "(handle_line time no layer claims)"),
}

#: Layer spans whose self time is charged per lookup request.
LOOKUP_LAYERS = {
    "daemon.self_us": ("daemon",),
    "cache.probe_us": ("cache",),
    "fsm.owner_us": ("fsm.owner",),
    "shard.stitch_us": ("shard.stitch", "shard.legs"),
    "backend.rtt_us": ("backend.rtt",),
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        #: [name, start, end, parent index, request record]
        self.spans: list[list] = []
        #: Wrappers record only while this is set: the run sets it
        #: around set-up and the timed windows, never around the
        #: oracle's or the checks' calls into the same code.
        self.active = False
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> tuple[int, contextvars.Token]:
        cur = _CURRENT.get()
        parent, request = (cur if cur is not None else (-1, None))
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           request])
        return idx, _CURRENT.set((idx, request))

    def _close(self, idx: int, token: contextvars.Token) -> None:
        self.spans[idx][2] = time.perf_counter()
        _CURRENT.reset(token)

    def _wrap(self, fn, name: str, when=None):
        """A recording wrapper around ``fn`` (sync or async);
        ``when(args)`` decides per call whether a span is kept."""
        tracer = self
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced(*args, **kwargs):
                if not tracer.active or (when is not None
                                         and not when(args)):
                    return await fn(*args, **kwargs)
                idx, token = tracer._open(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(idx, token)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not tracer.active or (when is not None
                                         and not when(args)):
                    return fn(*args, **kwargs)
                idx, token = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, token)
        return traced

    def _patch(self, owner, attr: str, name: str, when=None) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, when))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, name, when))
        else:
            wrapped = self._wrap(raw, name, when)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_request_root(self, service_cls) -> None:
        """``handle_line`` opens a request record; the tagged-frame
        encoder, called in the same task, stamps the wire tag on it."""
        tracer = self
        handle = inspect.getattr_static(service_cls, "handle_line")

        @functools.wraps(handle)
        async def handle_line(svc, line, state):
            if not tracer.active:
                return await handle(svc, line, state)
            request = [None]
            _LAST_REQUEST.set(request)
            token = _CURRENT.set((-1, request))
            try:
                idx, inner = tracer._open("daemon")
                try:
                    return await handle(svc, line, state)
                finally:
                    tracer._close(idx, inner)
            finally:
                _CURRENT.reset(token)

        frames = inspect.getattr_static(service_cls, "_tagged_frames")

        def tagged_frames(tag, reply):
            request = _LAST_REQUEST.get()
            if request is not None and request[0] is None:
                request[0] = tag
            return frames.__func__(tag, reply)

        for attr, new in (("handle_line", handle_line),
                          ("_tagged_frames", staticmethod(tagged_frames))):
            self._patches.append((service_cls, attr,
                                  inspect.getattr_static(service_cls,
                                                         attr)))
            setattr(service_cls, attr, new)

    def install(self) -> None:
        """Wrap every layer's public calls (undone by uninstall)."""
        from repro.service import backend, cache, federation
        from repro.service import incremental, shard, store

        self._patch_request_root(federation.FederationService)
        self._patch(cache.ResultCache, "get", "cache")
        self._patch(cache.ResultCache, "put", "cache")
        self._patch(cache.ResultCache, "put_negative", "cache")
        self._patch(shard.FederationView, "owners_of", "fsm.owner")
        self._patch(store.SnapshotTable, "automaton", "fsm.inflate",
                    when=lambda a: a[0]._auto is None)
        self._patch(shard.FederationView, "aresolve_with_cost",
                    "shard.stitch")
        self._patch(shard.FederationView, "aexact", "shard.stitch")
        self._patch(shard.Shard, "route_legs", "shard.legs")
        self._patch(backend.BackendShard, "route_legs", "shard.legs")
        self._patch(store.SnapshotReader, "open", "store.open")
        self._patch(store.SnapshotReader, "table", "store.table",
                    when=lambda a: a[1] not in a[0]._tables)
        self._patch(store.SnapshotTable, "state_cost_map",
                    "store.state_cost",
                    when=lambda a: a[0]._state_map is None)
        self._patch(store, "build_snapshot", "store.build")
        for verb in ("route", "exact", "table_rows", "state_costs"):
            self._patch(backend.ShardBackend, verb, "backend.rtt")
        self._patch(federation.FederationService, "reload_shard",
                    "federation.reload")
        self._patch(incremental, "update_snapshot", "incremental.update")
        self._patch(incremental, "diff_compact_graphs",
                    "incremental.diff")
        self._patch(incremental, "affected_sources_exact",
                    "incremental.affected")
        self._patch(incremental, "map_sources", "incremental.remap")
        self._patch(incremental, "encode_table_section",
                    "incremental.encode")
        self._patch(store.SnapshotTable, "record_names",
                    "incremental.dfsm_check")
        self._patch(store.SnapshotTable, "dfsm_bytes",
                    "incremental.dfsm_check")
        self._patch(incremental, "write_snapshot", "incremental.write")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's
        intervals (clipped to the span)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            edge = start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, edge), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            out.append(end - start - covered)
        return out

    def by_request(self) -> dict[str, list[int]]:
        """Span indexes grouped by request id (tagged requests only)."""
        groups: dict[str, list[int]] = defaultdict(list)
        for idx, span in enumerate(self.spans):
            request = span[4]
            if request is not None and request[0] is not None:
                groups[request[0]].append(idx)
        return groups

    def lookup_layers(self, rtts: dict[str, float]) -> dict:
        """Per-lookup layer self times (seconds, summed) over the
        requests in ``rtts`` (wire tag -> client round trip), plus the
        reconciliation totals."""
        selfs = self.self_times()
        groups = self.by_request()
        sums = defaultdict(float)
        counts = defaultdict(int)
        traced = 0.0
        accounted = 0.0
        handled = 0.0
        n = 0
        for tag, rtt in rtts.items():
            idxs = groups.get(tag)
            if not idxs:
                continue
            n += 1
            handle = sum(self.spans[i][2] - self.spans[i][1]
                         for i in idxs if self.spans[i][0] == "daemon")
            wire = rtt - handle
            handled += handle
            sums["wire"] += wire
            total = wire
            for i in idxs:
                name = self.spans[i][0]
                sums[name] += selfs[i]
                counts[name] += 1
                total += selfs[i]
            traced += rtt
            accounted += total
        return {"requests": n, "self_s": dict(sums),
                "calls": dict(counts), "traced_s": traced,
                "accounted_s": accounted, "handle_s": handled}

    def _under(self, idx: int, ancestor: str) -> bool:
        """Whether span ``idx`` has an enclosing span named
        ``ancestor``."""
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self, prefix: str, under: str | None = None
               ) -> tuple[int, float, float]:
        """``(calls, summed duration, summed self time)`` of every span
        whose name starts with ``prefix`` (and, with ``under``, that
        runs inside a span of that name)."""
        selfs = self.self_times()
        calls = 0
        dur = 0.0
        own = 0.0
        for idx, span in enumerate(self.spans):
            if span[0].startswith(prefix) and (
                    under is None or self._under(idx, under)):
                calls += 1
                dur += span[2] - span[1]
                own += selfs[idx]
        return calls, dur, own

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line (name, start, end,
        parent, request id), times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps(
                    [name, round(start - t0, 7), round(end - t0, 7),
                     parent, request[0] if request else None]) + "\n")
