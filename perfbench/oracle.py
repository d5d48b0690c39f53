"""The reply oracle every timed answer is checked against.

An independent in-process federation over the same snapshot files the
daemons serve: ``dispatch="dict"`` (the paper's per-suffix walk, not
the compiled automaton the daemons use) with the result cache off, so
a wrong reply from the dispatch engine, the cache, the stitcher or the
wire shows up as a mismatch.  Expected replies are computed before
each timed window, for each distinct ``(verb, source, dest)``; during
churn the oracle reloads the same shard generation the daemon was told
to serve and recomputes each event's probes against it.
"""

from __future__ import annotations

from pathlib import Path

from repro.service import store
from repro.service.federation import FederationService

from perfbench.load import Key, Request


class Oracle:
    """Expected reply lines, keyed by ``(verb, source, dest)``."""

    def __init__(self, paths: dict[str, str]):
        self.service = FederationService(dict(paths), dispatch="dict")
        self.expected: dict[Key, str] = {}
        self.mismatches: list[str] = []

    async def prepare(self, keys: list[Key]) -> None:
        """Compute the expected reply of every key not known yet."""
        expected = self.expected
        for key in keys:
            if key not in expected:
                verb, source, dest = key
                expected[key] = await self.service.handle_line(
                    f"{verb} {dest}", {"source": source})

    async def reload(self, shard: str, path: str) -> None:
        """Serve ``shard`` from a new generation; forget every answer
        (a repriced shard can change stitched routes through it)."""
        await self.service.reload_shard(shard, path)
        self.expected.clear()

    def check(self, reqs: list[Request]) -> int:
        """Count the requests whose reply is missing, not ``OK``, or
        differs from the expected line; keep a few for the report."""
        failed = 0
        for req in reqs:
            want = self.expected.get(req.key)
            ok = (req.reply is not None and want is not None
                  and req.reply == want and req.reply.startswith("OK")
                  and (req.source_reply is None
                       or req.source_reply.startswith("OK source")))
            if not ok:
                failed += 1
                if len(self.mismatches) < 5:
                    self.mismatches.append(
                        f"{req.key}: got {req.reply!r} "
                        f"(source {req.source_reply!r}), "
                        f"want {want!r}")
        return failed


def compare_to_scratch(graphs: dict, paths: dict[str, str],
                       workdir: Path) -> list[str]:
    """Byte-compare each live snapshot with a from-scratch build of
    the same graph; returns the shards that differ."""
    differ = []
    for name, path in sorted(paths.items()):
        scratch = workdir / f"{name}.scratch.snap"
        store.build_snapshot(graphs[name], str(scratch))
        if scratch.read_bytes() != Path(path).read_bytes():
            differ.append(name)
        scratch.unlink()
    return differ
