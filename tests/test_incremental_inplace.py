"""The incremental updater reads the old snapshot in place.

The affected-source screen binary-searches each section's ``TREE`` and
``STAT`` blocks, and the DFSM splice check compares record-name bytes,
instead of decoding tables into Python sets and dicts.  These tests
hold that fast path to the decoded-set analysis it replaced (kept here
as the differential oracle), pin the byte orders the searches rely on
(non-ASCII and astral names included), and fail if the update path
ever decodes a table again.
"""

from __future__ import annotations

import pickle
import struct
from pathlib import Path

import pytest

from repro.config import HeuristicConfig
from repro.core.pathalias import Pathalias
from repro.graph.compact import CompactGraph, K_NORMAL
from repro.netsim.churn import EVENT_KINDS, ChurnParams, ChurnScenario
from repro.service import incremental, store
from repro.service.incremental import (
    _changed_link_facts,
    _cost_only_changes,
    affected_sources,
    affected_sources_exact,
    update_snapshot,
)
from repro.service.store import SnapshotReader, SnapshotTable, build_snapshot

DATA = Path(__file__).parent / "data"
FIXTURES = sorted(DATA.glob("d.*"))

#: Two regions, and every churn event kind within the first 12 events.
SMALL_CHURN = ChurnParams(nodes=300, events=16, seed=7, regions=2,
                          hubs_per_region=4)

#: Nets, a domain, and a private node: every state kind is stored.
STRUCTURED = """\
private {p}
a\tb(10), p(20), NET(40), .dom(90)
p\tc(30)
b\ta(10), c(10)
c\tb(10), d(10)
d\tc(10)
NET = {b, d}(50)
.dom = {c}
"""


# -- the decoded-set oracle ---------------------------------------------------


def decoded_affected_exact(reader, new_cg, changed):
    """The v2 screen over decoded ``tree_links()`` sets and
    ``state_cost_map()`` dicts: the implementation the in-place
    searches replaced."""
    links = _changed_link_facts(reader, new_cg, changed)
    if links is None:
        return None
    second = reader.second_best
    classes = (0, 1) if second else (0,)
    affected = []
    for source in reader.sources():
        table = reader.table(source)
        pairs = table.tree_links()
        states = table.state_cost_map()
        hit = False
        for u, v, u_name, v_name, c_old, c_new in links:
            if (u_name, v_name) in pairs:
                hit = True
                break
            if c_new >= c_old:
                continue
            for dclass in classes:
                cu = states.get((u, dclass))
                if cu is None:
                    continue
                vclass = (dclass | new_cg.is_domain[v]) if second else 0
                cv = states.get((v, vclass))
                if cv is None or cu + c_new <= cv:
                    hit = True
                    break
            if hit:
                break
        if hit:
            affected.append(source)
    return affected


def decoded_affected_v1(reader, new_cg, changed):
    """The v1 screen over decoded ``tree_links()`` sets."""
    links = _changed_link_facts(reader, new_cg, changed)
    if links is None:
        return None
    for u, v, _, _, c_old, c_new in links:
        if c_new < c_old and (
                new_cg.netlike[u] or new_cg.private[u]
                or new_cg.netlike[v] or new_cg.private[v]):
            return None
    affected = []
    for source in reader.sources():
        table = reader.table(source)
        pairs = table.tree_links()
        for _, _, u_name, v_name, c_old, c_new in links:
            if (u_name, v_name) in pairs:
                affected.append(source)
                break
            if c_new < c_old:
                cu = table.cost(u_name)
                cv = table.cost(v_name)
                if cu is None or cv is None or cu + c_new <= cv:
                    affected.append(source)
                    break
    return affected


def repriced(cg: CompactGraph, j: int, delta: int) -> CompactGraph:
    """A detached clone of ``cg`` with link ``j``'s cost moved."""
    clone = pickle.loads(pickle.dumps(cg))
    clone.cost[j] += delta
    return clone


def normal_links(cg: CompactGraph, limit: int = 6) -> list[int]:
    """Up to ``limit`` NORMAL link ids spread over the graph, cheap
    enough to take a -7 decrease."""
    ids = [j for j in range(cg.link_count)
           if cg.kind[j] == K_NORMAL and cg.cost[j] > 8]
    step = max(1, len(ids) // limit)
    return ids[::step][:limit]


def assert_screens_agree(reader, new_cg, changed):
    """In-place and decoded screens return the same list (or None)."""
    if reader.has_state_costs:
        got = affected_sources_exact(reader, new_cg, changed)
        assert got == decoded_affected_exact(reader, new_cg, changed)
    else:
        got = affected_sources(reader, new_cg, changed)
        assert got == decoded_affected_v1(reader, new_cg, changed)
    return got


# -- differential: in-place screen against the decoded oracle -----------------


class TestScreenMatchesDecodedOracle:
    def test_every_churn_event_kind(self, tmp_path):
        """Replay a churn stream: at every event the in-place screen
        equals the oracle, and the updated file equals a scratch
        build."""
        scenario = ChurnScenario(SMALL_CHURN)
        graphs = scenario.build_graphs()
        paths = {}
        for name in scenario.shard_names:
            paths[name] = tmp_path / f"{name}.g0.snap"
            build_snapshot(graphs[name], paths[name])
        kinds = set()
        remapped = reused = 0
        for event in scenario.stream:
            for name in scenario.apply(event):
                with SnapshotReader.open(paths[name]) as reader:
                    changed = _cost_only_changes(reader.decode_graph(),
                                                 graphs[name])
                    assert changed, f"{event.kind}: no cost change"
                    assert_screens_agree(reader, graphs[name], changed)
                out = tmp_path / f"{name}.g{event.gen + 1}.snap"
                report = update_snapshot(paths[name], graphs[name], out,
                                         full_threshold=1.0)
                assert report.mode == "incremental", report.reason
                remapped += len(report.remapped)
                reused += report.reused
                scratch = tmp_path / "scratch.snap"
                build_snapshot(graphs[name], scratch)
                assert out.read_bytes() == scratch.read_bytes(), \
                    f"gen {event.gen} ({event.kind}) {name}"
                paths[name] = out
            kinds.add(event.kind)
        assert kinds == set(EVENT_KINDS)
        assert remapped > 0 and reused > 0

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    def test_fixtures(self, tmp_path, path, second):
        """The ``d.*`` maps, tree and second-best, each of a spread of
        links raised and lowered, one at a time and all together."""
        cfg = HeuristicConfig(second_best=second)
        graph = Pathalias(heuristics=cfg).build(
            [(path.name, path.read_text())])
        cg = CompactGraph.compile(graph)
        old = tmp_path / "old.snap"
        build_snapshot(cg, old, heuristics=cfg)
        links = normal_links(cg)
        with SnapshotReader.open(old) as reader:
            for delta in (7, -7):
                for changed in [[j] for j in links] + [links]:
                    revised = pickle.loads(pickle.dumps(cg))
                    for j in changed:
                        revised.cost[j] += delta
                    assert_screens_agree(reader, revised, changed)

    @pytest.mark.parametrize("path", FIXTURES, ids=lambda p: p.name)
    def test_fixtures_v1(self, tmp_path, path):
        graph = Pathalias().build([(path.name, path.read_text())])
        cg = CompactGraph.compile(graph)
        old = tmp_path / "old.snap"
        build_snapshot(cg, old, fmt=1)
        with SnapshotReader.open(old) as reader:
            for delta in (7, -7):
                for j in normal_links(cg):
                    assert_screens_agree(reader, repriced(cg, j, delta),
                                         [j])

    def test_second_best_structured_update(self, tmp_path):
        """A second-best snapshot over nets, a domain, and a private
        node: every link, both directions, screen equal to the oracle
        and the update byte-identical to a scratch build."""
        cfg = HeuristicConfig(second_best=True)
        cg = CompactGraph.compile(Pathalias(heuristics=cfg).build(
            [("d.map", STRUCTURED)]))
        old = tmp_path / "old.snap"
        build_snapshot(cg, old, heuristics=cfg)
        with SnapshotReader.open(old) as reader:
            assert reader.second_best
            for j in normal_links(cg, limit=cg.link_count):
                for delta in (7, -7):
                    revised = repriced(cg, j, delta)
                    assert_screens_agree(reader, revised, [j])
                    out = tmp_path / "new.snap"
                    update_snapshot(reader, revised, out,
                                    full_threshold=1.0)
                    ref = tmp_path / "ref.snap"
                    build_snapshot(revised, ref, heuristics=cfg)
                    assert out.read_bytes() == ref.read_bytes()


# -- byte order: what the in-place searches rely on ---------------------------


#: ASCII placeholder -> stored name: accented (two-byte UTF-8), CJK and
#: fullwidth (three-byte, BMP), and Mathematical Fraktur / emoji
#: (four-byte, outside the BMP, where UTF-16 order would disagree with
#: code-point order).
RENAMES = {
    "hosta": "café",
    "hostb": "日本",
    "hostc": "Ａhost",
    "hostd": "\U0001d518nix",
    "hoste": "\U0001f4e7relay",
    "hostf": "plain",
    "hostg": "�gate",
}

UNICODE_MAP = """\
hosta\thostb(10), hostc(25), hostd(40)
hostb\thosta(10), hoste(15), hostg(30)
hostc\thosta(25), hostd(5), NET(20)
hostd\thostc(5), hostf(12)
hoste\thostb(15), hostf(8), .dom(30)
hostf\thostd(12), hoste(8), hostg(4)
hostg\thostb(30), hostf(4)
NET = {hostd, hostg}(50)
.dom = {hostg}
"""


def unicode_graph(second: bool = False) -> CompactGraph:
    """The map above, compiled, then renamed to non-ASCII hosts (the
    scanner only accepts ASCII host names)."""
    cfg = HeuristicConfig(second_best=second)
    cg = CompactGraph.compile(Pathalias(heuristics=cfg).build(
        [("d.uni", UNICODE_MAP)]))
    cg = pickle.loads(pickle.dumps(cg))
    cg.names = [RENAMES.get(name, name) for name in cg.names]
    cg.cid_by_name = {name: cid for cid, name in enumerate(cg.names)
                      if not cg.private[cid]}
    return cg


def stored_tree_pairs(table: SnapshotTable) -> list[tuple[str, str]]:
    """The ``TREE`` entries in stored order, read through the
    documented layout (``<IIII`` refs into ``BLOB``)."""
    blocks = {tag: (off, length) for tag, off, length in table.block_map()}
    data = bytes(table._data)
    tree_off, tree_len = blocks["TREE"]
    blob_off, _ = blocks["BLOB"]

    def text(off, length):
        return data[blob_off + off:blob_off + off + length].decode("utf-8")

    return [(text(a, al), text(b, bl)) for a, al, b, bl in
            struct.iter_unpack("<IIII",
                               data[tree_off:tree_off + tree_len])]


def utf8(pair):
    return pair[0].encode("utf-8"), pair[1].encode("utf-8")


class TestInPlaceSortOrder:
    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    def test_unicode_names_found_in_place(self, tmp_path, second):
        cg = unicode_graph(second)
        path = tmp_path / "uni.snap"
        build_snapshot(cg, path, heuristics=HeuristicConfig(
            second_best=second))
        names = sorted(set(cg.names))
        with SnapshotReader.open(path) as reader:
            assert any(ord(c) > 0xFFFF for src in reader.sources()
                       for c in src)
            for source in reader.sources():
                table = reader.table(source)
                stored = stored_tree_pairs(table)
                assert stored
                assert stored == sorted(stored, key=utf8) == sorted(stored)
                present = set(stored)
                for pair in present:
                    assert table.has_tree_link(*pair)
                for a in names:
                    for b in names:
                        if (a, b) not in present:
                            assert not table.has_tree_link(a, b)
                assert not table.has_tree_link("", "")
                assert not table.has_tree_link("\U0010ffff", "\U0010ffff")

                keys = {}
                for cid, flags, _, cost, _ in table.state_records():
                    keys[(cid, flags & 1)] = cost
                assert keys == table.state_cost_map()
                for (cid, dclass), cost in keys.items():
                    assert table.state_cost_at(cid, dclass) == cost
                for cid in range(cg.n + 2):
                    for dclass in (0, 1):
                        if (cid, dclass) not in keys:
                            assert table.state_cost_at(cid, dclass) \
                                is None

    def test_dfsm_splice_check_compares_names(self, tmp_path):
        """``dfsm_bytes(names)`` hands out the stored block for exactly
        the section's sorted name bytes, and refuses any other list."""
        paths = []
        for n, cg in enumerate([unicode_graph()] + [
                CompactGraph.compile(Pathalias().build(
                    [(p.name, p.read_text())])) for p in FIXTURES]):
            paths.append(tmp_path / f"{n}.snap")
            build_snapshot(cg, paths[-1])
        for path in paths:
            with SnapshotReader.open(path) as reader:
                for source in reader.sources():
                    table = reader.table(source)
                    names = sorted(name.encode("utf-8")
                                   for _, name, _ in table.records())
                    block = table.dfsm_bytes()
                    assert block and table.dfsm_bytes(names) == block
                    for other in (names[1:], names + [b"\xff"],
                                  names[:-1] + [names[-1] + b"x"],
                                  names[::-1]):
                        assert table.dfsm_bytes(other) is None

    def test_unicode_update_matches_scratch(self, tmp_path):
        """A cost revision on the non-ASCII map updates incrementally
        and lands byte-identical to a scratch build."""
        cg = unicode_graph()
        old = tmp_path / "old.snap"
        build_snapshot(cg, old)
        for j in normal_links(cg, limit=cg.link_count):
            for delta in (9, -3):
                revised = repriced(cg, j, delta)
                with SnapshotReader.open(old) as reader:
                    assert_screens_agree(reader, revised, [j])
                out = tmp_path / "new.snap"
                report = update_snapshot(old, revised, out,
                                         full_threshold=1.0)
                assert report.mode == "incremental"
                ref = tmp_path / "ref.snap"
                build_snapshot(revised, ref)
                assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("source", ["fixtures", "unicode"])
    def test_byte_key_writes_the_str_order_bytes(self, tmp_path,
                                                 monkeypatch, source):
        """The ``TREE`` sort key is stated as UTF-8 bytes; sorting by
        the plain ``str`` pairs instead writes the very same file."""
        if source == "fixtures":
            graphs = [CompactGraph.compile(Pathalias().build(
                [(p.name, p.read_text())])) for p in FIXTURES]
        else:
            graphs = [unicode_graph(), unicode_graph(second=True)]
        for n, cg in enumerate(graphs):
            cfg = HeuristicConfig(
                second_best=source == "unicode" and n == 1)
            by_bytes = tmp_path / f"bytes{n}.snap"
            build_snapshot(cg, by_bytes, heuristics=cfg)
            with monkeypatch.context() as m:
                m.setattr(store, "_utf8_pair", lambda pair: pair)
                by_str = tmp_path / f"str{n}.snap"
                build_snapshot(cg, by_str, heuristics=cfg)
            assert by_bytes.read_bytes() == by_str.read_bytes()


# -- the fast path must not fall back to decoding -----------------------------


def _refuse(*_args, **_kwargs):
    raise AssertionError("the update path decoded a table")


@pytest.fixture
def no_decode(monkeypatch):
    """Make the decoding table readers raise for the test's duration."""
    for attr in ("tree_links", "state_cost_map", "record_names"):
        monkeypatch.setattr(SnapshotTable, attr, _refuse)


class TestUpdateDecodesNoTable:
    @pytest.mark.parametrize("second", [False, True],
                             ids=["tree", "second-best"])
    @pytest.mark.parametrize("delta", [15, -7],
                             ids=["increase", "decrease"])
    def test_structured_v2(self, tmp_path, no_decode, second, delta):
        cfg = HeuristicConfig(second_best=second)
        cg = CompactGraph.compile(Pathalias(heuristics=cfg).build(
            [("d.map", STRUCTURED)]))
        old = tmp_path / "old.snap"
        build_snapshot(cg, old, heuristics=cfg)
        remapped = 0
        for j in normal_links(cg, limit=cg.link_count):
            revised = repriced(cg, j, delta)
            out = tmp_path / "new.snap"
            report = update_snapshot(old, revised, out,
                                     full_threshold=1.0)
            assert report.mode == "incremental", report.reason
            remapped += len(report.remapped)
            ref = tmp_path / "ref.snap"
            build_snapshot(revised, ref, heuristics=cfg)
            assert out.read_bytes() == ref.read_bytes()
        assert remapped > 0

    def test_v1_snapshot(self, tmp_path, no_decode):
        cg = CompactGraph.compile(Pathalias().build(
            [(FIXTURES[0].name, FIXTURES[0].read_text())]))
        old = tmp_path / "old.snap"
        build_snapshot(cg, old, fmt=1)
        for j in normal_links(cg):
            revised = repriced(cg, j, 7)
            out = tmp_path / "new.snap"
            report = update_snapshot(old, revised, out,
                                     full_threshold=1.0)
            assert report.mode == "incremental", report.reason
            ref = tmp_path / "ref.snap"
            build_snapshot(revised, ref, fmt=1)
            assert out.read_bytes() == ref.read_bytes()

    def test_churn_replay(self, tmp_path, no_decode):
        scenario = ChurnScenario(SMALL_CHURN)
        graphs = scenario.build_graphs()
        paths = {}
        for name in scenario.shard_names:
            paths[name] = tmp_path / f"{name}.g0.snap"
            build_snapshot(graphs[name], paths[name])
        spliced = 0
        for event in scenario.stream:
            for name in scenario.apply(event):
                out = tmp_path / f"{name}.g{event.gen + 1}.snap"
                report = update_snapshot(paths[name], graphs[name], out,
                                         full_threshold=1.0)
                assert report.mode == "incremental", report.reason
                spliced += bool(report.remapped)
                paths[name] = out
        assert spliced > 0
        for name in scenario.shard_names:
            scratch = tmp_path / "scratch.snap"
            build_snapshot(graphs[name], scratch)
            assert scratch.read_bytes() == paths[name].read_bytes()


# -- the report: lazy diff and phase timings ----------------------------------


class TestUpdateReport:
    def revision(self, tmp_path):
        cg = CompactGraph.compile(Pathalias().build(
            [("d.map", STRUCTURED)]))
        old = tmp_path / "old.snap"
        build_snapshot(cg, old)
        b, c = cg.cid_by_name["b"], cg.cid_by_name["c"]
        j = next(j for j in range(cg.off[b], cg.off[b + 1])
                 if cg.to[j] == c)
        return old, cg, repriced(cg, j, 25), j

    def test_diff_computed_only_when_read(self, tmp_path, monkeypatch):
        calls = []
        real = incremental.diff_compact_graphs

        def counting(old, new):
            calls.append(1)
            return real(old, new)

        monkeypatch.setattr(incremental, "diff_compact_graphs", counting)
        old, cg, revised, j = self.revision(tmp_path)
        report = update_snapshot(old, revised, tmp_path / "new.snap")
        assert report.mode == "incremental"
        assert calls == []
        expected = real(cg, revised)
        # the caller repricing its live graph later (as a churn replay
        # does) must not change the diff of the update already made
        revised.cost[j] += 1000
        assert report.diff.cost_changes == expected.cost_changes
        assert report.diff.cost_changes
        assert report.diff is report.diff
        assert calls == [1]

    def test_incremental_phases(self, tmp_path):
        old, _, revised, _ = self.revision(tmp_path)
        report = update_snapshot(old, revised, tmp_path / "new.snap")
        assert report.mode == "incremental"
        assert list(report.phases) == ["guard", "affected", "remap",
                                       "encode", "write"]
        assert all(sec >= 0 for sec in report.phases.values())
        assert sum(report.phases.values()) <= report.seconds
        line = report.phase_summary()
        for phase in report.phases:
            assert f"{phase} " in line

    def test_full_rebuild_phases(self, tmp_path):
        old, _, revised, _ = self.revision(tmp_path)
        report = update_snapshot(old, revised, tmp_path / "new.snap",
                                 fmt=1)
        assert report.mode == "full"
        assert list(report.phases) == ["guard", "rebuild"]
        assert "format change" in report.summary()
