"""Tests for framework persistence: binary ``.npz`` snapshot round trips.

A snapshot restores the overlay byte-for-byte: config, physical graph,
coordinates, embedding report, clustering, borders, catalog and the paths
routed over them. Churned overlays and the gossip state plane survive it
too. Every malformed archive (truncated, bit-flipped, empty, not a zip,
missing arrays or meta keys, inconsistent arrays) is rejected with a
typed :class:`~repro.util.errors.ReproError`; a byte-mutation fuzz backs
the hand-written cases.
"""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import DynamicOverlay
from repro.persistence import SNAPSHOT_FORMAT_VERSION, load_snapshot, save_snapshot
from repro.routing import HierarchicalRouter, validate_path
from repro.routing.batch import query_tables
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import ReproError
from repro.util.rng import ensure_rng


def _arrays(path):
    """Every array of the snapshot at *path*, by name."""
    with np.load(str(path), allow_pickle=False) as data:
        return {name: data[name] for name in data.files}


def _write(path, arrays):
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def _with_meta(arrays, edit):
    """*arrays* with its meta JSON replaced by ``edit(meta)``'s result."""
    meta = json.loads(str(arrays["meta"]))
    return {**arrays, "meta": np.array(json.dumps(edit(meta)))}


@pytest.fixture(scope="module")
def snapshot_path(tiny_framework, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "overlay.npz"
    save_snapshot(tiny_framework, str(path))
    return path


@pytest.fixture(scope="module")
def binary_snapshot(snapshot_path):
    return load_snapshot(str(snapshot_path))


@pytest.fixture(scope="module")
def restored(binary_snapshot):
    return binary_snapshot.framework


class TestRoundTrip:
    def test_structure_preserved(self, tiny_framework, restored):
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.clustering.labels == tiny_framework.clustering.labels
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert list(restored.catalog.names) == list(tiny_framework.catalog.names)
        assert restored.catalog.descriptions == tiny_framework.catalog.descriptions

    def test_physical_graph_preserved(self, tiny_framework, restored):
        a = tiny_framework.physical.topology
        b = restored.physical.topology
        assert a.graph.node_count == b.graph.node_count
        assert sorted(a.graph.edges()) == sorted(b.graph.edges())
        assert a.positions == b.positions
        assert a.node_kind == b.node_kind
        assert a.stub_domain == b.stub_domain
        assert restored.physical.noise == tiny_framework.physical.noise

    def test_coordinates_preserved(self, tiny_framework, restored):
        for proxy in tiny_framework.overlay.proxies:
            assert restored.space.coordinate(proxy) == (
                tiny_framework.space.coordinate(proxy)
            )

    def test_embedding_report_preserved(self, tiny_framework, restored):
        a, b = tiny_framework.embedding_report, restored.embedding_report
        assert b.landmark_ids == a.landmark_ids
        assert np.array_equal(b.landmark_coordinates, a.landmark_coordinates)
        assert b.dimension == a.dimension
        assert b.measurement_count == a.measurement_count
        assert b.landmark_fit_error == a.landmark_fit_error

    def test_routing_identical(self, tiny_framework, restored):
        """Same overlay, same coordinates, same borders -> same paths."""
        original = HierarchicalRouter(tiny_framework.hfc)
        loaded = HierarchicalRouter(restored.hfc)
        for seed in range(10):
            request = tiny_framework.random_request(seed=seed)
            a = original.route(request)
            b = loaded.route(request)
            assert a.hops == b.hops
            validate_path(b, request, restored.overlay)

    def test_describe_matches(self, tiny_framework, restored):
        assert restored.describe() == tiny_framework.describe()

    def test_config_preserved(self, tiny_framework, restored):
        assert restored.config == tiny_framework.config


class TestFormatGuard:
    def test_wrong_version_rejected(self, snapshot_path, tmp_path):
        """A meta without any format version (not written by
        :func:`save_snapshot`) is refused, not guessed at."""
        path = tmp_path / "unversioned.npz"
        arrays = _with_meta(
            _arrays(snapshot_path),
            lambda meta: {k: v for k, v in meta.items() if k != "format_version"},
        )
        _write(path, arrays)
        with pytest.raises(ReproError, match="unsupported snapshot format None"):
            load_snapshot(str(path))

    def test_version_constant_written(self, snapshot_path):
        meta = json.loads(str(_arrays(snapshot_path)["meta"]))
        assert meta["format_version"] == SNAPSHOT_FORMAT_VERSION

    def test_retired_config_fields_ignored(
        self, tiny_framework, snapshot_path, tmp_path
    ):
        """Snapshots written with since-retired config knobs still load."""

        def add_retired(meta):
            meta["config"]["base"].update(
                vectorized_construction=True, query_workers=None
            )
            return meta

        path = tmp_path / "retired.npz"
        _write(path, _with_meta(_arrays(snapshot_path), add_retired))
        assert load_snapshot(str(path)).framework.config == tiny_framework.config


class TestBinarySnapshot:
    def test_routing_matrices_bit_exact(self, tiny_framework, binary_snapshot):
        route_a, true_a = tiny_framework.hfc.routing_matrices()
        route_b, true_b = binary_snapshot.framework.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

    def test_query_tables_bit_exact(self, tiny_framework, binary_snapshot):
        a = query_tables(tiny_framework.hfc)
        b = query_tables(binary_snapshot.framework.hfc)
        assert a.border_list == b.border_list
        assert np.array_equal(a.ext, b.ext)
        assert np.array_equal(a.d_border, b.d_border)

    def test_structure_preserved(self, tiny_framework, binary_snapshot):
        restored = binary_snapshot.framework
        assert restored.overlay.proxies == tiny_framework.overlay.proxies
        assert restored.overlay.placement == tiny_framework.overlay.placement
        assert restored.hfc.borders == tiny_framework.hfc.borders
        assert restored.describe() == tiny_framework.describe()

    def test_columnar_attached(self, binary_snapshot):
        state = binary_snapshot.framework.hfc.columnar
        assert state is binary_snapshot.columnar
        state.validate()

    def test_no_state_plane_by_default(self, binary_snapshot):
        assert binary_snapshot.state_plane is None

    def test_wrong_version_rejected(self, snapshot_path, tmp_path):
        path = tmp_path / "overlay.npz"

        def bump(meta):
            meta["format_version"] = 999
            return meta

        _write(path, _with_meta(_arrays(snapshot_path), bump))
        with pytest.raises(ReproError):
            load_snapshot(str(path))


class TestStatePlaneRoundTrip:
    """Post-PR3 state survives a snapshot: revisions, incarnations, streams."""

    @pytest.fixture(scope="class")
    def protocol(self, tiny_framework):
        protocol = StateDistributionProtocol(
            tiny_framework.hfc, seed=11, mode="delta"
        )
        protocol.run(max_time=6000.0, stop_on_convergence=False)
        return protocol

    @pytest.fixture(scope="class")
    def plane(self, protocol):
        return protocol.snapshot_state_plane()

    def test_plane_embeds_exactly(self, tiny_framework, plane, tmp_path_factory):
        path = tmp_path_factory.mktemp("artifacts") / "warm.npz"
        save_snapshot(tiny_framework, str(path), state_plane=plane)
        snap = load_snapshot(str(path))
        assert snap.state_plane == plane

    def test_capability_revisions_preserved(self, protocol, plane):
        for proxy, state in protocol.states.items():
            capture = plane[str(proxy)]["state"]
            assert capture["sct_p"]["revision"] == state.sct_p.revision
            assert capture["sct_c"]["revision"] == state.sct_c.revision

    def test_emitter_incarnations_captured(self, protocol, plane):
        for proxy in protocol.hfc.overlay.proxies:
            agent = protocol._agent_of[proxy]
            assert (
                plane[str(proxy)]["emitter"]["incarnation"]
                == agent.emitter.incarnation
            )

    def test_warm_restore_keeps_learned_tables(self, tiny_framework, plane):
        fresh = StateDistributionProtocol(
            tiny_framework.hfc, seed=12, mode="delta"
        )
        proxy = tiny_framework.overlay.proxies[0]
        capture = plane[str(proxy)]
        fresh.restore_state(proxy, capture)
        restored = fresh.states[proxy]
        saved_keys = {
            tuple(k["tuple"]) if isinstance(k, dict) else k
            for k, _, _ in capture["state"]["sct_c"]["entries"]
        }
        assert set(restored.sct_c._entries) == saved_keys
        # The emitter does not resume mid-stream: its incarnation advances
        # past the saved one so peers accept the post-restart streams.
        saved_incarnation = capture["emitter"]["incarnation"]
        agent = fresh._agent_of[proxy]
        assert agent.emitter.incarnation > saved_incarnation
        assert agent.emitter._seq == {}


class TestTwinOverlay:
    """Hypothesis: a churned overlay and its snapshot restore are twins."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16 - 1), leaves=st.integers(1, 6))
    def test_restore_is_bit_exact(
        self, tiny_framework, tmp_path_factory, seed, leaves
    ):
        rng = ensure_rng(seed)
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        for _ in range(leaves):
            if dyn.size <= 4:
                break
            dyn.leave(rng.choice(dyn.proxies))

        path = tmp_path_factory.mktemp("twin") / f"overlay-{seed}.npz"
        save_snapshot(dyn, str(path))
        snap = load_snapshot(str(path))
        twin = DynamicOverlay.from_snapshot(
            snap, restructure_tolerance=None, track_quality=False
        )

        assert twin.version == dyn.version
        assert twin.hfc.borders == dyn.hfc.borders
        route_a, true_a = dyn.hfc.routing_matrices()
        route_b, true_b = twin.hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

        # Same topology + same seed => identical delta streams on the wire.
        report_a = StateDistributionProtocol(
            dyn.hfc, seed=21, mode="delta"
        ).run(max_time=4000.0, stop_on_convergence=False)
        report_b = StateDistributionProtocol(
            twin.hfc, seed=21, mode="delta"
        ).run(max_time=4000.0, stop_on_convergence=False)
        assert report_a.total_messages == report_b.total_messages
        assert report_a.total_size == report_b.total_size
        assert report_a.messages_by_kind == report_b.messages_by_kind
        assert report_a.converged_at == report_b.converged_at


class TestDeterministicNoise:
    """A restored network measures the same noise on every load.

    Restores used to build the `PhysicalNetwork` with an OS-seeded noise
    stream, so joins after a warm start located different coordinates on
    every run.
    """

    @staticmethod
    def _joins(snapshot, routers):
        dyn = DynamicOverlay.from_snapshot(
            snapshot, restructure_tolerance=None, track_quality=False
        )
        joined = [dyn.join(router, frozenset({"s0"})) for router in routers]
        return [dyn.space.coordinate(proxy) for proxy in joined]

    def test_two_snapshot_loads_measure_and_join_identically(
        self, tiny_framework, tmp_path
    ):
        path = tmp_path / "overlay.npz"
        save_snapshot(tiny_framework, str(path))
        first, second = load_snapshot(str(path)), load_snapshot(str(path))
        routers = [
            n for n in tiny_framework.physical.topology.graph.nodes()
            if n not in set(tiny_framework.overlay.proxies)
        ][:3]
        u, v = routers[0], tiny_framework.overlay.proxies[0]
        probes = [first.framework.physical.measure(u, v) for _ in range(5)]
        assert probes == [second.framework.physical.measure(u, v) for _ in range(5)]
        assert self._joins(first, routers) == self._joins(second, routers)


def _npz_bytes(arrays):
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _flip_middle(raw):
    mutated = bytearray(raw)
    mutated[len(raw) // 2] ^= 0x40
    return bytes(mutated)


def _edit_array(name, edit):
    def corrupt(raw, arrays):
        return _npz_bytes({**arrays, name: edit(arrays[name].copy())})

    return corrupt


def _set_first(value):
    def edit(codes):
        codes[0] = value
        return codes

    return edit


CORRUPTIONS = {
    "truncated": lambda raw, arrays: raw[: len(raw) // 2],
    "bit_flipped": lambda raw, arrays: _flip_middle(raw),
    "empty": lambda raw, arrays: b"",
    "not_a_zip": lambda raw, arrays: b"this is not a snapshot\n" * 8,
    "array_missing": lambda raw, arrays: _npz_bytes(
        {k: v for k, v in arrays.items() if k != "coords"}
    ),
    "meta_key_missing": lambda raw, arrays: _npz_bytes(
        _with_meta(arrays, lambda meta: {k: v for k, v in meta.items() if k != "config"})
    ),
    "meta_not_json": lambda raw, arrays: _npz_bytes(
        {**arrays, "meta": np.array("{not json")}
    ),
    "meta_is_list": lambda raw, arrays: _npz_bytes(
        {**arrays, "meta": np.array("[1, 2]")}
    ),
    "edge_length_mismatch": _edit_array("edge_w", lambda w: w[:-1]),
    "node_kind_too_high": _edit_array("phys_kind", _set_first(99)),
    "node_kind_negative": _edit_array("phys_kind", _set_first(-1)),
}


class TestCorruptSnapshot:
    """A malformed archive raises :class:`ReproError`, never a bare
    ``BadZipFile``/``EOFError``/``KeyError``/``JSONDecodeError``/... ."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_rejected_with_typed_error(self, snapshot_path, tmp_path, corruption):
        raw = snapshot_path.read_bytes()
        path = tmp_path / "corrupt.npz"
        path.write_bytes(CORRUPTIONS[corruption](raw, _arrays(snapshot_path)))
        with pytest.raises(ReproError):
            load_snapshot(str(path))

    def test_low_level_error_is_chained(self, snapshot_path, tmp_path):
        path = tmp_path / "truncated.npz"
        path.write_bytes(snapshot_path.read_bytes()[:100])
        with pytest.raises(ReproError) as excinfo:
            load_snapshot(str(path))
        assert excinfo.value.__cause__ is not None

    def test_missing_path_stays_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_snapshot(str(tmp_path / "absent.npz"))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_byte_mutations_load_or_raise_typed(
        self, snapshot_path, tmp_path_factory, data
    ):
        """Flip, overwrite or cut bytes anywhere: the load either succeeds
        (the mutation hit bytes the reader ignores) or raises ReproError."""
        raw = bytearray(snapshot_path.read_bytes())
        for _ in range(data.draw(st.integers(1, 4), label="mutations")):
            at = data.draw(st.integers(0, len(raw) - 1), label="offset")
            raw[at] = data.draw(st.integers(0, 255), label="byte")
        cut = data.draw(st.integers(0, len(raw)), label="keep")
        if data.draw(st.booleans(), label="truncate"):
            del raw[cut:]
        path = tmp_path_factory.mktemp("fuzz") / "mutated.npz"
        path.write_bytes(bytes(raw))
        try:
            load_snapshot(str(path))
        except ReproError:
            pass
