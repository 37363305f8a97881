"""Tests for zero-copy region shipping: shared-memory segments and their lifetime.

The invariant under test everywhere: segment lifetime is owned by the shipping
session — created at ship, unlinked at settle/abort/shutdown — and a segment never
survives a compile, *including* failure paths.  ``tests/conftest.py`` additionally
asserts after every test (suite-wide) that no ship segment is still registered
in-process or present on ``/dev/shm``.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.distributed.compiler import CompilerConfiguration, ParallelCompiler
from repro.exprlang.evaluator import random_expression_source
from repro.exprlang.frontend import parse_expression
from repro.exprlang.grammar import expression_grammar
from repro.tree import shm
from repro.tree.linearize import pack, rebuild, unpack

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(), reason="platform lacks shared memory"
)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


requires_fork = pytest.mark.skipif(
    not _fork_available(), reason="processes backend requires the fork start method"
)


@pytest.fixture(scope="module")
def split_grammar():
    return expression_grammar(min_split_size=60)


@pytest.fixture(scope="module")
def big_tree(split_grammar):
    source = random_expression_source(250, seed=11, nesting=6)
    return parse_expression(source, split_grammar)


class TestShareAndRebuild:
    def test_roundtrip_matches_unpack(self, split_grammar, big_tree):
        packed = pack(split_grammar, big_tree)
        handle, segment = shm.share_packed(packed)
        try:
            assert handle.size_bytes() == packed.size_bytes()
            shared_root, shared_holes = rebuild(split_grammar, handle)
            packed_root, packed_holes = unpack(
                split_grammar, pack(split_grammar, big_tree)
            )
            assert shared_holes == {} and packed_holes == {}
            shared_nodes = list(shared_root.walk())
            packed_nodes = list(packed_root.walk())
            assert len(shared_nodes) == len(packed_nodes)
            for ours, theirs in zip(shared_nodes, packed_nodes):
                assert ours.symbol.name == theirs.symbol.name
                assert ours.is_terminal == theirs.is_terminal
                if ours.is_terminal:
                    assert ours.token_value == theirs.token_value
        finally:
            segment.release()

    def test_handle_pickles_small(self, split_grammar, big_tree):
        packed = pack(split_grammar, big_tree)
        handle, segment = shm.share_packed(packed)
        try:
            wire = pickle.dumps(handle)
            # The whole point of the handle: the region does not ride the mailbox.
            assert len(wire) < 256
            assert len(wire) < len(pickle.dumps(packed))
            clone = pickle.loads(wire)
            root, _holes = clone.rebuild(split_grammar)
            assert root.symbol.name == big_tree.symbol.name
        finally:
            segment.release()

    def test_rebuild_after_unlink_while_mapped_is_not_required(
        self, split_grammar, big_tree
    ):
        """Release before any rebuild: the segment is gone and attaching fails.

        (The production ordering is the reverse — workers attach while the parser
        still holds the link — but this pins down that release really unlinks.)
        """
        handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        segment.release()
        with pytest.raises((FileNotFoundError, OSError)):
            rebuild(split_grammar, handle)


class TestSegmentLifecycle:
    def test_share_registers_and_release_unregisters(self, split_grammar, big_tree):
        handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        assert handle.segment_name in shm.live_segment_names()
        assert handle.segment_name in shm.system_segment_names()
        segment.release()
        assert handle.segment_name not in shm.live_segment_names()
        assert handle.segment_name not in shm.system_segment_names()

    def test_release_is_idempotent(self, split_grammar, big_tree):
        _handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        segment.release()
        segment.release()  # must not raise

    def test_release_tolerates_external_unlink(self, split_grammar, big_tree):
        handle, segment = shm.share_packed(pack(split_grammar, big_tree))
        foreign = shm._attach(handle.segment_name)
        foreign.unlink()
        foreign.close()
        segment.release()  # FileNotFoundError swallowed
        assert handle.segment_name not in shm.live_segment_names()

    @requires_fork
    def test_backend_close_releases_adopted_segments(self, split_grammar, big_tree):
        from repro.backends import create_substrate

        with create_substrate("processes") as pool:
            backend = pool.session(2)
            try:
                assert backend.shared_ship
                handle, segment = shm.share_packed(pack(split_grammar, big_tree))
                backend.adopt_segment(segment)
            finally:
                backend.close()
            assert handle.segment_name not in shm.live_segment_names()
            assert handle.segment_name not in shm.system_segment_names()

    def test_only_processes_substrate_advertises_shared_ship(self):
        from repro.backends import create_substrate

        for name in ("simulated", "threads", "sockets"):
            with create_substrate(name) as pool:
                with pool.session(2) as backend:
                    assert not getattr(backend, "shared_ship", False)


class TestShipFaultInjection:
    """Failure paths must not leak segments, and refusals must fall back."""

    @requires_fork
    def test_oserror_falls_back_to_packed_bytes(
        self, split_grammar, big_tree, monkeypatch
    ):
        def refuse(packed):
            raise OSError("injected: /dev/shm exhausted")

        monkeypatch.setattr(shm, "share_packed", refuse)
        compiler = ParallelCompiler(split_grammar)
        report = compiler.compile_tree(big_tree, 4, backend="processes")
        reference = compiler.compile_tree(big_tree, 4)
        assert report.root_attributes["value"] == reference.root_attributes["value"]
        assert shm.live_segment_names() == []

    @requires_fork
    def test_ship_failure_releases_earlier_segments(
        self, split_grammar, big_tree, monkeypatch
    ):
        """A crash after some regions already shipped zero-copy: the session's
        close (the compile_tree finally) must release every adopted segment."""
        real = shm.share_packed
        calls = {"count": 0}

        def explode_on_second(packed):
            calls["count"] += 1
            if calls["count"] >= 2:
                raise RuntimeError("injected ship failure")
            return real(packed)

        monkeypatch.setattr(shm, "share_packed", explode_on_second)
        compiler = ParallelCompiler(split_grammar)
        with pytest.raises(RuntimeError, match="injected ship failure"):
            compiler.compile_tree(big_tree, 4, backend="processes")
        assert calls["count"] >= 2  # at least one segment was created, then the crash
        assert shm.live_segment_names() == []
        assert shm.system_segment_names() == []

    @requires_fork
    def test_zero_copy_disabled_by_configuration(
        self, split_grammar, big_tree, monkeypatch
    ):
        calls = {"count": 0}
        real = shm.share_packed

        def counting(packed):
            calls["count"] += 1
            return real(packed)

        monkeypatch.setattr(shm, "share_packed", counting)
        configuration = CompilerConfiguration(use_zero_copy_ship=False)
        ParallelCompiler(split_grammar, configuration).compile_tree(
            big_tree, 4, backend="processes"
        )
        assert calls["count"] == 0

    @requires_fork
    def test_zero_copy_engaged_on_processes(self, split_grammar, big_tree, monkeypatch):
        calls = {"count": 0}
        real = shm.share_packed

        def counting(packed):
            calls["count"] += 1
            return real(packed)

        monkeypatch.setattr(shm, "share_packed", counting)
        report = ParallelCompiler(split_grammar).compile_tree(
            big_tree, 4, backend="processes"
        )
        # Every region of the decomposition ships as a segment handle.
        assert calls["count"] == report.decomposition.region_count
        assert shm.live_segment_names() == []

    def test_sockets_never_ships_segments(self, split_grammar, big_tree, monkeypatch):
        def forbidden(packed):  # pragma: no cover - the assertion is the point
            raise AssertionError("sockets substrate must not ship shared memory")

        monkeypatch.setattr(shm, "share_packed", forbidden)
        report = ParallelCompiler(split_grammar).compile_tree(
            big_tree, 4, backend="sockets"
        )
        assert report.root_attributes["value"] is not None
