"""Tests of canonical JSON serialization and content-addressed keys.

The unit key is the ledger's address space: it must change exactly
when an input that could change the result changes, and never
otherwise.  These tests pin the canonical form and the key derivation
so a silent format drift cannot make old ledgers alias new results.
"""

from __future__ import annotations

import functools

import pytest

from repro.errors import ConfigurationError
from repro.experiments.canonical import (
    LEDGER_SALT,
    canonical_bytes,
    canonical_json,
    describe_builder,
    graph_content_hash,
    unit_key,
    unit_spec,
)
from repro.experiments.scenarios import (
    link_flap_episode,
    single_provider_link_failure,
    two_link_failures_distinct_as,
)
from repro.topology.caida import load_caida, save_graph
from repro.topology.generators import (
    InternetTopologyConfig,
    example_paper_topology,
    generate_internet_topology,
)

GRAPH_HASH = "0" * 64


class TestCanonicalJson:
    def test_pinned_form(self):
        assert (
            canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
            == '{"a":[1.5,true,null,"x"],"b":1}'
        )

    def test_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json(
            {"b": 2, "a": 1}
        )

    def test_tuple_and_list_encode_identically(self):
        assert canonical_json((1, 2, "x")) == canonical_json([1, 2, "x"])

    def test_floats_use_shortest_roundtrip_repr(self):
        assert canonical_json(0.1) == "0.1"
        assert canonical_json(10.0) == "10.0"

    def test_non_ascii_is_escaped(self):
        assert canonical_json("é") == '"\\u00e9"'

    def test_rejects_nan_and_infinity(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                canonical_json(bad)

    def test_rejects_non_string_keys(self):
        with pytest.raises(ConfigurationError):
            canonical_json({1: "x"})

    def test_rejects_uncanonical_types(self):
        with pytest.raises(ConfigurationError):
            canonical_json({"a": {1, 2}})

    def test_error_names_the_path(self):
        with pytest.raises(ConfigurationError, match=r"\$\.a\[1\]"):
            canonical_json({"a": [0, object()]})

    def test_bytes_are_utf8_of_json(self):
        value = {"k": [1, "two"]}
        assert canonical_bytes(value) == canonical_json(value).encode("utf-8")


class TestDescribeBuilder:
    def test_module_level_function(self):
        spec = describe_builder(single_provider_link_failure)
        assert spec["module"] == "repro.experiments.scenarios"
        assert spec["qualname"] == "single_provider_link_failure"
        assert spec["args"] == [] and spec["kwargs"] == {}

    def test_partial_records_bound_arguments(self):
        builder = functools.partial(link_flap_episode, period=40.0, flaps=3)
        spec = describe_builder(builder)
        assert spec["qualname"] == "link_flap_episode"
        assert spec["kwargs"] == {"period": 40.0, "flaps": 3}

    def test_partials_with_different_arguments_differ(self):
        a = describe_builder(functools.partial(link_flap_episode, flaps=2))
        b = describe_builder(functools.partial(link_flap_episode, flaps=3))
        assert canonical_json(a) != canonical_json(b)

    def test_lambda_is_rejected(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            describe_builder(lambda graph, rng: None)

    def test_locally_defined_function_is_rejected(self):
        def local_builder(graph, rng):
            return None

        with pytest.raises(ConfigurationError, match="module-level"):
            describe_builder(local_builder)


class TestUnitKey:
    def _key(self, **overrides):
        spec = dict(
            graph_hash=GRAPH_HASH,
            builder=single_provider_link_failure,
            kind="fig2-single-link",
            seed=0,
            instance=0,
            protocol="bgp",
        )
        spec.update(overrides)
        return unit_key(
            spec["graph_hash"], spec["builder"], spec["kind"],
            spec["seed"], spec["instance"], spec["protocol"],
        )

    def test_pinned_key(self):
        """The derivation is part of the on-disk ledger contract.

        If this pin moves, previously written ledgers silently miss —
        that is only acceptable alongside a LEDGER_SALT bump (which
        makes the invalidation deliberate and documented).
        """
        assert self._key() == (
            "099ee60c2fe85cad6311318332fe95b06520d811225b8546f6f232c3578bb269"
        )
        # Re-pinned once, with the "repro-unit-v2" bump (every unit
        # value became an EpisodeRun).  Only the salt moved: under the
        # old one the derivation still yields the old pin.
        assert unit_key(
            GRAPH_HASH, single_provider_link_failure,
            "fig2-single-link", 0, 0, "bgp", salt="repro-unit-v1",
        ) == "cee598c1453591c47b0671915a0bddccf2fd691efffe99054b4e0fc9bbd3939b"

    def test_key_is_deterministic(self):
        assert self._key() == self._key()

    def test_every_input_field_is_load_bearing(self):
        base = self._key()
        assert self._key(graph_hash="1" * 64) != base
        assert self._key(builder=two_link_failures_distinct_as) != base
        assert self._key(kind="other-kind") != base
        assert self._key(seed=1) != base
        assert self._key(instance=1) != base
        assert self._key(protocol="stamp") != base

    def test_salt_is_folded_in(self):
        salted = unit_key(
            GRAPH_HASH, single_provider_link_failure,
            "fig2-single-link", 0, 0, "bgp", salt=LEDGER_SALT + "-next",
        )
        assert salted != self._key()

    def test_spec_carries_complete_input(self):
        spec = unit_spec(
            GRAPH_HASH, single_provider_link_failure,
            "fig2-single-link", 3, 1, "stamp",
        )
        assert spec == {
            "salt": LEDGER_SALT,
            "graph": GRAPH_HASH,
            "builder": describe_builder(single_provider_link_failure),
            "kind": "fig2-single-link",
            "seed": 3,
            "instance": 1,
            "protocol": "stamp",
        }


class TestGraphContentHash:
    def test_hash_is_pinned(self):
        """The literal was computed at the commit before the preimage
        moved out of ``topology/serialization.py``: if it drifts, every
        ledger written so far stops hitting."""
        assert graph_content_hash(example_paper_topology()) == (
            "8e82008e93165b14ae7c686e1ffad270"
            "878c7b276ef61e949fcbe9d4059bbd80"
        )

    def test_regenerated_graph_hashes_identically(self, tmp_path):
        config = InternetTopologyConfig(
            seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
        )
        graph_a, _ = generate_internet_topology(config)
        graph_b, _ = generate_internet_topology(config)
        assert graph_content_hash(graph_a) == graph_content_hash(graph_b)
        # The CLI's `topology --out` / `--topology-file` reload interns
        # the same content in a different order (so its CSR bytes
        # differ) and must still address the same ledger entries.
        save_graph(graph_a, tmp_path / "g.txt")
        reloaded = load_caida(tmp_path / "g.txt").graph
        assert list(reloaded) != list(graph_a)
        assert graph_content_hash(reloaded) == graph_content_hash(graph_a)

    def test_different_topology_hashes_differently(self):
        config_a = InternetTopologyConfig(
            seed=5, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
        )
        config_b = InternetTopologyConfig(
            seed=6, n_tier1=3, n_tier2=8, n_tier3=16, n_stub=35
        )
        graph_a, _ = generate_internet_topology(config_a)
        graph_b, _ = generate_internet_topology(config_b)
        assert graph_content_hash(graph_a) != graph_content_hash(graph_b)

    def test_hash_is_computed_once_per_graph(self, monkeypatch):
        """A daemon hashes its cached topology once, not per campaign."""
        from repro.experiments import canonical

        calls = []
        preimage = canonical._graph_hash_preimage
        monkeypatch.setattr(
            canonical, "_graph_hash_preimage",
            lambda graph: calls.append(graph) or preimage(graph),
        )
        graph = example_paper_topology()
        first = graph_content_hash(graph)
        assert graph_content_hash(graph) == first and len(calls) == 1
        # An equal graph is another object: hashed itself, equal hash.
        assert graph_content_hash(example_paper_topology()) == first
        assert len(calls) == 2
