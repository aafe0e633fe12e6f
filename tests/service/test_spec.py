"""Spec validation and the content-hash campaign identity."""

from __future__ import annotations

import pytest

from repro.errors import SpecValidationError
from repro.service.spec import CampaignSpec, ServiceLimits


def _fields(excinfo):
    return {d["field"] for d in excinfo.value.details}


class TestParsing:
    def test_minimal_spec_fills_defaults(self):
        spec = CampaignSpec.parse({"kind": "fig2"})
        assert spec.instances == 10
        assert spec.protocols == ("bgp", "rbgp-norci", "rbgp", "stamp")
        assert spec.topology == {
            "seed": 0, "tier1": 8, "tier2": 48, "tier3": 120, "stubs": 440,
        }
        assert spec.total_units() == 40

    def test_every_error_is_reported_at_once(self):
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse({
                "kind": "nope",
                "instances": -3,
                "protocols": ["bgp", "ospf"],
                "typo": True,
            })
        assert _fields(excinfo) == {
            "kind", "instances", "protocols", "typo",
        }

    def test_unknown_topology_field_is_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse(
                {"kind": "fig2", "topology": {"tier4": 9}}
            )
        assert _fields(excinfo) == {"topology.tier4"}

    def test_non_object_payload_is_rejected(self):
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse([1, 2, 3])
        assert _fields(excinfo) == {"$"}

    def test_instances_over_ceiling_is_a_400_not_a_clamp(self):
        limits = ServiceLimits(max_instances=50)
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse({"kind": "fig2", "instances": 51}, limits)
        assert _fields(excinfo) == {"instances"}

    def test_topology_total_over_ceiling_is_rejected(self):
        limits = ServiceLimits(max_total_ases=100)
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse(
                {"kind": "fig2",
                 "topology": {"tier1": 3, "tier2": 8, "tier3": 16,
                              "stubs": 500}},
                limits,
            )
        assert _fields(excinfo) == {"topology"}

    def test_execution_knobs_clamp_instead_of_rejecting(self):
        limits = ServiceLimits(
            max_retries=2, max_unit_timeout=60.0, max_workers=4
        )
        spec = CampaignSpec.parse(
            {"kind": "fig2", "retries": 99, "unit_timeout": 3600.0,
             "workers": 64},
            limits,
        )
        assert spec.retries == 2
        assert spec.unit_timeout == 60.0
        assert spec.workers == 4

    def test_workers_must_be_a_positive_integer(self):
        for bad in (0, -1, 1.5, "four", True):
            with pytest.raises(SpecValidationError) as excinfo:
                CampaignSpec.parse({"kind": "fig2", "workers": bad})
            assert _fields(excinfo) == {"workers"}

    def test_workers_default_to_none(self):
        spec = CampaignSpec.parse({"kind": "fig2", "workers": 3})
        assert spec.workers == 3
        assert CampaignSpec.parse({"kind": "fig2"}).workers is None

    def test_flap_knobs_only_valid_for_episode_kinds(self):
        with pytest.raises(SpecValidationError) as excinfo:
            CampaignSpec.parse({"kind": "fig2", "period": 10.0, "flaps": 3})
        assert _fields(excinfo) == {"period", "flaps"}
        spec = CampaignSpec.parse({"kind": "flap"})
        assert spec.period == 40.0 and spec.flaps == 2

    def test_flap_values_the_builder_refuses_stay_a_400(self):
        """The values ``repro-stamp flap`` exits 2 on
        (``tests/test_cli.py``): the service's refusal, messages
        included, is its own and unchanged."""
        for payload, field, message in (
            ({"flaps": 0}, "flaps", "must be an integer between 1 and 50"),
            ({"period": 0}, "period", "must be a positive number of seconds"),
            ({"period": -1}, "period", "must be a positive number of seconds"),
        ):
            with pytest.raises(SpecValidationError) as excinfo:
                CampaignSpec.parse({"kind": "flap", **payload})
            assert [
                (d["field"], d["message"]) for d in excinfo.value.details
            ] == [(field, message)]


class TestIdentity:
    def test_equal_specs_hash_equal_however_written(self):
        sparse = CampaignSpec.parse({"kind": "fig2"})
        explicit = CampaignSpec.parse({
            "kind": "fig2", "seed": 0, "instances": 10,
            "protocols": ["stamp", "bgp", "rbgp", "rbgp-norci"],
            "topology": {"seed": 0, "tier1": 8, "tier2": 48,
                         "tier3": 120, "stubs": 440},
        })
        assert sparse.campaign_id() == explicit.campaign_id()

    def test_execution_knobs_do_not_change_the_id(self):
        patient = CampaignSpec.parse(
            {"kind": "fig2", "retries": 3, "unit_timeout": 120.0,
             "workers": 6}
        )
        default = CampaignSpec.parse({"kind": "fig2"})
        assert patient.campaign_id() == default.campaign_id()

    def test_work_shaping_knobs_do_change_the_id(self):
        base = CampaignSpec.parse({"kind": "fig2"}).campaign_id()
        assert CampaignSpec.parse(
            {"kind": "fig2", "seed": 1}
        ).campaign_id() != base
        assert CampaignSpec.parse(
            {"kind": "fig2", "instances": 11}
        ).campaign_id() != base
        assert CampaignSpec.parse(
            {"kind": "fig3a"}
        ).campaign_id() != base
        assert CampaignSpec.parse(
            {"kind": "fig2", "protocols": ["bgp"]}
        ).campaign_id() != base

    def test_flap_knobs_change_the_id(self):
        base = CampaignSpec.parse({"kind": "flap"}).campaign_id()
        assert CampaignSpec.parse(
            {"kind": "flap", "flaps": 3}
        ).campaign_id() != base

    def test_document_round_trips_to_the_same_id(self):
        spec = CampaignSpec.parse(
            {"kind": "flap", "instances": 4, "protocols": ["bgp", "stamp"]}
        )
        rebuilt = CampaignSpec.from_document(spec.canonical_document())
        assert rebuilt.campaign_id() == spec.campaign_id()
        assert rebuilt.canonical_document() == spec.canonical_document()


class TestExecutionSurface:
    def test_scenario_kinds_map_to_ledger_unit_kinds(self):
        assert CampaignSpec.parse(
            {"kind": "fig2"}
        ).unit_kind() == "fig2-single-link"
        assert CampaignSpec.parse(
            {"kind": "flap"}
        ).unit_kind() == "link-flap"

    def test_flap_builder_binds_its_knobs(self):
        spec = CampaignSpec.parse({"kind": "flap", "period": 15.0, "flaps": 4})
        builder = spec.builder()
        assert builder.keywords == {"period": 15.0, "flaps": 4}

    def test_scenario_builder_is_module_level(self):
        # Ledger keys require an importable builder identity.
        builder = CampaignSpec.parse({"kind": "fig3b"}).builder()
        assert builder.__module__ == "repro.experiments.scenarios"
