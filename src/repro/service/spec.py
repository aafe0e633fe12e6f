"""Campaign specs: validation, server-side ceilings, content-hash ids.

A client submits a JSON object describing one figure/flap campaign.
This module turns it into a :class:`CampaignSpec`:

* **Validation is structured.**  Every problem is collected as a
  ``{"field", "message"}`` pair and raised as
  :class:`~repro.errors.SpecValidationError`; the HTTP layer returns
  the list verbatim in a 400 body, so a client sees *all* its mistakes
  at once, field by field — not one opaque string.
* **Ceilings, not trust.**  Work-shaping knobs (``instances``,
  topology size) are validated against :class:`ServiceLimits`;
  execution knobs that cannot change results (``retries``,
  ``unit_timeout``, ``workers``) are *clamped* to the server ceilings, because a
  client asking for more patience than the operator allows should
  still get its campaign, just under house rules.
* **The campaign id is the spec.**  :meth:`CampaignSpec.campaign_id`
  is the SHA-256 of the canonical JSON of the *defaults-filled* spec
  document (:func:`repro.experiments.canonical.canonical_json`), so
  equal campaigns — however sparsely the client wrote them, whatever
  order the protocols were listed in — hash to the same id, and
  duplicate submissions converge on one execution.  Clamped execution
  knobs are excluded from the hash: they cannot change any result.

The spec's ``kind`` names an entry of the campaign catalogue
(:data:`repro.experiments.scenarios.CAMPAIGNS` — the one the CLI's
subcommands read), which supplies the module-level episode builder and
the ledger unit kind, so the campaign fans out over the existing
supervised pool unchanged and shares its ledger with CLI runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import SpecValidationError
from repro.experiments.canonical import canonical_bytes, sha256_hex
from repro.experiments.runner import PROTOCOLS
from repro.experiments.scenarios import CAMPAIGNS
from repro.topology.generators import InternetTopologyConfig

KINDS: Tuple[str, ...] = tuple(CAMPAIGNS)

#: Kinds whose builder takes the flap knobs (``period``, ``flaps``) —
#: canonical keyword arguments of the builder, so part of the ledger
#: key, as they change results.
_FLAP_KINDS = tuple(
    kind for kind in KINDS if "flaps" in CAMPAIGNS[kind].defaults()
)

#: Spec topology field -> the generator config field it sets (and
#: whose default it takes).
_TOPOLOGY_FIELDS = {
    "seed": "seed", "tier1": "n_tier1", "tier2": "n_tier2",
    "tier3": "n_tier3", "stubs": "n_stub",
}
_TOPOLOGY_DEFAULTS = {
    field: InternetTopologyConfig.__dataclass_fields__[attribute].default
    for field, attribute in _TOPOLOGY_FIELDS.items()
}


@dataclass(frozen=True)
class ServiceLimits:
    """Server-side ceilings a deployment enforces at admission.

    ``max_instances`` and ``max_total_ases`` bound the work one
    campaign may demand (violations are 400s: the spec itself is
    overambitious).  ``max_retries`` and ``max_unit_timeout`` are
    clamps: the accepted campaign simply runs under the ceiling.
    """

    max_instances: int = 1000
    max_total_ases: int = 20000
    max_retries: int = 5
    max_unit_timeout: float = 900.0
    #: Ceiling a campaign's requested ``workers`` clamps to.  A clamp,
    #: not a rejection: worker count is result-invariant, and the
    #: scheduler's shared budget may grant even fewer under contention.
    max_workers: int = 8


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign: what to run, at what scale, how patiently."""

    kind: str
    seed: int
    instances: int
    protocols: Tuple[str, ...]
    topology: Dict[str, int]
    period: Optional[float] = None
    flaps: Optional[int] = None
    retries: int = 1
    unit_timeout: Optional[float] = None
    #: Requested worker processes (``None``: the server default).
    #: Clamped to :attr:`ServiceLimits.max_workers`; the concurrent
    #: scheduler grants at most this many slots from the shared budget.
    workers: Optional[int] = None

    # -- parsing -------------------------------------------------------

    @classmethod
    def parse(
        cls, payload: Any, limits: Optional[ServiceLimits] = None
    ) -> "CampaignSpec":
        """Validate a submitted JSON object into a spec.

        Raises :class:`~repro.errors.SpecValidationError` carrying one
        ``{"field", "message"}`` entry per problem.  Unknown fields are
        rejected — a typoed knob silently ignored would run the wrong
        campaign under the right-looking id.
        """
        limits = limits or ServiceLimits()
        errors: List[Dict[str, str]] = []

        def fail(field: str, message: str) -> None:
            errors.append({"field": field, "message": message})

        if not isinstance(payload, dict):
            raise SpecValidationError(
                [{"field": "$", "message": "spec must be a JSON object"}]
            )

        known = {
            "kind", "seed", "instances", "protocols", "topology",
            "period", "flaps", "retries", "unit_timeout", "workers",
        }
        for field in sorted(set(payload) - known):
            fail(field, "unknown field")

        kind = payload.get("kind")
        if kind not in KINDS:
            fail("kind", f"must be one of {', '.join(KINDS)}")

        seed = payload.get("seed", 0)
        if not _is_int(seed):
            fail("seed", "must be an integer")
            seed = 0

        instances = payload.get("instances", 10)
        if not _is_int(instances) or instances < 1:
            fail("instances", "must be a positive integer")
            instances = 1
        elif instances > limits.max_instances:
            fail(
                "instances",
                f"exceeds the server ceiling of {limits.max_instances}",
            )

        protocols = payload.get("protocols", list(PROTOCOLS))
        normalized: Tuple[str, ...] = ()
        if (
            not isinstance(protocols, (list, tuple))
            or not protocols
            or not all(isinstance(p, str) for p in protocols)
        ):
            fail("protocols", "must be a non-empty list of protocol names")
        else:
            unknown = sorted(set(protocols) - set(PROTOCOLS))
            if unknown:
                fail(
                    "protocols",
                    f"unknown: {', '.join(unknown)} "
                    f"(valid: {', '.join(PROTOCOLS)})",
                )
            else:
                # Normalize to canonical display order and dedupe, so
                # ["stamp", "bgp"] and ["bgp", "stamp"] are the same
                # campaign (per-protocol results are order-free).
                seen = set(protocols)
                normalized = tuple(p for p in PROTOCOLS if p in seen)

        topology = dict(_TOPOLOGY_DEFAULTS)
        supplied = payload.get("topology", {})
        if not isinstance(supplied, dict):
            fail("topology", "must be an object")
        else:
            for field in sorted(set(supplied) - set(_TOPOLOGY_FIELDS)):
                fail(f"topology.{field}", "unknown field")
            for field in _TOPOLOGY_FIELDS:
                if field not in supplied:
                    continue
                value = supplied[field]
                if not _is_int(value) or (field != "seed" and value < 0):
                    fail(f"topology.{field}", "must be a non-negative integer")
                else:
                    topology[field] = value
            if topology["tier1"] < 2:
                fail("topology.tier1", "need at least two tier-1 ASes")
            total = sum(topology[f] for f in ("tier1", "tier2", "tier3", "stubs"))
            if total > limits.max_total_ases:
                fail(
                    "topology",
                    f"{total} ASes exceeds the server ceiling of "
                    f"{limits.max_total_ases}",
                )

        period = payload.get("period")
        flaps = payload.get("flaps")
        if kind in _FLAP_KINDS:
            defaults = CAMPAIGNS[kind].defaults()
            period = defaults["period"] if period is None else period
            flaps = defaults["flaps"] if flaps is None else flaps
            if not isinstance(period, (int, float)) or isinstance(
                period, bool
            ) or not period > 0:
                fail("period", "must be a positive number of seconds")
                period = defaults["period"]
            if not _is_int(flaps) or not 1 <= flaps <= 50:
                fail("flaps", "must be an integer between 1 and 50")
                flaps = defaults["flaps"]
            # The builder's rule: the last flap's offset stays finite
            # (compared exactly, so an integer no float holds is refused
            # too).
            if not (2 * flaps - 1) * period <= sys.float_info.max:
                fail("period", "must keep every offset finite")
                period = defaults["period"]
            period = float(period)
        else:
            if period is not None:
                fail("period", f"only valid for kinds: {', '.join(_FLAP_KINDS)}")
                period = None
            if flaps is not None:
                fail("flaps", f"only valid for kinds: {', '.join(_FLAP_KINDS)}")
                flaps = None

        retries = payload.get("retries", 1)
        if not _is_int(retries) or retries < 0:
            fail("retries", "must be a non-negative integer")
            retries = 1
        else:
            retries = min(retries, limits.max_retries)  # clamp, not reject

        unit_timeout = payload.get("unit_timeout")
        if unit_timeout is not None:
            if not isinstance(unit_timeout, (int, float)) or isinstance(
                unit_timeout, bool
            ) or not unit_timeout > 0:
                fail("unit_timeout", "must be a positive number of seconds")
                unit_timeout = None
            else:
                unit_timeout = min(float(unit_timeout), limits.max_unit_timeout)

        workers = payload.get("workers")
        if workers is not None:
            if not _is_int(workers) or workers < 1:
                fail("workers", "must be a positive integer")
                workers = None
            else:
                workers = min(workers, limits.max_workers)  # clamp

        if errors:
            raise SpecValidationError(errors)

        return cls(
            kind=kind,
            seed=seed,
            instances=instances,
            protocols=normalized,
            topology=topology,
            period=period,
            flaps=flaps,
            retries=retries,
            unit_timeout=unit_timeout,
            workers=workers,
        )

    # -- identity ------------------------------------------------------

    def canonical_document(self) -> Dict[str, Any]:
        """The defaults-filled document the campaign id hashes.

        Excludes the clamped execution knobs (``retries``,
        ``unit_timeout``, ``workers``): they decide how patiently units
        are retried and how wide the pool fans out, never what any unit
        computes, so two submissions differing only there are the same
        campaign.
        """
        doc: Dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "instances": self.instances,
            "protocols": list(self.protocols),
            "topology": {k: self.topology[k] for k in _TOPOLOGY_FIELDS},
        }
        if self.kind in _FLAP_KINDS:
            doc["period"] = self.period
            doc["flaps"] = self.flaps
        return doc

    def campaign_id(self) -> str:
        """Content-hash id: equal specs collide, different specs never."""
        return sha256_hex(canonical_bytes(self.canonical_document()))

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from its journaled canonical document."""
        return cls.parse(document)

    # -- execution surface ---------------------------------------------

    def builder(self) -> Callable:
        """The module-level (ledger-keyable) episode builder."""
        kind = CAMPAIGNS[self.kind]
        return kind.bind(
            **{name: getattr(self, name) for name, _ in kind.params}
        )

    def unit_kind(self) -> str:
        """The ledger/seed-derivation kind string for this campaign."""
        return CAMPAIGNS[self.kind].unit_kind

    def topology_config(self) -> InternetTopologyConfig:
        return InternetTopologyConfig(
            **{
                attribute: self.topology[field]
                for field, attribute in _TOPOLOGY_FIELDS.items()
            }
        )

    def total_units(self) -> int:
        return self.instances * len(self.protocols)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
