"""Canonical JSON serialization and content-addressed unit keys.

Every experiment unit is a pure function of ``(topology, builder,
kind, seed, instance, protocol)`` — the whole reason campaigns can be
cached, resumed, and retried safely.  This module turns that input
into a stable identity:

* :func:`canonical_json` — a deterministic JSON encoding (sorted keys,
  compact separators, ASCII-only, finite numbers) so the same value
  always serializes to the same bytes, on any machine;
* :func:`describe_builder` — a canonical description of a scenario or
  episode builder (importable name plus any ``functools.partial``
  arguments), because the builder closure itself is not hashable
  content;
* :func:`unit_key` — the SHA-256 of the canonical serialization of the
  unit's *complete* input: graph content hash, builder description,
  kind, master seed, instance, protocol, and a code-version salt.

The salt (:data:`LEDGER_SALT`) names the result schema.  Bump it when
a change makes previously stored results stale (different metrics,
different simulation semantics) — every old key then misses and the
ledger recomputes, which is exactly the safe behavior.

Doctest-pinned canonical form::

    >>> canonical_json({"b": 1, "a": [1.5, True, None, "x"]})
    '{"a":[1.5,true,null,"x"],"b":1}'
    >>> import functools
    >>> from repro.experiments.scenarios import link_flap_episode
    >>> spec = describe_builder(functools.partial(link_flap_episode, flaps=3))
    >>> spec["qualname"], spec["kwargs"]
    ('link_flap_episode', {'flaps': 3})
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import pickle
import weakref
from typing import Any, Callable, Dict

from repro.errors import ConfigurationError
from repro.topology.graph import ASGraph

#: Code-version salt folded into every unit key.  Bump when the result
#: schema or the simulation semantics change in a result-visible way:
#: all previously ledgered results then become unreachable (recomputed
#: on demand) instead of silently wrong.  v2: every unit value became
#: an ``EpisodeRun`` — a v1 record would unpickle into a class that no
#: longer exists.
LEDGER_SALT = "repro-unit-v2"


def _check_canonical(value: Any, path: str) -> Any:
    """Validate that ``value`` has exactly one canonical encoding."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ConfigurationError(
                f"canonical JSON forbids non-finite float at {path}: {value!r}"
            )
        return value
    if isinstance(value, (list, tuple)):
        return [
            _check_canonical(item, f"{path}[{i}]")
            for i, item in enumerate(value)
        ]
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"canonical JSON requires string keys at {path}: {key!r}"
                )
            out[key] = _check_canonical(item, f"{path}.{key}")
        return out
    raise ConfigurationError(
        f"type {type(value).__name__} at {path} has no canonical JSON form"
    )


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to its unique canonical JSON string.

    Allowed types: ``dict`` (string keys), ``list``/``tuple``, ``str``,
    ``int``, finite ``float``, ``bool``, ``None``.  Keys are sorted,
    separators are compact, output is ASCII-only, and floats use
    Python's shortest round-trip ``repr`` — so equal values always
    produce identical bytes.  Anything else (sets, NaN, objects) is
    rejected with :class:`~repro.errors.ConfigurationError` rather than
    encoded ambiguously.
    """
    checked = _check_canonical(value, "$")
    return json.dumps(
        checked,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    )


def canonical_bytes(value: Any) -> bytes:
    """UTF-8 bytes of :func:`canonical_json` (the hashing input)."""
    return canonical_json(value).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 — the hash every key and payload digest uses."""
    return hashlib.sha256(data).hexdigest()


def _graph_hash_preimage(graph: ASGraph) -> bytes:
    """The preimage of :func:`graph_content_hash` — frozen byte for byte.

    A tagged pickle of the sorted link lists plus the full AS set (so
    ASes without links count).  Order-independent by design: a
    generated graph and its ``save_graph`` → ``load_caida`` reload intern
    their ASes in different orders, run identically, and must hit the
    same ledger entries — which is why this is *not* the CSR encoding
    (:meth:`~repro.topology.graph._CSRBase.to_bytes` keeps insertion
    order).  Any change here orphans every existing ledger.
    """
    payload = (
        "repro-asgraph-v1",
        sorted(graph.c2p_links()),
        sorted(graph.p2p_links()),
        list(graph.ases),
    )
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


#: graph -> hash.  Keyed by identity alone, weakly — like the
#: uphill-view cache and the twin-start key — so a daemon hashes its
#: cached topology once, not once per campaign.  Hashing reads the
#: graph, which freezes it before the memo is stored.
_GRAPH_HASHES: "weakref.WeakKeyDictionary[ASGraph, str]" = (
    weakref.WeakKeyDictionary()
)


def graph_content_hash(graph: ASGraph) -> str:
    """Content hash of a topology: equal content, equal hash.

    Two graphs holding the same ASes and links hash equally regardless
    of construction order (see :func:`_graph_hash_preimage`).
    """
    digest = _GRAPH_HASHES.get(graph)
    if digest is None:
        digest = sha256_hex(_graph_hash_preimage(graph))
        _GRAPH_HASHES[graph] = digest
    return digest


def describe_builder(builder: Callable) -> Dict[str, Any]:
    """Canonical description of a scenario/episode builder.

    Plain functions are described by ``(module, qualname)``;
    ``functools.partial`` wrappers additionally record their bound
    positional and keyword arguments (which must themselves be
    canonical-JSON values).  Lambdas and locally defined functions are
    rejected: their qualnames (``<lambda>``, ``...<locals>...``) do not
    identify behavior across runs, so a ledger keyed on them could
    return a stale result for different code.  Ledger-backed campaigns
    therefore need importable, module-level builders.
    """
    if isinstance(builder, functools.partial):
        inner = describe_builder(builder.func)
        return {
            "module": inner["module"],
            "qualname": inner["qualname"],
            "args": _check_canonical(list(builder.args), "$.partial.args"),
            "kwargs": _check_canonical(
                dict(builder.keywords or {}), "$.partial.kwargs"
            ),
        }
    module = getattr(builder, "__module__", None)
    qualname = getattr(builder, "__qualname__", None)
    if not module or not qualname:
        raise ConfigurationError(
            f"builder {builder!r} has no importable identity"
        )
    if "<lambda>" in qualname or "<locals>" in qualname:
        raise ConfigurationError(
            f"builder {module}.{qualname} is not module-level; ledger keys "
            "need an importable builder whose name identifies its behavior"
        )
    return {"module": module, "qualname": qualname, "args": [], "kwargs": {}}


def unit_spec(
    graph_hash: str,
    builder: Callable,
    kind: str,
    seed: int,
    instance: int,
    protocol: str,
    *,
    salt: str = LEDGER_SALT,
) -> Dict[str, Any]:
    """The complete canonical input of one experiment unit."""
    return {
        "salt": salt,
        "graph": graph_hash,
        "builder": describe_builder(builder),
        "kind": kind,
        "seed": seed,
        "instance": instance,
        "protocol": protocol,
    }


def unit_key(
    graph_hash: str,
    builder: Callable,
    kind: str,
    seed: int,
    instance: int,
    protocol: str,
    *,
    salt: str = LEDGER_SALT,
) -> str:
    """SHA-256 unit key: the ledger address of one unit's result.

    Hashes the canonical JSON of :func:`unit_spec` — so the key changes
    exactly when any input that could change the result changes
    (topology content, builder identity or bound arguments, seeds,
    protocol, code-version salt), and never otherwise.
    """
    return sha256_hex(
        canonical_bytes(
            unit_spec(
                graph_hash, builder, kind, seed, instance, protocol, salt=salt
            )
        )
    )
