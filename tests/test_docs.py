"""Documentation must not rot: README references and doctests.

CI runs this as part of the docs job.  It fails when `README.md`
points at a file that no longer exists, when the commands it documents
drift from the CLI, or when a code block in `docs/architecture.md`
stops executing.
"""

from __future__ import annotations

import ast
import doctest
import io
import re
import tokenize
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent
README = REPO / "README.md"
ARCHITECTURE = REPO / "docs" / "architecture.md"
SCENARIOS = REPO / "docs" / "scenarios.md"
ROBUSTNESS = REPO / "docs" / "robustness.md"
SERVICE = REPO / "docs" / "service.md"
PERFORMANCE = REPO / "docs" / "performance.md"


def test_readme_exists():
    assert README.is_file(), "README.md is missing"


def test_architecture_doc_exists():
    assert ARCHITECTURE.is_file(), "docs/architecture.md is missing"


def test_scenarios_doc_exists():
    assert SCENARIOS.is_file(), "docs/scenarios.md is missing"


def test_readme_referenced_files_exist():
    """Every relative markdown link and inline `path` must resolve."""
    text = README.read_text()
    targets = set(re.findall(r"\]\((?!https?:)([^)#][^)]*)\)", text))
    # Inline code spans that look like repo paths are checked too; a
    # bare filename (no slash) may just be a link's display text, so
    # only slash-containing spans count.
    targets |= {
        span
        for span in re.findall(r"`([A-Za-z0-9_./-]+\.(?:py|md|json))`", text)
        if "/" in span and not span.startswith("-")
    }
    missing = sorted(
        t for t in targets if not (REPO / t).exists()
    )
    assert not missing, f"README references missing files: {missing}"


def test_readme_mentions_tier1_verify_and_workers():
    text = README.read_text()
    assert "PYTHONPATH=src python -m pytest -x -q" in text
    assert "--workers" in text
    assert "compare_perf.py" in text


def test_architecture_covers_every_package():
    text = ARCHITECTURE.read_text()
    for package in (
        "topology", "bgp", "rbgp", "stamp", "forwarding",
        "sim", "analysis", "experiments",
    ):
        assert f"`repro.{package}`" in text, f"no section for repro.{package}"
    assert "determinism contract" in text.lower()


def test_architecture_doctests_pass():
    """The same check `python -m doctest docs/architecture.md` runs."""
    results = doctest.testfile(
        str(ARCHITECTURE), module_relative=False, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, "architecture.md lost its doctests"


def test_scenarios_covers_the_event_model():
    """The guide must document every event kind and the timing rules."""
    text = SCENARIOS.read_text()
    for factory in ("fail_link", "restore_link", "fail_as", "restore_as"):
        assert f"`{factory}(" in text, f"no event-model entry for {factory}"
    for section in (
        "Determinism and timing rules",
        "The paper's figures as episodes",
        "Campaigns",
    ):
        assert section in text, f"scenario guide lost its {section!r} section"
    # Each paper workload must be mapped onto the episode model.
    for builder in (
        "single_provider_link_failure",
        "two_link_failures_distinct_as",
        "two_link_failures_same_as",
        "provider_node_failure",
        "link_recovery",
    ):
        assert builder in text, f"figure mapping lost {builder}"


def test_readme_documents_real_topologies():
    text = README.read_text()
    assert "## Real topologies" in text
    assert "--topology-file" in text
    # The documented invocation must keep global options before the
    # subcommand — argparse rejects the reverse order.
    assert "--topology-file as_graph.txt" in text
    assert "tests/topology/data/caida_small.txt" in text


def test_architecture_covers_the_topology_core():
    """The topology section must document the CSR storage, the freeze
    contract, the shared-memory fan-out, and the CAIDA loader."""
    text = ARCHITECTURE.read_text()
    for topic in (
        "CSR",
        "freeze contract",
        "test_graph_freeze.py",
        "shared_memory",
        "`caida.py`",
        "memoryview",
        "test_csr_equivalence.py",
    ):
        assert topic in text, f"architecture guide lost its {topic!r} coverage"


def test_robustness_doc_exists():
    assert ROBUSTNESS.is_file(), "docs/robustness.md is missing"


def test_robustness_covers_the_contract():
    """The robustness guide must document the whole failure surface."""
    text = ROBUSTNESS.read_text()
    for cause in ("`exception`", "`timeout`", "`worker-death`"):
        assert cause in text, f"no failure-model entry for {cause}"
    for topic in (
        "last write wins",
        "LEDGER_SALT",
        "`--ledger",
        "`--retries",
        "`--unit-timeout",
        "REPRO_FAULTS",
        "canonical_json",
    ):
        assert topic in text, f"robustness guide lost its {topic!r} coverage"


def test_file_discipline_has_one_owner():
    """Fix it in one place, enforced: only ``appendlog.py`` opens a log
    for append, fsyncs, or replaces a file — the ledger and the journal
    are schemas over it and touch no file descriptor themselves."""
    package = REPO / "src" / "repro"
    sources = {
        path.relative_to(package).as_posix(): path.read_text()
        for path in package.rglob("*.py")
    }
    owner = "experiments/appendlog.py"
    allowed = {
        "os.fsync(": {owner},
        "os.replace(": {owner},
        # faults.py: the cross-process firing counter, not a log.
        "os.O_APPEND": {owner, "experiments/faults.py"},
    }
    for token, owners in allowed.items():
        users = {name for name, text in sources.items() if token in text}
        assert owner in users, f"{owner} no longer uses {token}"
        assert users <= owners, f"{token} outside its owner: {users - owners}"
    for schema in ("experiments/ledger.py", "service/journal.py"):
        for token in ("os.write(", "os.open(", "os.fsync(", "os.replace("):
            assert token not in sources[schema], f"{schema} uses {token}"


def test_there_is_one_workload_model():
    """One model, enforced: the single-instant stack (its model, runner,
    run type, embedding and campaign data class) stays deleted, in the
    code and in the documents, and nothing under ``src/`` dispatches on
    whether a workload is an ``Episode`` — every workload is one."""
    gone = re.compile(
        r"\b(Scenario|run_scenario|ProtocolRun|episode_from_scenario"
        r"|EpisodeCampaignData)\b"
    )
    dispatch = re.compile(r"isinstance\([^()]*\bEpisode\b")
    sources = sorted((REPO / "src" / "repro").rglob("*.py"))
    documents = [README, *sorted((REPO / "docs").glob("*.md"))]
    assert sources and len(documents) > 1
    for path in sources + documents:
        text = path.read_text()
        name = path.relative_to(REPO).as_posix()
        found = gone.search(text)
        assert found is None, f"{name} still names {found.group()}"
        if path in sources:
            assert not dispatch.search(text), f"{name} branches on Episode"


def test_every_campaign_decision_has_one_owner():
    """One campaign path, enforced.  The unit-kind strings (they feed
    both ``unit_key`` and ``derive_run_seed``: a second spelling
    silently splits the ledger between front ends) and the default
    tier sizes are each written in one source file; the second result
    type, the second retry declaration, the second scheduling loop and
    the unset spellings stay deleted, in the code and in the
    documents."""
    sources = {
        path.relative_to(REPO).as_posix(): path.read_text()
        for path in (REPO / "src" / "repro").rglob("*.py")
    }
    catalogue = "src/repro/experiments/scenarios.py"
    generator = "src/repro/topology/generators.py"
    owners = {
        "fig2-single-link": catalogue,
        "fig3a-distinct-as": catalogue,
        "fig3b-same-as": catalogue,
        '"node-failure"': catalogue,  # bare, it is also English
        "link-flap": catalogue,
        r"\b48\b": generator,
        r"\b120\b": generator,
        r"\b440\b": generator,
    }
    for pattern, owner in owners.items():
        users = [
            name for name, text in sources.items() if re.search(pattern, text)
        ]
        assert users == [owner], f"{pattern} is written in {users}"
    # Whole words: ``UnknownCampaignError`` (the service's 404) is
    # another, live class.
    gone = re.compile(
        r"\b(CampaignOutcome|CampaignError|RetryPolicy|degrade_final"
        r"|backoff_factor|retry_backoff|_run_inprocess|request_stop)\b"
        r"|\brun_units\("
    )
    documents = {
        path.relative_to(REPO).as_posix(): path.read_text()
        for path in [README, *sorted((REPO / "docs").glob("*.md"))]
    }
    for name, text in {**sources, **documents}.items():
        found = gone.search(text)
        assert found is None, f"{name} still names {found.group()}"


def _enclosing_functions(path, wanted):
    """Names of the functions of ``path`` holding a node ``wanted``."""
    owners = []
    for function in ast.walk(ast.parse(path.read_text())):
        if isinstance(function, ast.FunctionDef) and any(
            wanted(node) for node in ast.walk(function)
        ):
            owners.append(function.name)
    return owners


def _assert_gone_from_code_and_documents(gone):
    """No file under ``src/``, nor the README, nor a guide directly
    under ``docs/`` matches ``gone`` (per-PR logs in subdirectories of
    ``docs/`` may name what they measured)."""
    for path in [
        *sorted((REPO / "src").rglob("*.py")),
        README,
        *sorted((REPO / "docs").glob("*.md")),
    ]:
        found = gone.search(path.read_text())
        name = path.relative_to(REPO).as_posix()
        assert found is None, f"{name} still names {found.group()}"


def test_the_export_decision_has_one_owner():
    """One export path, enforced: ``export_for`` is the only function
    of the speaker that calls the gate or applies the valley-free rule
    (so ``policy.export_allowed`` is the reference for one copy), and
    the fan-out, certificate and live-provider shortcuts that shadowed
    it stay deleted, in the code and in the documents."""
    speaker = REPO / "src" / "repro" / "bgp" / "speaker.py"

    def calls_the_gate(node):
        return (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "export_gate"
        )

    def compares_with_customer(node):
        return (
            isinstance(node, ast.Attribute) and node.attr == "CUSTOMER"
        ) or (isinstance(node, ast.Name) and node.id == "_CUSTOMER")

    gate_callers = [
        name
        for path in sorted(speaker.parent.glob("*.py"))
        for name in _enclosing_functions(path, calls_the_gate)
    ]
    assert gate_callers == ["export_for"]
    rule_owners = _enclosing_functions(speaker, compares_with_customer)
    assert rule_owners == ["export_for"]
    gone = re.compile(
        r"_gate_sig_enabled|_sig_red|_sig_blue|is_settled|_fanout_cache"
        r"|gate_refresh_delegated|_live_providers_cache"
    )
    _assert_gone_from_code_and_documents(gone)


def test_the_event_queue_and_the_failover_scan_have_one_owner():
    """One event heap, one failover scan, enforced: the engine's far
    tier (buckets, horizon, promotion, compaction) and R-BGP's
    incremental copy of the failover argmin stay deleted, in the code
    and in the documents.  The per-PR measurement logs under
    ``docs/measurements/`` name what they measured and are exempt."""
    gone = re.compile(
        r"_wheel|_far_count|_horizon|_promote|BUCKET_WIDTH"
        r"|COMPACT_MIN_CANCELLED|_current_failover|_rescan_failover"
        r"|_failover_valid|_failover_best_token|[Tt]imer wheel"
    )
    _assert_gone_from_code_and_documents(gone)
    engine = (REPO / "src" / "repro" / "sim" / "engine.py").read_text()
    assert engine.count("heapq.heappush(") == 2  # schedule, post_at
    speaker = REPO / "src" / "repro" / "rbgp" / "speaker.py"
    scans = _enclosing_functions(
        speaker,
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "_failover_key_for",
    )
    assert scans == ["compute_failover_route"]


def test_a_topology_is_built_then_frozen():
    """Build-then-freeze, enforced: the graph's delta overlay, its
    mutation API, the ``version`` counter and every cache check of it,
    and the second reader of the CAIDA text format stay deleted, in the
    code and in the documents."""
    gone = re.compile(
        r"\b_overlay\w*|\b_materialize\b|\b_invalidate\b"
        r"|\b_tables_version\b|\b_refresh_tables\b|\bload_graph\b"
        r"|\bgraph\.(version|compact|copy|remove_link|remove_as)\b"
    )
    _assert_gone_from_code_and_documents(gone)
    topology = REPO / "src" / "repro" / "topology"
    deleted = {"remove_link", "remove_as", "copy", "compact", "version"}
    for path, name in (
        (topology / "graph.py", "ASGraph"),
        (topology / "reference.py", "ReferenceASGraph"),
    ):
        (cls,) = [
            node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name == name
        ]
        defined = {
            node.name for node in cls.body if isinstance(node, ast.FunctionDef)
        }
        assert not defined & deleted, f"{name} defines {defined & deleted}"


def test_a_package_is_its_docstring():
    """No package re-exports: every ``__init__.py`` under ``src/repro/``
    is one docstring and nothing else, and the loader, the name tables
    and the version string that lived there stay deleted — as do the
    knob no caller set and the names nothing read."""
    inits = sorted((REPO / "src" / "repro").rglob("__init__.py"))
    assert inits
    for path in inits:
        body = ast.parse(path.read_text()).body
        name = path.relative_to(REPO).as_posix()
        assert len(body) == 1 and isinstance(body[0], ast.Expr), name
        assert isinstance(body[0].value, ast.Constant), name
        assert isinstance(body[0].value.value, str), name
    _assert_gone_from_code_and_documents(re.compile(
        r"\b_lazy_exports\b|\b__version__\b|\bProtocolError\b"
        r"|\bnetwork_config\b|\.disabled\b|\bdef disabled\b"
    ))


def test_a_network_has_one_lifecycle():
    """One network lifecycle, enforced: a STAMP network is a BGP
    network, the event injectors, the drain and ``dispose`` are
    ``BGPNetwork``'s own functions on every plane, and the second name
    for the per-AS object, the knobs no caller set and the helpers only
    their own tests called stay deleted."""
    from repro.bgp.network import BGPNetwork
    from repro.rbgp.network import RBGPNetwork
    from repro.stamp.network import STAMPNetwork

    assert issubclass(STAMPNetwork, BGPNetwork)
    shared = (
        "fail_link", "restore_link", "fail_as", "restore_as", "dispose",
        "_drain",
    )
    for cls in (STAMPNetwork, RBGPNetwork):
        for name in shared:
            assert getattr(cls, name) is vars(BGPNetwork)[name], (cls, name)
    # What the tracing gate (bench/tracing.py) looks up in
    # vars(STAMPNetwork) is all of the lifecycle STAMPNetwork binds: the
    # inherited start under its own name, and the drain that clears the
    # instability flags.
    lifecycle = {"start", "run_to_convergence", *shared}
    assert lifecycle & set(vars(STAMPNetwork)) == {"start", "run_to_convergence"}
    assert vars(STAMPNetwork)["start"] is vars(BGPNetwork)["start"]
    stamp = (REPO / "src" / "repro" / "stamp" / "network.py").read_text()
    for built in ("Engine(", "Transport(", "ForwardingTrace("):
        assert built not in stamp, built
    _assert_gone_from_code_and_documents(re.compile(
        r"\bnetwork\.nodes\b|\bself\.nodes\b|\bmax_events_per_phase\b"
        r"|\brecolor_delay\b|\btrace_key\b|\bconverged_next_hops\b"
        r"|\bhas_both_colors\b|\bdistinct_times\b|\breplay_with_changes\b"
        r"|\b_notify_session_up\b|\b_build_speakers\b"
    ))


def _top_level_names(tree):
    """Every name a module defines or assigns at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names.update(
                leaf.id for target in targets for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            )
    return names


def test_modules_import_from_the_defining_submodule():
    """One import path per name, enforced: every ``from repro.<m>
    import <n>`` in ``src/``, ``tests/``, ``examples/`` and
    ``benchmarks/`` names either a submodule of ``<m>`` or a name
    ``<m>`` itself defines — never one ``<m>`` merely imported.  A
    package defines nothing (``test_a_package_is_its_docstring``), so
    this also keeps every import off the package ``__init__``s.
    (``bench/`` is the frozen gate's and is not checked.)"""
    root = REPO / "src"

    def source(dotted):
        base = root.joinpath(*dotted.split("."))
        for path in (base / "__init__.py", base.with_suffix(".py")):
            if path.is_file():
                return path
        return None

    defined = {}
    paths = [
        path
        for directory in ("src", "tests", "examples", "benchmarks")
        for path in sorted((REPO / directory).rglob("*.py"))
    ]
    assert paths
    for path in paths:
        name = path.relative_to(REPO).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"
            ):
                continue
            origin = source(node.module)
            assert origin is not None, f"{name}: no module {node.module}"
            if origin not in defined:
                defined[origin] = _top_level_names(ast.parse(origin.read_text()))
            elsewhere = [
                alias.name for alias in node.names
                if alias.name not in defined[origin]
                and source(f"{node.module}.{alias.name}") is None
            ]
            assert not elsewhere, (
                f"{name}:{node.lineno} imports {elsewhere} from "
                f"{node.module}, which does not define them"
            )


def test_every_cited_document_exists():
    """A Markdown file cited in a comment or a docstring under ``src/``,
    ``tests/`` or ``benchmarks/`` is a file of this repository (at the
    root or under ``docs/``)."""
    cited = re.compile(r"[\w./-]*\w\.md\b")
    for root in ("src", "tests", "benchmarks"):
        for path in sorted((REPO / root).rglob("*.py")):
            text = path.read_text()
            prose = [
                token.string
                for token in tokenize.generate_tokens(io.StringIO(text).readline)
                if token.type == tokenize.COMMENT
            ]
            prose += [
                ast.get_docstring(node, clean=False) or ""
                for node in ast.walk(ast.parse(text))
                if isinstance(
                    node, (ast.Module, ast.ClassDef, ast.FunctionDef)
                )
            ]
            for name in cited.findall("\n".join(prose)):
                name = name.lstrip("./")
                assert (REPO / name).is_file() or (
                    REPO / "docs" / name
                ).is_file(), f"{path.relative_to(REPO)} cites {name}"


def test_readme_documents_resumable_campaigns():
    text = README.read_text()
    assert "## Resumable campaigns" in text
    assert "--ledger" in text
    assert "docs/robustness.md" in text


def test_service_doc_exists():
    assert SERVICE.is_file(), "docs/service.md is missing"


def test_service_doc_covers_the_contract():
    """The service guide must document every robustness layer."""
    text = SERVICE.read_text()
    for route in (
        "POST /campaigns",
        "GET /campaigns/{id}",
        "GET /campaigns/{id}/result",
        "POST /campaigns/{id}/cancel",
        "GET /healthz",
        "GET /readyz",
    ):
        assert route in text, f"service guide lost its {route!r} route"
    for topic in (
        "Crash recovery",
        "Idempotent submission",
        "Admission control",
        "Graceful shutdown",
        "journal",
        "Retry-After",
        "ledger stats",
        "ledger compact",
        "ledger merge",
        "check_service_smoke.py",
    ):
        assert topic in text, f"service guide lost its {topic!r} coverage"


def test_service_doc_covers_the_concurrency_model():
    """The guide must document lanes, the shared budget, and rotation."""
    text = SERVICE.read_text()
    for topic in (
        "## Concurrency: lanes and the shared worker budget",
        "`--max-concurrent`",
        "FIFO fairness",
        "Lane isolation",
        "One shared budget",
        "min(requested, available)",
        "## Journal rotation",
        "`--journal-max-bytes",
        "journal compact",
        "journal stats",
        "snapshot + tail",
        "`--auth-token",
        "REPRO_SERVICE_TOKEN",
        "Authorization: Bearer",
    ):
        assert topic in text, f"service guide lost its {topic!r} coverage"


def test_readme_documents_the_campaign_service():
    text = README.read_text()
    assert "## Campaign service" in text
    assert "serve" in text
    assert "docs/service.md" in text
    assert "--max-concurrent" in text
    assert "--journal-max-bytes" in text


def test_architecture_covers_the_service():
    text = ARCHITECTURE.read_text()
    assert "`repro.service`" in text, "no section for repro.service"
    assert "docs/service.md" in text


def test_performance_covers_boundary_patching():
    """The perf guide must document the boundary-patch machinery."""
    text = PERFORMANCE.read_text()
    for topic in (
        "transient_analysis_stamp_episode_long",
        "Boundary-patch cost model",
        "On-demand interning",
        "R-BGP pin folding",
        "apply_boundary",
        "_boundary_rows",
        "test_episode_boundary_patch.py",
        "test_storm_golden.py",
    ):
        assert topic in text, f"performance guide lost its {topic!r} coverage"


def test_scenarios_covers_long_horizon_storms():
    """The scenario guide must keep the runnable 256-flap storm."""
    text = SCENARIOS.read_text()
    assert "## Long-horizon storms" in text
    assert "flaps=256" in text
    assert "transient_analysis_stamp_episode_long" in text
    assert "test_episode_boundary_patch.py" in text


def test_scenarios_doctests_pass():
    """The same check `python -m doctest docs/scenarios.md` runs."""
    results = doctest.testfile(
        str(SCENARIOS), module_relative=False, verbose=False
    )
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, "scenarios.md lost its doctests"


def test_a_boundary_costs_what_it_changed():
    """One successor table per episode, trackers that hold only the
    problems, exact R-BGP boundary rows and failures that find their
    channels by key, enforced: the failure-free second table, the
    tracker's per-source outcome map, R-BGP's every-row rule and the
    transport's scan of every channel stay deleted."""
    from repro.analysis.transient import _IncrementalScan, _PhaseTracker
    from repro.forwarding.rbgp_plane import RBGPDataPlane

    second_table = re.compile(r"second, failure-free table|\bshadow\b")
    for path in (
        REPO / "src" / "repro" / "analysis" / "transient.py",
        PERFORMANCE,
    ):
        found = second_table.search(path.read_text())
        assert found is None, f"{path.name} still describes {found.group()!r}"
    assert set(_PhaseTracker.__slots__) == {
        "report", "min_duration", "seeded", "problem_since"
    }
    scan = ast.parse(
        (REPO / "src" / "repro" / "analysis" / "transient.py").read_text()
    )
    attributes = {
        node.attr for node in ast.walk(scan) if isinstance(node, ast.Attribute)
    }
    assert "moved" not in attributes and hasattr(_IncrementalScan, "hold")

    plane = RBGPDataPlane(1, rci=True)
    state = {
        (2, "primary"): (1,),
        (3, "primary"): (2, 1),
        (4, "primary"): None,
        (4, "failover"): ((3, (3, 2, 1)),),
    }
    table = plane._session_table(state, frozenset(), frozenset())
    # An empty delta re-derives the diverting rows, not every row.
    assert set(table._boundary_rows(set(), set())) == table.diverting == {
        table.pos[4]
    }

    transport = REPO / "src" / "repro" / "sim" / "transport.py"
    assert not any(
        isinstance(node, ast.Lambda)
        for node in ast.walk(ast.parse(transport.read_text()))
    )
    scans = _enclosing_functions(
        transport,
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "items"
        and getattr(node.func.value, "attr", None) == "_channels",
    )
    assert scans == ["__getstate__"]
