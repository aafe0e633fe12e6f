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

REPO = Path(__file__).parent.parent
README = REPO / "README.md"
ARCHITECTURE = REPO / "docs" / "architecture.md"
SCENARIOS = REPO / "docs" / "scenarios.md"
ROBUSTNESS = REPO / "docs" / "robustness.md"
SERVICE = REPO / "docs" / "service.md"
PERFORMANCE = REPO / "docs" / "performance.md"
CHANGES = REPO / "CHANGES.md"
SKILL = REPO / ".claude" / "skills" / "verify" / "SKILL.md"
FIDELITY = REPO / "docs" / "fidelity.md"
FIDELITY_SCRIPT = REPO / "benchmarks" / "fidelity.py"


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
    for factory in ("fail_link", "restore_link", "fail_as"):
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
    for token in ("os.fsync(", "os.replace(", "os.O_APPEND"):
        users = {name for name, text in sources.items() if token in text}
        assert users == {owner}, f"{token} is used in {users}"
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


def test_the_execution_settings_have_one_owner():
    """How a campaign runs is said once, enforced: ``ParallelRunner``
    declares and checks every execution setting, ``ExperimentConfig``
    keeps only what a campaign computes, the supervisor reads its
    settings from the runner, and the second outcome type, the method
    that returned it and the second spelling of ``retries`` stay
    deleted, in the code, the guides, the examples and the tooling."""
    import dataclasses
    import inspect

    from repro.experiments.parallel import ParallelRunner
    from repro.experiments.runner import ExperimentConfig
    from repro.experiments.supervisor import Supervisor

    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "seed", "topology", "n_instances", "protocols",
    ]
    settings = [f.name for f in dataclasses.fields(ParallelRunner)]
    assert settings == [
        "workers", "retries", "unit_timeout", "ledger", "budget",
    ]
    parameters = list(inspect.signature(Supervisor).parameters)
    assert len(parameters) <= 7 and "runner" in parameters
    # ``ledger`` stays: the supervisor is handed the *open* ledger.
    assert not set(parameters) & set(settings) - {"ledger"}
    gone = re.compile(r"\b(SupervisedOutcome|run_units_supervised|max_attempts)\b")
    _assert_gone_from_code_and_documents(gone)
    for path in sorted(
        [*(REPO / "examples").glob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    ):
        found = gone.search(path.read_text())
        assert found is None, f"{path.name} still names {found.group()}"


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
    (so ``tests/reference/policy.py``'s ``export_allowed`` is the
    reference for one copy), and the fan-out, certificate and
    live-provider shortcuts that shadowed it stay deleted, in the code
    and in the documents."""
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


def test_a_route_is_keyed_once_and_a_path_linked_once_per_network():
    """One decision key per route and one path-links memo per network,
    enforced: the Adj-RIB-In's sorted cache, the split key, the
    speaker's candidate list and the per-speaker memo stay deleted, in
    the code and in the documents, and the decision order's reference
    lives in the tests, not in the package."""
    gone = re.compile(
        r"\b_sorted\b|\b_full_links_cache\b|\bbase_key\b|\b_candidates\b"
        r"|\b_full_path_links\b"
    )
    _assert_gone_from_code_and_documents(gone)
    for path in sorted((REPO / "src").rglob("*.py")):
        found = re.search(r"\b(route_sort_key|best_route)\b", path.read_text())
        name = path.relative_to(REPO).as_posix()
        assert found is None, f"{name} still names {found.group()}"
    assert not (REPO / "src" / "repro" / "bgp" / "decision.py").exists()


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
    deleted = {"remove_link", "remove_as", "copy", "compact", "version"}
    for path, name in (
        (REPO / "src" / "repro" / "topology" / "graph.py", "ASGraph"),
        (REPO / "tests" / "reference" / "graph.py", "ReferenceASGraph"),
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
        "fail_link", "restore_link", "fail_as", "dispose", "_drain",
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
        "tests/service/test_daemon.py",
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
        "report", "seeded", "problem_since"
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
    assert scans == []


def test_a_twin_start_is_a_fork():
    """A twin start is a fork of the drained network, enforced: the
    pickle snapshot and the six hooks only it needed stay deleted, in
    the code and in the documents; no protocol or simulation module
    defines a pickle hook, and the runner does not import ``pickle``."""
    _assert_gone_from_code_and_documents(re.compile(
        r"\b_StartSnapshot\b"
        r"|\b(BGPSpeaker|RBGPSpeaker|MRAIPacer|_Channel|Transport)"
        r"\.__[gs]etstate__\b"
    ))
    for package in ("bgp", "rbgp", "sim"):
        for path in sorted((REPO / "src" / "repro" / package).glob("*.py")):
            defined = {
                node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.FunctionDef)
            }
            hooks = defined & {"__getstate__", "__setstate__"}
            assert not hooks, f"{path.name} defines {hooks}"
    runner = ast.parse(
        (REPO / "src" / "repro" / "experiments" / "runner.py").read_text()
    )
    imported = {
        alias.name for node in ast.walk(runner)
        if isinstance(node, ast.Import) for alias in node.names
    } | {
        node.module for node in ast.walk(runner)
        if isinstance(node, ast.ImportFrom)
    }
    assert "pickle" not in imported


def test_a_result_holds_each_as_set_once():
    """What a finished result holds and what a speaker builds have one
    owner each, enforced: the process-wide path-links memo (R-BGP's
    per-speaker memo is the one memo, freed with its network) and the
    announcement hook nothing overrode stay deleted, in the code and in
    the documents."""
    _assert_gone_from_code_and_documents(re.compile(
        r"\b_PATH_LINKS_CACHE\w*|\b_make_announcement\b"
    ))


#: Modules of ``src/repro/`` that no other module of it imports, each
#: with the reason it is part of the package.
ENTRY_POINTS = {
    "repro.cli": "the command-line entry point",
}


#: ``http.server`` calls these on the service's request handler.
_HTTP_HOOKS = {"do_GET", "do_POST", "log_message"}
#: Functions and methods no module of the package calls, which the
#: frozen benchmark (``bench/``) or an example does.
_RUN_FROM_OUTSIDE = {
    "best_blue_provider", "events_processed", "example_paper_topology",
    "total_ases",
}


def test_the_package_holds_only_what_it_runs():
    """Code that only tests exercise lives under ``tests/``, enforced:
    every module under ``src/repro/`` is imported by another one (a
    package counts as imported with any module below it; ``from
    repro.x import y`` imports ``repro.x`` and, when it is a module,
    ``repro.x.y``), or is one of the :data:`ENTRY_POINTS`; and every
    function and method is read by the package, or is a dunder, an
    ``http.server`` hook or run from ``bench/`` or ``examples/``."""
    root = REPO / "src"
    modules = {}
    for path in sorted((root / "repro").rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    importers = {module: set() for module in modules}
    for module, path in modules.items():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            for name in names:
                parts = name.split(".")
                for end in range(1, len(parts) + 1):
                    imported = ".".join(parts[:end])
                    if imported in importers and imported != module:
                        importers[imported].add(module)
    unimported = {module for module, found in importers.items() if not found}
    assert unimported == set(ENTRY_POINTS), sorted(unimported)

    # The same for functions and methods: a name defined at module or
    # class level is read somewhere in the package (a name, an
    # attribute, an import or a word of a string, which covers the
    # ``module:function`` targets), or it is exempt below.
    defined, read = set(), set()
    for path in modules.values():
        tree = ast.parse(path.read_text())
        for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef))]:
            defined.update(
                node.name
                for node in scope.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.update(re.findall(r"\w+", node.value))
    unread = {
        name
        for name in defined - read
        if not (name.startswith("__") and name.endswith("__"))
    }
    assert unread == _HTTP_HOOKS | _RUN_FROM_OUTSIDE, sorted(unread)
    outside = "".join(
        path.read_text()
        for path in [*(REPO / "bench").rglob("*.py"), *(REPO / "examples").glob("*.py")]
    )
    for name in _RUN_FROM_OUTSIDE:
        assert re.search(rf"\b{name}\b", outside), f"nothing outside calls {name}"


def test_the_reference_twins_live_in_the_tests():
    """One semantics per layer in the package, enforced: the scalar
    walks, the brute-force analyzers and Φ, the dict-of-dicts graph, the
    path oracle and the graph-side export rule live in
    ``tests/reference/``; no data plane keeps a second forwarding
    definition beside its table's ``_derive``; the package replays a
    trace only inside the analyzer (``replay_onto`` and the copying
    ``replay`` are ``reference.tracing``'s); and the
    pacer knobs, the pacer entry point and the policy helpers only tests
    called stay deleted from ``src/``."""
    from repro.forwarding.bgp_plane import BGPDataPlane
    from repro.forwarding.rbgp_plane import RBGPDataPlane
    from repro.forwarding.stamp_plane import STAMPDataPlane
    from repro.forwarding.walk import WalkClassifier
    from repro.sim.tracing import ForwardingTrace

    for cls in (WalkClassifier, BGPDataPlane, RBGPDataPlane, STAMPDataPlane):
        extra = {"classify", "classify_batch", "_walk_spec"} & set(dir(cls))
        assert not extra, f"{cls.__name__} defines {extra}"
    assert not hasattr(ForwardingTrace, "replay")
    assert not hasattr(ForwardingTrace, "replay_onto")
    tracing = (REPO / "src" / "repro" / "sim" / "tracing.py").read_text()
    assert re.search(r"def replay\b", tracing) is None
    topology = REPO / "src" / "repro" / "topology"
    assert not (topology / "reference.py").exists()
    assert not (topology / "paths.py").exists()
    gone = re.compile(
        r"\b_reference_\w*|\bWalkSpec\b|\bclassify_functional_graph\b"
        r"|\b_walk_spec\b|\bexport_allowed\b|\brequest_send\b"
        r"|\bapplies_to_withdrawals\b|\blearned_relationship\b"
        r"|\bis_withdrawal\b|\bimport_accept\b|\blocal_pref\b"
        r"|\breplay_onto\b"
    )
    for path in sorted((REPO / "src").rglob("*.py")):
        found = gone.search(path.read_text())
        name = path.relative_to(REPO).as_posix()
        assert found is None, f"{name} still names {found.group()}"


def test_the_successor_table_has_one_resolver():
    """One outcome resolver, enforced: ``collect_transitions`` walks
    forward from the dirty states and pushes only changed outcomes
    upstream, and a fresh table resolves through it too.  The
    closure-then-rescan flush (``_rescan`` over the reverse closure of
    the dirty states) stays deleted; the speaker's ``_rescan_best`` is
    another function and does not match."""
    for path in sorted((REPO / "src").rglob("*.py")):
        found = re.search(r"def _rescan\(", path.read_text())
        name = path.relative_to(REPO).as_posix()
        assert found is None, f"{name} still defines _rescan"
    walk = (REPO / "src" / "repro" / "forwarding" / "walk.py").read_text()
    assert re.search(r"\bclosure\b", walk) is None


def test_one_set_of_neighbor_tables_per_graph():
    """One owner of the per-neighbor tables, enforced: the graph derives
    each AS's ``(pref_table, rel_table)`` once
    (``ASGraph.neighbor_tables``), so no speaker or node takes tables
    from its caller, and the relationship-to-preference map is read by
    exactly one function of the package."""
    _assert_gone_from_code_and_documents(re.compile(r"\bshared_tables\b"))
    readers = set()
    for path in sorted((REPO / "src").rglob("*.py")):
        module = path.relative_to(REPO / "src").as_posix()
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef) and any(
                isinstance(node, ast.Name)
                and node.id == "RELATIONSHIP_PREFERENCE"
                for node in ast.walk(function)
            ):
                readers.add(f"{module}:{function.name}")
    assert readers == {"repro/topology/graph.py:neighbor_tables"}


def test_a_network_is_a_graph_a_destination_and_a_seed():
    """The paper's one model, enforced: the network and STAMP config
    objects, the fixed delay, the permissive-blue variant, the
    analyzer's duration floor, the service's retry constant as a
    setting and the generator's five shape fields stay deleted from
    the code and the guides; every speaker has a trace, so no protocol
    module asks whether it does."""
    _assert_gone_from_code_and_documents(re.compile(
        r"\b(NetworkConfig|STAMPConfig|FixedDelay|permissive_blue"
        r"|min_duration|provider_count_weights"
        r"|stub_provider_count_weights|tier3_tier1_uplink_prob"
        r"|tier2_peering_prob|tier3_peering_prob)\b"
        r"|\bconfig\.retry_after\b"
    ))
    from repro.service.app import ServiceConfig
    from repro.topology.generators import InternetTopologyConfig

    assert "retry_after" not in ServiceConfig.__dataclass_fields__
    assert set(InternetTopologyConfig.__dataclass_fields__) == {
        "seed", "n_tier1", "n_tier2", "n_tier3", "n_stub"
    }
    for package in ("bgp", "rbgp", "stamp"):
        for path in sorted((REPO / "src" / "repro" / package).glob("*.py")):
            found = re.search(r"trace is (not )?None", path.read_text())
            assert found is None, f"{path.name} still asks {found.group()!r}"


def test_every_setting_has_a_caller():
    """A value no caller outside the tests sets is a constant: the
    blue-provider strategies and the fifth plane that ran them, the
    body limit and drain timeout of the daemon, and the retry backoff
    as a runner field stay deleted from the code and the guides.  The
    delay bounds and the chart sizes are constants too."""
    import inspect

    from repro.experiments.reporting import ascii_bar_chart, cdf_sparkline
    from repro.sim.delays import UniformDelay

    # ``phi_with_intelligent_selection`` stays: ``_`` is a word character.
    gone = re.compile(
        r"\b(BlueProviderSelector|RandomBlueSelector|IntelligentBlueSelector"
        r"|intelligent_selection|stamp-intelligent|max_body_bytes"
        r"|drain_timeout|backoff_base)\b"
    )
    _assert_gone_from_code_and_documents(gone)
    found = gone.search(SKILL.read_text())
    assert found is None, f"the verify skill still names {found.group()}"
    assert not (REPO / "src" / "repro" / "stamp" / "coloring.py").exists()
    assert not hasattr(UniformDelay, "low")
    assert "width" not in inspect.signature(ascii_bar_chart).parameters
    assert list(inspect.signature(cdf_sparkline).parameters) == ["points"]


def test_the_inference_pipeline_stays_deleted():
    """The package holds what the paper's experiments run: the synthetic
    RouteViews tables, Gao's inference and the example that chained them
    stay deleted, in the code and in the guides, so the CLI is the one
    entry point and a measured graph enters through ``topology/caida.py``
    alone.  The static routing solution they read is a test oracle
    (``tests/reference/static.py``), not a package.  "RouteViews"
    itself and ``caida.py``'s serial-2 "inference-source" field name the
    paper's data and a file format, and are not matched."""
    package = REPO / "src" / "repro"
    assert not (package / "topology" / "inference.py").exists()
    assert not (package / "topology" / "routeviews.py").exists()
    assert not (package / "routing").exists()
    assert not (REPO / "examples" / "inference_pipeline.py").exists()
    assert set(ENTRY_POINTS) == {"repro.cli"}
    _assert_gone_from_code_and_documents(re.compile(
        r"\b(InferenceResult|infer_relationships|RouteViewsTable"
        r"|synthesize_routeviews_tables|dump_tables|parse_tables|all_paths"
        r"|accuracy_against|inference_pipeline|is_stub)\b"
        r"|topology/inference\.py|topology/routeviews\.py|\brepro\.routing\b"
    ))


def test_a_failed_as_stays_failed():
    """The paper never brings a failed AS back, and neither does the
    package: AS restore, the router reboot it drove on every speaker
    class and the two builders only tests ran stay deleted, in the code
    and in the guides, with the per-phase failure set that only a
    restore could fill."""
    from repro.bgp.ribs import AdjRibIn
    from repro.bgp.speaker import BGPSpeaker
    from repro.experiments.scenarios import EventKind
    from repro.sim.timers import MRAIPacer
    from repro.stamp.node import STAMPNode

    _assert_gone_from_code_and_documents(re.compile(
        r"\b(restore_as|as_is_up|reboot|staggered_maintenance_episode"
        r"|correlated_outage_episode|AS_RESTORE|as_restore"
        r"|failed_ases_at_start|failed_ases_before)\b"
    ))
    assert [kind.name for kind in EventKind] == [
        "LINK_FAIL", "LINK_RESTORE", "AS_FAIL",
    ]
    for cls, name in (
        (BGPSpeaker, "reboot"), (STAMPNode, "reboot"),
        (STAMPNode, "is_origin"), (MRAIPacer, "reset"), (AdjRibIn, "clear"),
    ):
        assert not hasattr(cls, name), f"{cls.__name__}.{name} is back"


def _unused_imports(path):
    """``(line, name)`` of every name ``path`` imports and never reads.

    A name is read if it appears as an ``ast.Name`` anywhere, or inside
    a string annotation (``"BGPSpeaker"``, ``Optional["Route"]``).  An
    import whose line carries ``# noqa: F401`` is kept on purpose.
    """
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                name = (alias.asname or alias.name).split(".")[0]
                imported.setdefault(name, alias.lineno)
    read = set()

    def read_in(expression):
        for node in ast.walk(expression):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    read_in(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass

    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            read_in(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns:
            read_in(node.returns)
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def test_no_module_imports_what_it_never_reads():
    """An unused-import wall for ``src/`` and ``tests/`` (no linter is
    installed, so this is the one check)."""
    unused = {
        path.relative_to(REPO).as_posix(): found
        for root in ("src", "tests")
        for path in sorted((REPO / root).rglob("*.py"))
        if (found := _unused_imports(path))
    }
    assert unused == {}


def test_changes_entries_keep_their_budget():
    """Every CHANGES.md entry is one paragraph in one format, ``- PR n
    [archetype] Title: …``, of at most 1,000 characters not counting
    its links, and ends in a link; the file stays under 40 KB."""
    lines = [line for line in CHANGES.read_text().splitlines() if line.strip()]
    assert lines, "CHANGES.md has no entry"
    entry = re.compile(r"- PR \d+ \[[a-z_]+\] [^:]+: .+\]\([^)\s]+\)")
    numbers = []
    for line in lines:
        assert entry.fullmatch(line), f"{line[:40]!r} is not one entry"
        numbers.append(int(line.split()[2]))
        prose = re.sub(r"\[[^\]]*\]\([^)]*\)", "", line)
        assert len(prose) <= 1000, f"{line[:12]} has {len(prose)} characters"
    assert numbers == sorted(set(numbers)), "entries out of order"
    assert CHANGES.stat().st_size < 40_000


def _anchors(path):
    """The anchors of a Markdown file's headings, as GitHub derives
    them: lower case, punctuation other than ``-`` and ``_`` dropped,
    each space a hyphen."""
    return {
        re.sub(r"[^\w\- ]", "", heading.strip().lower()).replace(" ", "-")
        for heading in re.findall(r"^#+ (.*)$", path.read_text(), re.M)
    }


def test_every_changes_link_resolves():
    """A CHANGES.md link names a file of the repository, and an anchor
    in it names one of that file's headings: an entry with its own
    measurement log links the log, the others their entry as written in
    ``docs/measurements/history.md``."""
    links = re.findall(r"\]\(([^)\s]+)\)", CHANGES.read_text())
    assert links
    for link in links:
        target, _, anchor = link.partition("#")
        path = REPO / target
        assert path.is_file(), f"CHANGES.md links {target}, which is missing"
        if anchor:
            assert anchor in _anchors(path), f"{link} names no heading"


def test_records_keep_their_line_budgets():
    """The guides a builder reads before every change hold what is true
    now; their history lives in ``docs/measurements/history.md``."""
    assert len(PERFORMANCE.read_text().splitlines()) <= 300
    assert len(SKILL.read_text().splitlines()) <= 250


def test_the_skill_names_only_what_exists():
    """The verify skill's ``Commands:`` list is the CLI's commands, and
    every repository path the skill names exists."""
    from repro.cli import _COMMANDS

    text = SKILL.read_text()
    listed = re.search(r"Commands:\s*`([^`]*)`", text)
    assert listed, "the skill lists no commands"
    assert listed.group(1).split() == list(_COMMANDS)
    paths = re.findall(
        r"(?<![\w/.<>-])((?:src|tests|bench|benchmarks|examples|docs)/[\w./-]*)",
        text,
    )
    assert paths
    for path in paths:
        path = path.rstrip(".,;:")
        assert (REPO / path).exists(), f"the skill names {path}, which is missing"


def test_each_retained_row_names_live_code():
    """The first cell of every row of ``docs/performance.md``'s
    retained-elision table opens with the dotted path of the code it
    measures, and that path imports: the row of a deleted mechanism
    cannot stay in the current-state guide."""
    import pkgutil

    lines = PERFORMANCE.read_text().splitlines()
    table = lines.index("## What each retained elision buys")
    rows = []
    for line in lines[table:]:
        if line.startswith("|"):
            rows.append(line)
        elif rows:
            break
    assert len(rows) > 10, "the retained-elision table lost its rows"
    for row in rows[2:]:
        found = re.match(r"\| `(repro(?:\.\w+)+)`", row)
        assert found, f"{row[:60]!r} names no code"
        pkgutil.resolve_name(found.group(1))


def test_the_fidelity_doc_is_the_claims_table():
    """``docs/fidelity.md`` has one row per row of the claims table in
    ``benchmarks/fidelity.py``, in its order, with the table's id, paper
    value and bound, and each departure it links is a heading of the
    architecture guide."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("fidelity", FIDELITY_SCRIPT)
    fidelity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fidelity)
    text = FIDELITY.read_text()
    cells = [
        [cell.strip() for cell in line.strip("|").split(" | ")]
        for line in text.splitlines()
        if line.startswith("| `")
    ]
    assert [(row[0], row[3], row[5]) for row in cells] == [
        (f"`{claim.id}`", claim.paper, f"`{claim.bound}`")
        for claim in fidelity.CLAIMS
    ]
    links = re.findall(r"\(architecture\.md#([^)]+)\)", text)
    assert links == [anchor for _, anchor in fidelity._departures()]
    assert len(links) >= 6 and set(links) <= _anchors(ARCHITECTURE)


def test_the_one_shot_figure_benches_stay_deleted():
    """The paper's claims are one table: the per-figure bench files,
    their conftest's scale knob and its printer stay deleted from the
    code, the guides, the examples and the tooling."""
    gone = re.compile(
        r"\b(bench_topology|print_failure_figure|REPRO_BENCH_SCALE)\b"
        r"|bench_fig|bench_sec6|bench_ablation"
    )
    _assert_gone_from_code_and_documents(gone)
    for path in sorted(
        [*(REPO / "examples").glob("*.py"), *(REPO / "benchmarks").glob("*.py")]
    ):
        found = gone.search(path.read_text())
        assert found is None, f"{path.name} still names {found.group()}"


def test_the_fidelity_script_imports_only_repro_and_the_standard_library():
    """The claims table runs wherever ``src/`` runs: no test dependency."""
    import sys

    tree = ast.parse(FIDELITY_SCRIPT.read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert imported - set(sys.stdlib_module_names) == {"repro"}


def test_the_fault_hook_lives_in_the_tests():
    """The package runs, the tests break it: the fault hook and its
    environment variable stay out of ``src/``, and the two smokes that
    repeated tier-1 tests stay deleted from the tooling, CI and the
    guides (``docs/measurements/`` logs may name what they measured)."""
    hook = re.compile(
        r"repro\.experiments\.faults|\bmaybe_inject\b|\bmark_worker_process\b"
        r"|REPRO_FAULTS"
    )
    for path in sorted((REPO / "src").rglob("*.py")):
        found = hook.search(path.read_text())
        assert found is None, f"{path.name} still names {found.group()}"
    smokes = re.compile(r"check_ledger_resume|check_service_smoke|REPRO_SMOKE_WORKERS")
    for path in sorted(
        [
            *(REPO / "benchmarks").glob("*.py"),
            *(REPO / ".github" / "workflows").glob("*.yml"),
            *(REPO / "docs").glob("*.md"),
        ]
    ):
        found = smokes.search(path.read_text())
        name = path.relative_to(REPO).as_posix()
        assert found is None, f"{name} still names {found.group()}"
