"""The one entry for a measured graph, end to end.

A measured AS graph enters the package through ``--topology-file``
(``topology/caida.py``).  A generated graph written with ``topology
--out`` and read back must run the same campaign as the graph held in
memory: same content hash, same output from every command that reads
the flag, whether the file is serial-1 (as written) or serial-2 (a
fourth, ignored source field on every line, under CAIDA's ``#`` header).
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments.canonical import graph_content_hash
from repro.experiments.scenarios import CAMPAIGNS
from repro.topology.caida import load_caida
from repro.topology.generators import (
    InternetTopologyConfig,
    generate_internet_topology,
)

#: A 74-AS graph on which BGP's Figure 2 bar is not zero at 2 instances,
#: so a misread relationship shows in the chart, not only in the hash.
CONFIG = InternetTopologyConfig(
    seed=0, n_tier1=4, n_tier2=10, n_tier3=20, n_stub=40
)
#: The generator's seed is the campaign's too, so it goes with both.
SEED = ["--seed", str(CONFIG.seed)]
SIZES = [
    "--tier1", str(CONFIG.n_tier1), "--tier2", str(CONFIG.n_tier2),
    "--tier3", str(CONFIG.n_tier3), "--stubs", str(CONFIG.n_stub),
]
INSTANCES = ["--instances", "2"]
#: Every command that reads ``--topology-file``.
COMMANDS = [
    "fig1", *CAMPAIGNS, "intelligent", "deployment", "overhead", "delay",
]
SERIALS = ["serial-1", "serial-2"]
#: What a CAIDA serial-2 download opens with.
HEADER = ["# source:topology|BGP|20240101|repro", "# format:a|b|rel|src"]
WARNING = (
    "warning: topology violates structural assumptions; "
    "results may not match the paper's idealized model\n"
)


def _run(argv, capsys):
    assert main(argv) == 0, argv
    return capsys.readouterr()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The generated graph as ``topology --out`` writes it, and as a
    serial-2 file with the same links."""
    root = tmp_path_factory.mktemp("as-rel")
    serial1 = root / "as-rel.txt"
    assert main(SEED + SIZES + ["topology", "--out", str(serial1)]) == 0
    lines = serial1.read_text().splitlines()
    assert lines and all(line.count("|") == 2 for line in lines)
    serial2 = root / "as-rel.serial-2.txt"
    serial2.write_text(
        "".join(f"{line}\n" for line in HEADER)
        + "".join(f"{line}|bgp\n" for line in lines)
    )
    return {"serial-1": serial1, "serial-2": serial2}


@pytest.fixture(scope="module")
def in_memory_output():
    """Each command's stdout on the in-memory generated graph, run once."""
    return {}


def _expected(command, in_memory_output, capsys):
    if command not in in_memory_output:
        out = _run(SEED + SIZES + INSTANCES + [command], capsys).out
        in_memory_output[command] = out
    return in_memory_output[command]


@pytest.mark.parametrize("serial", SERIALS)
def test_a_topology_file_holds_the_generated_graph(serial, files):
    in_memory, _ = generate_internet_topology(CONFIG)
    report = load_caida(files[serial], validate=True)
    assert graph_content_hash(report.graph) == graph_content_hash(in_memory)
    assert report.p2c_links == len(in_memory.c2p_links())
    assert report.p2p_links == len(in_memory.p2p_links())
    assert report.skipped_lines == (len(HEADER) if serial == "serial-2" else 0)
    assert report.validation is not None and report.validation.ok


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("serial", SERIALS)
def test_a_topology_file_runs_the_campaign_of_the_graph_it_holds(
    serial, command, files, in_memory_output, capsys
):
    expected = _expected(command, in_memory_output, capsys)
    path = files[serial]
    # No size flag: the file alone says what the graph is.
    captured = _run(SEED + INSTANCES + ["--topology-file", str(path), command],
                    capsys)
    assert captured.out == expected
    report = load_caida(path, validate=True)
    assert captured.err == f"loaded {path}: {report.summary()}\n"


def test_a_misread_relationship_shows_in_the_chart(
    files, in_memory_output, capsys, tmp_path
):
    """The comparison above can fail: the same file with every ``-1``
    line read the wrong way round (customer as provider) charts a
    different Figure 2, and BGP's bar on the true graph is not zero."""
    expected = _expected("fig2", in_memory_output, capsys)
    bgp = next(line for line in expected.splitlines() if line.startswith("BGP "))
    assert not bgp.endswith(" 0.0 ASes"), expected

    reversed_file = tmp_path / "as-rel.reversed.txt"
    lines = []
    for line in files["serial-1"].read_text().splitlines():
        a, b, rel = line.split("|")
        lines.append(f"{b}|{a}|{rel}" if rel == "-1" else line)
    reversed_file.write_text("".join(f"{line}\n" for line in lines))
    argv = SEED + INSTANCES + ["--topology-file", str(reversed_file), "fig2"]
    captured = _run(argv, capsys)
    assert captured.out != expected
    assert captured.err.endswith(WARNING)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_file_that_breaks_the_idealizations_warns_and_runs(
    command, files, capsys, tmp_path
):
    """Real AS graphs routinely break the paper's idealized model: a
    tier-1 pair that does not peer is reported on stderr, and every
    command still runs on the graph as measured."""
    unpeered = tmp_path / "as-rel.unpeered.txt"
    lines = files["serial-1"].read_text().splitlines()
    lines.remove("1|2|0")
    unpeered.write_text("".join(f"{line}\n" for line in lines))
    argv = SEED + INSTANCES + ["--topology-file", str(unpeered), command]
    captured = _run(argv, capsys)
    assert captured.out
    assert captured.err == (
        f"loaded {unpeered}: 74 ASes, 148 c2p + 18 p2p links; "
        f"topology problems: 1 unpeered tier-1 pairs\n" + WARNING
    )
