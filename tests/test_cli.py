"""CLI smoke tests via the argparse entry point."""

import pytest

from repro.cli import build_parser, main
from repro.graph.bipartite import BipartiteGraph
from repro.graph.io import load_phi, save_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    return path


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_decompose_file(graph_file, capsys, tmp_path):
    out = tmp_path / "phi.txt"
    rc = main(["decompose", str(graph_file), "--output", str(out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "max bitruss number: 1" in captured
    assert load_phi(out) == [1, 1, 1, 1, 0]


def test_decompose_dataset(capsys):
    rc = main(["decompose", "--dataset", "marvel", "--algorithm", "pc"])
    assert rc == 0
    assert "BiT-PC" in capsys.readouterr().out


def test_decompose_rejects_both_inputs(graph_file):
    with pytest.raises(SystemExit):
        main(["decompose", str(graph_file), "--dataset", "marvel"])


def test_decompose_requires_input():
    with pytest.raises(SystemExit):
        main(["decompose"])


def test_stats(graph_file, capsys):
    rc = main(["stats", str(graph_file), "--phi-max"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "|E|      = 5" in out
    assert "sup_max  = 1" in out
    assert "φ_max    = 1" in out


def test_generate_and_reload(tmp_path, capsys):
    out = tmp_path / "d.txt"
    rc = main(["generate", "condmat", str(out)])
    assert rc == 0
    assert out.exists()
    rc = main(["stats", str(out)])
    assert rc == 0


def test_datasets_listing(capsys):
    rc = main(["datasets"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "d-style" in out and "wiki-it" in out


def test_unknown_algorithm_rejected(graph_file):
    with pytest.raises(SystemExit):
        main(["decompose", str(graph_file), "--algorithm", "warp-drive"])


def test_k_bitruss_extract(graph_file, tmp_path, capsys):
    out = tmp_path / "h1.txt"
    rc = main(["k-bitruss", str(graph_file), "-k", "1", "--output", str(out)])
    assert rc == 0
    assert "1-bitruss: 4 edges" in capsys.readouterr().out
    from repro.graph.io import load_edge_list

    sub = load_edge_list(out)
    assert sub.num_edges == 4


def test_community_subcommand(graph_file, capsys):
    rc = main(["community", str(graph_file), "-k", "1", "--upper", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "community at k=1" in out
    assert "2 upper" in out


def test_community_requires_query(graph_file):
    with pytest.raises(SystemExit):
        main(["community", str(graph_file), "-k", "1"])


def test_decompose_json(graph_file, capsys):
    import json as _json

    rc = main(["decompose", str(graph_file), "--json"])
    assert rc == 0
    out = capsys.readouterr().out
    payload = _json.loads(out[out.index("{"):])
    assert payload["max_k"] == 1
    assert payload["hierarchy"]["1"] == 4


def test_decompose_default_algorithm_is_bu_plus_plus(graph_file, capsys):
    rc = main(["decompose", str(graph_file)])
    assert rc == 0
    assert "BiT-BU++" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--dataset", "github"],
        ["index", "--dataset", "github", "--output", "unused.npz"],
        # The out-of-range port stops a parser that accepts --workers
        # before it starts a server.
        ["serve", "--dataset", "github", "--port", "70000"],
    ],
    ids=["decompose", "index", "serve"],
)
def test_workers_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--workers", "2"])
    assert excinfo.value.code == 2  # argparse's usage error
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


def test_cli_import_loads_no_multiprocessing():
    import subprocess
    import sys

    script = (
        "import sys, repro.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('multiprocessing', 'concurrent.futures.process'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"


# -------------------------------------------------------------------- serve


@pytest.fixture
def tiny_artifact(graph_file, tmp_path):
    from repro.graph.io import load_edge_list
    from repro.service import build_artifact, save_artifact

    path = tmp_path / "tiny.npz"
    save_artifact(build_artifact(load_edge_list(graph_file)), path)
    return path


def test_serve_requires_a_dataset():
    with pytest.raises(SystemExit, match="nothing to serve"):
        main(["serve", "--port", "0"])


def test_serve_rejects_unknown_dataset_name(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--dataset", "not-a-dataset"])
    assert excinfo.value.code == 2  # argparse choices rejection
    assert "invalid choice" in capsys.readouterr().err


def test_serve_rejects_out_of_range_port():
    with pytest.raises(SystemExit, match=r"--port 70000 is outside"):
        main(["serve", "--dataset", "github", "--port", "70000"])


def test_serve_rejects_negative_tuning_values():
    with pytest.raises(SystemExit, match="--window-ms"):
        main(["serve", "--dataset", "github", "--window-ms", "-1"])
    with pytest.raises(SystemExit, match="--debounce"):
        main(["serve", "--dataset", "github", "--debounce", "-0.5"])
    with pytest.raises(SystemExit, match="--cache-size"):
        main(["serve", "--dataset", "github", "--cache-size", "-1"])


def test_serve_rejects_duplicate_dataset_names(tiny_artifact):
    with pytest.raises(SystemExit, match="given twice"):
        main(
            [
                "serve",
                "--artifact",
                f"tiny={tiny_artifact}",
                "--artifact",
                f"tiny={tiny_artifact}",
            ]
        )


def test_serve_rejects_bad_artifact_specs(tmp_path):
    with pytest.raises(SystemExit, match="empty dataset name"):
        main(["serve", "--artifact", f"={tmp_path / 'x.npz'}"])
    with pytest.raises(SystemExit, match="cannot read artifact"):
        main(["serve", "--artifact", str(tmp_path / "missing.npz")])


def test_serve_port_in_use_message(tiny_artifact):
    import socket

    sock = socket.socket()
    try:
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)
        port = sock.getsockname()[1]
        with pytest.raises(SystemExit, match="already in use"):
            main(
                [
                    "serve",
                    "--artifact",
                    f"tiny={tiny_artifact}",
                    "--port",
                    str(port),
                ]
            )
    finally:
        sock.close()
