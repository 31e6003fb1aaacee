"""Tests for the command-line interface."""

from __future__ import annotations

import sys

import pytest

from repro.automata.serialization import nfa_to_json
from repro.cli import main


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_exact_unambiguous(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "6"
        )
        assert code == 0
        assert out.strip() == "8"

    def test_exact_ambiguous(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab", "-n", "5"
        )
        assert code == 0
        assert out.strip() == "31"

    def test_approx(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab",
            "-n", "5", "--approx", "--delta", "0.3", "--seed", "1",
        )
        assert code == 0
        assert abs(float(out.strip()) - 31) <= 0.35 * 31

    def test_nfa_json_input(self, capsys, tmp_path, even_zeros_dfa):
        path = tmp_path / "machine.json"
        path.write_text(nfa_to_json(even_zeros_dfa))
        code, out, _ = run_cli(capsys, "count", "--nfa-json", str(path), "-n", "5")
        assert code == 0
        assert out.strip() == "16"

    def test_missing_input(self, capsys):
        with pytest.raises(SystemExit):
            main(["count", "-n", "3"])

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="interpreter has no int-to-str digit limit",
    )
    def test_exact_count_past_int_str_digit_limit(self, capsys):
        """4^8000 has 4817 decimal digits, past Python's default 4300
        limit on int-to-str conversion: the command prints it whole and
        leaves the interpreter's limit as it found it."""
        limit = sys.get_int_max_str_digits()
        code, out, _ = run_cli(
            capsys, "count", "--regex", "(a|b|c|d)*", "--alphabet", "abcd", "-n", "8000"
        )
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        assert len(out.strip()) == 4817
        sys.set_int_max_str_digits(0)
        try:
            assert out.strip() == str(4**8000)
        finally:
            sys.set_int_max_str_digits(limit)


class TestSampleEnumInspect:
    def test_sample(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "6", "--count", "3", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert all(len(line) == 6 for line in lines)

    def test_enum_with_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "enum", "--regex", "(a|b)*", "--alphabet", "ab", "-n", "3",
            "--limit", "4",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_inspect(self, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "--spectrum", "4",
        )
        assert code == 0
        assert "unambiguous   : True" in out
        assert "RelationUL" in out
        assert "|L_4  |       : 4" in out.replace("  |", "  |")  # spectrum rows present

    def test_inspect_ambiguous_class(self, capsys):
        code, out, _ = run_cli(
            capsys, "inspect", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab"
        )
        assert code == 0
        assert "RelationNL" in out


class TestDot:
    def test_automaton_dot(self, capsys):
        code, out, _ = run_cli(capsys, "dot", "--regex", "ab", "--alphabet", "ab")
        assert code == 0
        assert out.startswith("digraph")

    def test_unrolled_dot(self, capsys):
        code, out, _ = run_cli(
            capsys, "dot", "--regex", "(ab)*", "--alphabet", "ab", "--unroll", "4"
        )
        assert code == 0
        assert "rank=same" in out


class TestErrors:
    def test_bad_regex_reports_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--regex", "(", "-n", "3")
        assert code == 1
        assert "error:" in err


class TestDomainInputs:
    """The facade-era inputs: --dnf, --rpq, and --backend selection."""

    @pytest.fixture
    def dnf_file(self, tmp_path):
        path = tmp_path / "formula.txt"
        path.write_text("x0 & x2 | !x1 & x3\n")
        return str(path)

    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graphdb.graph import graph_to_json, grid_graph

        path = tmp_path / "grid.json"
        path.write_text(graph_to_json(grid_graph(3, 3)))
        return str(path)

    def test_dnf_count(self, capsys, dnf_file):
        code, out, _ = run_cli(capsys, "count", "--dnf", dnf_file)
        assert code == 0
        assert out.strip() == "7"  # brute-force model count of the formula

    def test_dnf_count_karp_luby_backend(self, capsys, dnf_file):
        code, out, _ = run_cli(
            capsys, "count", "--dnf", dnf_file, "--backend", "karp_luby", "--seed", "1"
        )
        assert code == 0
        assert abs(float(out.strip()) - 7) <= 0.3 * 7

    def test_dnf_length_mismatch_rejected(self, capsys, dnf_file):
        with pytest.raises(SystemExit):
            main(["count", "--dnf", dnf_file, "-n", "3"])

    def test_dnf_sample_and_enum(self, capsys, dnf_file):
        code, out, _ = run_cli(
            capsys, "sample", "--dnf", dnf_file, "--count", "2", "--seed", "3"
        )
        assert code == 0
        assert all(len(line) == 4 for line in out.strip().splitlines())
        code, out, _ = run_cli(capsys, "enum", "--dnf", dnf_file)
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_rpq_count_closed_form(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys,
            "count", "--rpq", "--graph-json", graph_file,
            "--source", "(0, 0)", "--target", "(2, 2)",
            "--regex", "(r|d)*", "-n", "4",
        )
        assert code == 0
        assert out.strip() == "6"  # C(4, 2) monotone grid paths

    def test_rpq_sample_prints_paths(self, capsys, graph_file):
        code, out, _ = run_cli(
            capsys,
            "sample", "--rpq", "--graph-json", graph_file,
            "--source", "(0, 0)", "--target", "(2, 2)",
            "--regex", "(r|d)*", "-n", "4", "--seed", "2",
        )
        assert code == 0
        assert "→" in out

    def test_rendered_output_unchanged(self, capsys, dnf_file, graph_file):
        """``sample`` and ``enum`` print words, DNF models (int symbols)
        and RPQ paths exactly as the two-pass renderer did."""
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "6", "--count", "3", "--seed", "5",
        )
        assert code == 0
        assert out.split() == ["baabab", "abbaab", "ababba"]
        code, out, _ = run_cli(capsys, "enum", "--dnf", dnf_file)
        assert code == 0
        assert out.split() == ["0001", "0011", "1001", "1010", "1011", "1110", "1111"]
        code, out, _ = run_cli(
            capsys,
            "enum", "--rpq", "--graph-json", graph_file,
            "--source", "(0, 0)", "--target", "(2, 2)",
            "--regex", "(r|d)*", "-n", "4", "--limit", "2",
        )
        assert code == 0
        assert out.splitlines() == [
            "ddrr  ((0, 0) → (0, 1) → (0, 2) → (1, 2) → (2, 2))",
            "drdr  ((0, 0) → (0, 1) → (1, 1) → (1, 2) → (2, 2))",
        ]

    def test_rpq_missing_pieces_rejected(self, capsys, graph_file):
        with pytest.raises(SystemExit):
            main(["count", "--rpq", "--graph-json", graph_file, "-n", "4"])

    def test_rpq_unknown_vertex_rejected(self, capsys, graph_file):
        with pytest.raises(SystemExit):
            main([
                "count", "--rpq", "--graph-json", graph_file,
                "--source", "nowhere", "--target", "(2, 2)",
                "--regex", "(r|d)*", "-n", "4",
            ])

    def test_unknown_backend_reports_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "count", "--regex", "(ab)*", "--alphabet", "ab", "-n", "4",
            "--backend", "nope",
        )
        assert code == 1
        assert "unknown solver backend" in err

    def test_montecarlo_backend(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--regex", "(a|b)*a(a|b)*", "--alphabet", "ab",
            "-n", "5", "--backend", "montecarlo", "--seed", "2",
        )
        assert code == 0
        assert abs(float(out.strip()) - 31) <= 0.5 * 31


class TestCfgInput:
    """--cfg FILE: context-free grammars from the command line."""

    @pytest.fixture
    def cfg_file(self, tmp_path):
        path = tmp_path / "grammar.txt"
        # a^k b^k in CNF: exactly one word per even length.
        path.write_text(
            "# toy balanced grammar\n"
            "S -> A T | A B\n"
            "T -> S B\n"
            "A -> a\n"
            "B -> b\n"
        )
        return str(path)

    def test_cfg_count(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "count", "--cfg", cfg_file, "-n", "6")
        assert code == 0
        assert out.strip() == "1"

    def test_cfg_enum(self, capsys, cfg_file):
        code, out, _ = run_cli(capsys, "enum", "--cfg", cfg_file, "-n", "4")
        assert code == 0
        assert out.strip() == "aabb"

    def test_cfg_sample(self, capsys, cfg_file):
        code, out, _ = run_cli(
            capsys, "sample", "--cfg", cfg_file, "-n", "2", "--seed", "4"
        )
        assert code == 0
        assert out.strip() == "ab"

    def test_cfg_requires_length(self, cfg_file):
        with pytest.raises(SystemExit):
            main(["count", "--cfg", cfg_file])

    def test_cfg_bad_syntax_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("S = A B\n")
        code, _, err = run_cli(capsys, "count", "--cfg", str(path), "-n", "2")
        assert code == 1
        assert "error:" in err


class TestBatchSampling:
    def test_batch_prints_k_witnesses(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "6", "--batch", "5", "--seed", "9",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(len(line) == 6 and set(line) <= {"a", "b"} for line in lines)

    def test_batch_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--regex", "(ab|ba)*", "--alphabet", "ab",
            "-n", "4", "--batch", "0",
        )
        assert code == 0
        assert out.strip() == ""


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        import repro

        assert repro.__version__ in out

    def test_version_has_one_source(self):
        """``pyproject.toml`` takes the version from ``repro.__version__``;
        a literal there drifts from what ``repro --version`` prints."""
        from pathlib import Path

        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        tables: dict[str, list[str]] = {}
        lines: list[str] = []
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("["):
                lines = tables.setdefault(stripped, [])
            elif stripped and not stripped.startswith("#"):
                lines.append(stripped.replace(" ", ""))
        assert not any(line.startswith("version=") for line in tables["[project]"])
        assert 'dynamic=["version"]' in tables["[project]"]
        assert 'version={attr="repro.__version__"}' in tables[
            "[tool.setuptools.dynamic]"
        ]

    def test_no_subcommand_exits_2_with_usage(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "command is required" in err


class TestServeAndQuery:
    """End-to-end: a real ``repro serve --port`` subprocess answered by
    ``repro query`` subprocesses (the CI smoke scenario)."""

    @pytest.fixture
    def server(self):
        import os
        import subprocess
        import sys as _sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
            cwd=root,
        )
        announce = proc.stderr.readline().strip()
        port = int(announce.rsplit(":", 1)[1])

        def query(*argv):
            return subprocess.run(
                [_sys.executable, "-m", "repro", "query", *argv, "--port", str(port)],
                env=env,
                capture_output=True,
                text=True,
                cwd=root,
                timeout=60,
            )

        yield query
        query("shutdown")
        proc.wait(timeout=10)

    def test_query_count_matches_local(self, capsys, server):
        remote = server("count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "10")
        assert remote.returncode == 0, remote.stderr
        code, local, _ = run_cli(
            capsys, "count", "--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "10"
        )
        assert code == 0
        assert remote.stdout.strip() == local.strip()

    def test_query_seeded_sample_matches_local(self, capsys, server):
        argv = ["--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "8",
                "--batch", "3", "--seed", "5"]
        remote = server("sample", *argv)
        assert remote.returncode == 0, remote.stderr
        # The protocol's substream contract: identical to the in-process
        # facade with use_substreams.
        from repro.api import WitnessSet

        ws = WitnessSet.from_regex("(ab|ba)*", 8, alphabet="ab", store=False)
        expected = [
            "".join(map(str, w))
            for w in ws.sample_batch(3, rng=5, use_substreams=True)
        ]
        assert remote.stdout.strip().splitlines() == expected

    def test_query_ping(self, server):
        result = server("ping")
        assert result.returncode == 0
        assert result.stdout.strip() == "pong"

    def test_query_enum_streams_and_matches_local(self, capsys, server):
        argv = ["--regex", "(ab|ba)*", "--alphabet", "ab", "-n", "8"]
        remote = server("enum", *argv, "--chunk-size", "3")
        assert remote.returncode == 0, remote.stderr
        code, local, _ = run_cli(capsys, "enum", *argv)
        assert code == 0
        assert remote.stdout.splitlines() == local.splitlines()
        # The --enumerate spelling without a positional op.
        flagged = server("--enumerate", *argv, "--limit", "4")
        assert flagged.returncode == 0, flagged.stderr
        assert flagged.stdout.splitlines() == local.splitlines()[:4]

    def test_query_enumerate_huge_set_streams_immediately(self, server):
        # 2^48 witnesses: any output at all proves the server streams
        # instead of materializing.
        result = server(
            "enum", "--regex", "(a|b)*", "--alphabet", "ab", "-n", "48",
            "--limit", "3",
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 3 and all(len(line) == 48 for line in lines)

    def test_query_without_server_is_a_clean_error(self, capsys):
        # Connection refused must print a one-line error, not a traceback.
        code = main(["query", "ping", "--port", "1", "--host", "127.0.0.1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")


_SERVE_SPEC = {"kind": "regex", "pattern": "(ab|ba)*", "alphabet": "ab", "n": 10}


def _request_lines(*requests) -> bytes:
    import json

    return "".join(json.dumps(request) + "\n" for request in requests).encode()


class TestServeStdio:
    """``repro serve`` with no ``--port``: stdin/stdout as one connection."""

    COUNT_AND_SAMPLE = _request_lines(
        {"id": 1, "op": "count", "spec": _SERVE_SPEC},
        {"id": 2, "op": "sample", "spec": _SERVE_SPEC, "k": 3, "seed": 7},
    )
    REQUESTS = COUNT_AND_SAMPLE + _request_lines(
        {"id": 3, "op": "enumerate", "spec": _SERVE_SPEC, "stream": True,
         "chunk_size": 7},
    )

    @staticmethod
    def _serve(*argv, **run_kwargs):
        import os
        import subprocess

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", *argv],
            env=env, capture_output=True, cwd=root, timeout=60, **run_kwargs,
        )

    def test_regular_file_stdin_answers_like_a_pipe(self, tmp_path):
        """Stdin redirected from a regular file (which epoll cannot
        watch) is served exactly like the same bytes through a pipe."""
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_bytes(self.REQUESTS)
        with open(requests, "rb") as stdin:
            from_file = self._serve(stdin=stdin)
        piped = self._serve(input=self.REQUESTS)
        assert from_file.returncode == 0, from_file.stderr
        assert piped.returncode == 0, piped.stderr
        assert from_file.stdout == piped.stdout
        replies = [json.loads(line) for line in piped.stdout.splitlines()]
        assert replies[0] == {"id": 1, "ok": True, "result": 32}
        assert replies[1]["id"] == 2 and len(replies[1]["result"]) == 3
        chunks = replies[2:]
        assert all(chunk["id"] == 3 and chunk["stream"] for chunk in chunks)
        assert sum(len(chunk["chunk"]) for chunk in chunks) == 32
        assert chunks[-1]["done"] and not any(c["done"] for c in chunks[:-1])

    def test_slow_query_flags_reach_stdio(self, tmp_path):
        """``--slow-query-ms 0`` logs every stdio request."""
        import json

        log = tmp_path / "slow.jsonl"
        result = self._serve(
            "--slow-query-log", str(log), "--slow-query-ms", "0",
            input=self.COUNT_AND_SAMPLE,
        )
        assert result.returncode == 0, result.stderr
        events = [json.loads(line) for line in log.read_text().splitlines()]
        assert sorted(event["id"] for event in events) == [1, 2]

    def test_request_timeout_flag_reaches_stdio(self):
        """A 1 ns ``--request-timeout`` expires every request before the
        pump can execute it."""
        import json

        result = self._serve("--request-timeout", "1e-9", input=self.COUNT_AND_SAMPLE)
        assert result.returncode == 0, result.stderr
        replies = [json.loads(line) for line in result.stdout.splitlines()]
        assert sorted(reply["id"] for reply in replies) == [1, 2]
        assert all(reply["error_type"] == "TimeoutError" for reply in replies)
