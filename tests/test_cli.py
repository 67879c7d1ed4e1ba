"""CLI contract: outputs mirror the library exactly, exit codes are stable."""

from __future__ import annotations

import json

import pytest

import oracles
from hirzquant import analysis, cli, counting, verify
from hirzquant.counting import CountMethod, CountResult
from hirzquant.polytope import FibrationParams, build_hirzebruch_polytope, vertices
from hirzquant.quantization import quantization_dimension


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quantize_default_is_record_json(capsys):
    code, out, _ = run_cli(capsys, "quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "1")
    assert code == 0
    assert json.loads(out) == quantization_dimension(FibrationParams(1, 1, 2, 1)).to_json()


def test_quantize_product_case(capsys):
    code, out, _ = run_cli(capsys, "quantize", "--d", "2", "--a", "0", "--b", "1", "--n", "0")
    assert code == 0
    assert json.loads(out)["dimension"] == "2"


def test_quantize_all_methods_agree(capsys):
    code, out, _ = run_cli(
        capsys, "quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "1", "--method", "all"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["counts"] == {"BruteForce": "9", "SliceSum": "9", "ClosedForm": "9"}
    assert blob["agree"] is True


def test_quantize_single_methods(capsys):
    for method, tag in (("slice", "SliceSum"), ("brute", "BruteForce")):
        code, out, _ = run_cli(
            capsys, "quantize", "--d", "1", "--a", "0", "--b", "1", "--n", "2",
            "--method", method,
        )
        assert code == 0
        assert json.loads(out) == {"value": "4", "method": tag}


def test_quantize_invalid_params_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "-1"])
    assert excinfo.value.code == 2


def test_quantize_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        counting,
        "count_brute_force",
        lambda poly, box=None: CountResult(value=0, method=CountMethod.BRUTE_FORCE),
    )
    code, out, err = run_cli(
        capsys, "quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "1", "--method", "all"
    )
    assert code == 1
    assert json.loads(out)["agree"] is False
    assert "disagree" in err


def test_quantize_cell_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRUTE_CELL_LIMIT", 5)
    code, _, err = run_cli(
        capsys, "quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "1", "--method", "brute"
    )
    assert code == 3
    assert "exceeds the limit" in err
    code, out, _ = run_cli(
        capsys, "quantize", "--d", "1", "--a", "1", "--b", "2", "--n", "1",
        "--method", "brute", "--force",
    )
    assert code == 0
    assert json.loads(out)["value"] == "9"


def test_quantize_term_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "TERM_LIMIT", 2)
    params = ["--d", "1", "--a", "1", "--b", "2", "--n", "1"]
    for method in ("closed", "slice"):
        code, out, err = run_cli(capsys, "quantize", *params, "--method", method)
        assert code == 3
        assert out == ""
        assert "list of 3 terms exceeds the limit 2" in err
        code, out, _ = run_cli(capsys, "quantize", *params, "--method", method, "--force")
        assert code == 0
        assert json.loads(out)["dimension" if method == "closed" else "value"] == "9"
    code, out, _ = run_cli(capsys, "quantize", *params, "--method", "brute")
    assert code == 0


def test_polytope_vertices(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--d", "1", "--a", "1", "--b", "1", "--n", "1", "--vertices"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 4
    assert blob["degenerate"] is False


def test_polytope_vertices_degenerate(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--d", "1", "--a", "0", "--b", "1", "--n", "1", "--vertices"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob == vertices(FibrationParams(1, 0, 1, 1)).to_json()
    assert blob["degenerate"] is True


def test_polytope_inequalities(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--d", "1", "--a", "1", "--b", "2", "--n", "1", "--inequalities"
    )
    assert code == 0
    assert json.loads(out) == build_hirzebruch_polytope(FibrationParams(1, 1, 2, 1)).to_json()


def test_polytope_basis_segment(capsys):
    code, out, _ = run_cli(
        capsys, "polytope", "--d", "1", "--a", "0", "--b", "2", "--n", "0", "--basis"
    )
    assert code == 0
    assert json.loads(out) == [[0, 0], [0, 1], [0, 2]]


@pytest.mark.parametrize(
    "d,a,b,n", [(1, 0, 2, 0), (1, 1, 1, 1), (2, 1, 3, 2), (2, 0, 0, 0), (3, 2, 2, 1), (1, 3, 0, 4)]
)
def test_polytope_basis_matches_referee(capsys, d, a, b, n):
    rows = build_hirzebruch_polytope(FibrationParams(d, a, b, n)).rows
    # The base coordinates lie in [0, a + n*b] and the fiber one in [0, b].
    upper = [a + n * b] * d + [b]
    points = oracles.box_points(
        [row for row, _ in rows], [bound for _, bound in rows], [0] * (d + 1), upper
    )
    code, out, err = run_cli(
        capsys, "polytope", "--d", str(d), "--a", str(a), "--b", str(b), "--n", str(n), "--basis"
    )
    assert code == 0
    assert err == ""
    assert out == json.dumps(points, indent=2) + "\n"


def test_polytope_basis_cell_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRUTE_CELL_LIMIT", 5)
    params = ["--d", "1", "--a", "1", "--b", "2", "--n", "1"]
    code, out, err = run_cli(capsys, "polytope", *params, "--basis")
    assert code == 3
    assert out == ""
    assert err == "error: scan of 12 cells exceeds the limit 5; re-run with --force to override\n"
    code, out, _ = run_cli(capsys, "polytope", *params, "--basis", "--force")
    assert code == 0
    assert len(json.loads(out)) == 9


def test_polytope_requires_exactly_one_view():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["polytope", "--d", "1", "--a", "1", "--b", "1", "--n", "1"])
    assert excinfo.value.code == 2


def test_volume_outputs(capsys):
    for (d, a, b, n), expected in (
        ((1, 1, 2, 1), {"num": "4", "den": "1"}),
        ((1, 1, 2, 0), {"num": "2", "den": "1"}),
        ((2, 0, 1, 1), {"num": "1", "den": "6"}),
    ):
        code, out, _ = run_cli(
            capsys, "volume", "--d", str(d), "--a", str(a), "--b", str(b), "--n", str(n)
        )
        assert code == 0
        assert json.loads(out) == expected


def test_verify_small_grid_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--dmax", "2", "--amax", "2", "--bmax", "2", "--nmax", "2")
    assert code == 0
    assert "OVERALL PASS" in out
    assert "INFO asymptotic_gap_bminus" in out
    assert "INFO blowup_decomposition_uncorrected" in out


def test_verify_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--dmax", "1", "--amax", "1", "--bmax", "1", "--nmax", "1", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["overall_pass"] is True


def test_verify_malformed_n_list():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--n-list", "10,abc"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--n-list", "100,10"])
    assert excinfo.value.code == 2


def test_verify_single_twist_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--n-list", "10"])
    assert excinfo.value.code == 2
    assert "at least two twists" in capsys.readouterr().err


def test_verify_negative_limits_usage_error(capsys):
    for flag in ("--cell-limit", "--max-polytopes"):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", flag, "-1"])
        assert excinfo.value.code == 2
        assert f"{flag} out of range" in capsys.readouterr().err


def test_verify_resource_limit(capsys):
    code, out, err = run_cli(capsys, "verify", "--cell-limit", "10")
    assert code == 3
    assert "resource limit" in err
    assert out.splitlines() == ["OVERALL INCOMPLETE"]
    # An aborted run never reports a pass, even when every finished check passed.
    for limit in (["--max-polytopes", "3"], ["--cell-limit", "10000"]):
        code, out, _ = run_cli(capsys, "verify", *limit)
        assert code == 3
        assert out.splitlines()[-1] == "OVERALL INCOMPLETE"
        code, out, _ = run_cli(capsys, "verify", *limit, "--json")
        assert code == 3
        blob = json.loads(out)
        assert blob["overall_pass"] is False
    assert len(blob["checks"]) == 9
    assert all(c["failures"] == 0 for c in blob["checks"])


def test_verify_grid_cap_precedes_the_grid(capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the oversized grid was built")

    monkeypatch.setattr(verify, "_grid", no_grid)
    code, out, err = run_cli(capsys, "verify", "--max-polytopes", "3")
    assert code == 3
    assert out.splitlines() == ["OVERALL INCOMPLETE"]
    assert "192 grid tuples exceed the limit 3" in err


def test_sweep_round_trip(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    args = [
        "sweep", "--d", "1:1", "--a", "0:2", "--b", "1:2", "--n", "0:3",
        "--format", "csv", "--out", str(target),
    ]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "wrote 24 rows" in out
    first = target.read_bytes()
    assert run_cli(capsys, *args)[0] == 0
    assert target.read_bytes() == first
    assert len(first.decode().splitlines()) == 25


def test_sweep_json_schema(tmp_path, capsys):
    target = tmp_path / "sweep.json"
    code, _, _ = run_cli(
        capsys, "sweep", "--d", "1:1", "--a", "0:0", "--b", "1:1", "--n", "0:1",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    rows = json.loads(target.read_text())
    assert [row["params"] for row in rows] == [
        {"d": 1, "a": 0, "b": 1, "n": 0},
        {"d": 1, "a": 0, "b": 1, "n": 1},
    ]
    assert all({"dimension", "base_term", "fiber_terms", "volume"} <= set(row) for row in rows)


def test_sweep_row_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_ROW_LIMIT", 5)
    target = tmp_path / "sweep.csv"
    args = ["sweep", "--d", "1:1", "--a", "0:2", "--b", "1:2", "--n", "0:0", "--out", str(target)]
    code, _, err = run_cli(capsys, *args)
    assert code == 3
    assert "exceeds the limit" in err
    assert not target.exists()
    code, out, _ = run_cli(capsys, *args, "--force")
    assert code == 0
    assert "wrote 6 rows" in out
    assert len(target.read_text().splitlines()) == 7


def test_sweep_brute_cell_guard(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "BRUTE_CELL_LIMIT", 5)
    target = tmp_path / "sweep.csv"
    args = ["sweep", "--d", "1:1", "--a", "0:2", "--b", "1:2", "--n", "0:0", "--out", str(target)]
    code, out, err = run_cli(capsys, *args, "--methods", "closed,brute")
    assert code == 3
    assert out == ""
    assert err == "error: scan of 6 cells exceeds the limit 5; re-run with --force to override\n"
    assert not target.exists()
    code, out, _ = run_cli(capsys, *args, "--methods", "closed,brute", "--force")
    assert code == 0
    assert "wrote 6 rows" in out
    assert len(target.read_text().splitlines()) == 7


def test_sweep_term_guard(tmp_path, capsys, monkeypatch):
    # 6 rows with b up to 2: 6 * 3 = 18 terms when a row sums or prints them.
    monkeypatch.setattr(cli, "TERM_LIMIT", 17)
    target = tmp_path / "sweep.out"
    ranges = ["--d", "1:1", "--a", "0:2", "--b", "1:2", "--n", "0:0", "--out", str(target)]
    for extra in (["--methods", "closed,slice"], ["--format", "json"]):
        code, _, err = run_cli(capsys, "sweep", *ranges, *extra)
        assert code == 3
        assert "sweep listing 18 terms exceeds the limit 17" in err
        assert not target.exists()
        code, out, _ = run_cli(capsys, "sweep", *ranges, *extra, "--force")
        assert code == 0
        assert "wrote 6 rows" in out
        target.unlink()
    code, out, _ = run_cli(capsys, "sweep", *ranges)
    assert code == 0
    assert "wrote 6 rows" in out


def test_sweep_env_var_selects_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HIRZQUANT_SWEEP_DIR", str(tmp_path))
    code, out, _ = run_cli(
        capsys, "sweep", "--d", "1:1", "--a", "0:0", "--b", "1:1", "--n", "0:0"
    )
    assert code == 0
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_unwritable_path_exits_four(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--d", "1:1", "--a", "0:0", "--b", "1:1", "--n", "0:0",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 4
    assert "cannot write" in err


def test_sweep_malformed_range():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["sweep", "--d", "1:2:3"])
    assert excinfo.value.code == 2


def test_asymptotics_table(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--d", "1", "--a", "0", "--b", "1", "--n-list", "10,100"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,ratio_num,ratio_den,series_num,series_den,gap_num,gap_den"
    assert lines[1] == "10,12,5,2,1,2,5"
    assert lines[2] == "100,51,25,2,1,1,25"


def test_asymptotics_json_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "asymptotics", "--d", "2", "--a", "1", "--b", "2", "--n-list", "10",
        "--convention", "bminus", "--format", "json",
    )
    assert code == 0
    expected = [
        pt.to_json()
        for pt in analysis.ratio_convergence(
            2, 1, 2, (10,), analysis.BernoulliConvention.B_MINUS
        )
    ]
    assert json.loads(out) == expected


def test_asymptotics_rejects_b_zero():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["asymptotics", "--d", "1", "--a", "0", "--b", "0", "--n-list", "10"])
    assert excinfo.value.code == 2


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "hirzquant", "volume", "--d", "1", "--a", "1", "--b", "2", "--n", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"num": "4", "den": "1"}

    # The shipped verification path, with asserts stripped by -O.
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "hirzquant", "verify"],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[-1] == "OVERALL PASS"
    assert not any("worker_invariance" in line for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("polytope", "--d", "2", "--a", "2", "--b", "10", "--n", "2", "--basis"),
        ("quantize", "--d", "1", "--a", "1", "--b", "1", "--n", "1"),
    ],
)
def test_closed_stdout_exits_four(argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    # The reading end is closed before the command starts, so its first write
    # to stdout fails, however short the output: a streamed basis fails while
    # it is written, a one-line count at the final flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hirzquant", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=root,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr.startswith("error: cannot write to stdout")
    assert len(proc.stderr.splitlines()) == 1  # no traceback, no error at exit
