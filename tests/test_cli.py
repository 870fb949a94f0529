import json
import os
import subprocess
import sys

import pytest

import keyhop
from keyhop import cli
from keyhop.cli import main

from test_wire import _insider

PORTS = iter(range(23000, 26000, 40))


def test_simulate_writes_trace_files(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--shape",
            "ring6",
            "--variant",
            "ring-v1",
            "--n",
            "16",
            "--seed",
            "7",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "K(A) == K(B): match" in out
    text = (tmp_path / "trace.txt").read_text()
    assert text.splitlines()[0] == "# variant=ring-v1 topology=ring6 n=16"
    doc = json.loads((tmp_path / "trace.json").read_text())
    assert doc["variant"] == "ring-v1"
    assert len(doc["messages"]) == 6


def test_simulate_is_reproducible(tmp_path):
    argv = lambda sub: [
        "simulate",
        "--shape",
        "chain",
        "--m",
        "4",
        "--n",
        "32",
        "--seed",
        "9",
        "--output-dir",
        str(tmp_path / sub),
    ]
    assert main(argv("one")) == 0
    assert main(argv("two")) == 0
    assert (tmp_path / "one" / "trace.txt").read_bytes() == (
        tmp_path / "two" / "trace.txt"
    ).read_bytes()


def test_simulate_hardware_listing(tmp_path, capsys):
    code = main(
        ["simulate", "--shape", "ring6", "--hardware", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "A: source=yes measurement=no" in out


def test_analyze_enumerates_and_writes_csv(tmp_path, capsys):
    code = main(["analyze", "--shape", "ring6", "--variant", "ring-v2", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "N1+N2+N3+N4" in out
    lines = (tmp_path / "coalitions.csv").read_text().splitlines()
    assert lines[0] == "variant,topology,coalition,status"
    assert len(lines) == 17  # header plus the 16 subsets of four nodes


def test_analyze_past_the_enumeration_cap_exits_three(tmp_path, capsys):
    code = main(["analyze", "--shape", "chain", "--m", "21", "--output-dir", str(tmp_path)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds the exhaustive enumeration cap of 20" in err
    assert "Traceback" not in err
    assert not (tmp_path / "coalitions.csv").exists()


def test_analyze_refuses_past_the_cap_before_the_engine_runs(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("ran the engine on a layout past the enumeration cap")

    monkeypatch.setattr(cli, "run", refuse)
    code = main(["analyze", "--shape", "chain", "--m", "100000", "--output-dir", str(tmp_path)])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "100000 intermediaries exceeds the exhaustive enumeration cap of 20" in err


@pytest.mark.parametrize(
    "layout, count",
    [
        (["--shape", "chain", "--m", "99999999999999999999"], 99999999999999999999),
        (["--shape", "reach", "--m", "21", "--t", "3"], 21),
        (["--shape", "multipath", "--paths", "7,7,7"], 21),
        (["--config", "layout.cfg"], 1 << 70),
    ],
)
def test_analyze_refuses_past_the_cap_before_building_the_layout(
    tmp_path, monkeypatch, capsys, layout, count
):
    def refuse(*args):
        raise AssertionError("built a layout past the enumeration cap")

    monkeypatch.setattr(cli, "build_topology", refuse)
    (tmp_path / "layout.cfg").write_text(f"shape = chain\nm = {1 << 70}\n")
    layout = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in layout]
    code = main(["analyze", *layout, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    cap = "intermediaries exceeds the exhaustive enumeration cap of 20"
    assert err == f"keyhop: error: {count} {cap}\n"
    assert not (tmp_path / "out").exists()


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # ids hash by identity, so by address, and strings by the per-process
    # seed; neither may reach stdout or a written file
    commands = [
        ["simulate", "--shape", "ring6", "--variant", "ring-v2"],
        ["simulate", "--shape", "multipath", "--paths", "3,3,4", "--t", "2"],
        ["analyze", "--coalition", "N1,N4", "--shape", "chain", "--m", "6"],
        ["analyze", "--shape", "chain", "--m", "6"],
        ["attack", "--shape", "chain", "--m", "4", "--coalition", "N1,N4"],
    ]
    script = (
        "import json, sys\n"
        "from keyhop.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    print('exit', main([*argv, '--output-dir', f'out{i}']))\n"
    )
    src = os.path.dirname(os.path.dirname(keyhop.__file__))
    runs = {}
    for seed in ("0", "12345"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            cwd=cwd, capture_output=True, text=True, check=True, env=env,
        )
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in cwd.rglob("*.*")}
        runs[seed] = out.stdout, files
    assert runs["0"][0].count("exit 0") == len(commands)
    assert sorted(runs["0"][1]) == [
        "out0/trace.json", "out0/trace.txt", "out1/trace.json", "out1/trace.txt",
        "out3/coalitions.csv",
    ]
    assert runs["0"] == runs["12345"]


def test_analyze_single_coalition_with_oracle(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--shape",
            "chain",
            "--m",
            "2",
            "--variant",
            "chain2",
            "--coalition",
            "N1,N2",
            "--oracle",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "coalition N1+N2: BROKEN" in out
    assert "truth-table oracle: BROKEN (agree)" in out


def test_analyze_oracle_without_a_coalition_is_a_usage_error(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["analyze", "--shape", "ring6", "--oracle", "--output-dir", str(out_dir)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "--oracle checks one coalition; give --coalition" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--grid-paths", "--grid-reach"])
def test_analyze_grid_with_no_numbers_exits_three(tmp_path, capsys, flag):
    out_dir = tmp_path / "out"
    assert main(["analyze", "--grid", flag, ",", "--output-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "--grid-paths and --grid-reach each need at least one number" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_analyze_oracle_refuses_a_chain_too_wide_to_sweep(tmp_path, capsys):
    argv = ["analyze", "--shape", "chain", "--m", "30", "--coalition", "N1,N2", "--oracle"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "too many secrets for a full truth-table sweep" in err
    assert "Traceback" not in err


def test_analyze_grid(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "--grid",
            "--grid-paths",
            "1,2",
            "--grid-reach",
            "1",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    text = (tmp_path / "collusion_grid.csv").read_text()
    assert text.splitlines()[0] == "paths,reach,m_per_path,min_colluding_nodes"
    assert "2,1,2,4" in text


def test_attack_demonstrates_wiretap_recovery(tmp_path, capsys):
    code = main(
        ["attack", "--shape", "ring6", "--variant", "ring-v1", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "X[A] = M0 + M1 + M2" in out
    assert "X[B] = M3 + M4 + M5" in out
    assert "matches the honest endpoints' key" in out


def test_attack_returns_one_when_secure(tmp_path, capsys):
    code = main(
        ["attack", "--shape", "ring6", "--variant", "ring-v2", "--output-dir", str(tmp_path)]
    )
    assert code == 1
    assert "no attack exists" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["simulate", "analyze", "attack"])
def test_a_key_length_past_a_c_int_exits_three(tmp_path, capsys, command):
    # random.getrandbits takes a C int, so 2^31 bits would end in an OverflowError
    argv = [command, "--shape", "chain", "--m", "2", "--n", "2147483648"]
    assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "key length must be at most 2147483647 bits" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_attack_active_leakage_table(capsys):
    code = main(["attack", "--active"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max leakage over deterministic substitutions: 0 bits" in out


def test_rate_anchors_and_csv(tmp_path, capsys):
    code = main(["rate", "--to-km", "700", "--step-km", "100", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == "distance_km,family,rate_bps"
    assert len(lines) == 1 + 8 * 7  # 8 distances, 7 default families


@pytest.mark.parametrize("to_km", ["150000", "1000000000"])
def test_rate_refuses_a_sweep_past_the_row_cap_before_writing(tmp_path, capsys, to_km):
    # 150,001 distances x 7 families = 1,050,007 rows, just past 2^20
    out_dir = tmp_path / "out"
    argv = ["rate", "--to-km", to_km, "--step-km", "1", "--output-dir", str(out_dir)]
    assert main(argv) == 3
    assert "rows; rates.csv holds at most 1048576" in capsys.readouterr().err
    assert not (out_dir / "rates.csv").exists()


def test_rate_counts_a_sweep_past_sys_maxsize_without_overflow(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = ["rate", "--to-km", "100000000000000000000", "--output-dir", str(out_dir)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "rows; rates.csv holds at most 1048576" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "source, alpha, message",
    [
        ("flag", "50", "too lossy to calibrate"),
        ("params", "60", "too lossy to calibrate"),
        ("flag", "-20", "alpha_db_per_km must be positive"),
    ],
)
def test_rate_refuses_a_fiber_loss_it_cannot_calibrate(tmp_path, capsys, source, alpha, message):
    # at 50 or 60 dB/km the transmittance over the 300 km anchor underflows
    # to 0; at -20 it would overflow
    if source == "flag":
        argv = ["rate", "--alpha", alpha]
    else:
        cfg = tmp_path / "rate.cfg"
        cfg.write_text(f"alpha_db_per_km = {alpha}\n")
        argv = ["rate", "--params", str(cfg)]
    out_dir = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out_dir)]) == 3
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_rate_params_file_replaces_the_alpha_flag(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("alpha_db_per_km = 0.2\n")
    argv = ["rate", "--alpha", "50", "--params", str(cfg), "--to-km", "0"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.count("PASS") == 5


@pytest.mark.parametrize(
    "flags, want",
    [
        ([], "at 1 bps threshold: 900 km"),
        (["--threshold", "5"], "at 5 bps threshold: 795.154 km"),
    ],
)
def test_rate_threshold_flag_replaces_the_params_file_value(tmp_path, capsys, flags, want):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("alpha_db_per_km = 0.2\n")
    argv = ["rate", "--params", str(cfg), "--to-km", "0", "--max-range-m", "2", *flags]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert want in capsys.readouterr().out


def test_rate_threshold_flag_is_validated_with_a_params_file(tmp_path, capsys):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text("threshold_bps = 5\n")
    argv = ["rate", "--params", str(cfg), "--threshold", "0", "--output-dir", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "threshold_bps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rate_reach_is_never_negative(tmp_path, capsys):
    argv = ["rate", "--threshold", "2e6", "--max-range-m", "2", "--to-km", "0"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    assert "at 2e+06 bps threshold: 0 km" in capsys.readouterr().out


def test_rate_anchor_with_no_rate_left_fails_instead_of_crashing(tmp_path, capsys):
    # at 8 dB/km the anchors past 300 km underflow to 0 bps
    assert main(["rate", "--alpha", "8", "--to-km", "0", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL single relay link at 500 km close to 6 bps: 0 bps (reference 6, factor inf)" in out


def test_rate_max_range(tmp_path, capsys):
    code = main(
        ["rate", "--to-km", "0", "--max-range-m", "2", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    assert "max range with m=2" in capsys.readouterr().out


def test_wire_round_trip(tmp_path, capsys):
    code = main(
        [
            "wire",
            "--shape",
            "chain",
            "--m",
            "2",
            "--n",
            "32",
            "--seed",
            "5",
            "--base-port",
            str(next(PORTS)),
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "endpoint keys match" in out
    assert (tmp_path / "key_A.hex").read_text() == (tmp_path / "key_B.hex").read_text()


def test_wire_tamper_exits_two(tmp_path, capsys):
    code = main(
        [
            "wire",
            "--shape",
            "chain",
            "--m",
            "2",
            "--seed",
            "5",
            "--base-port",
            str(next(PORTS)),
            "--tamper",
            "1",
            "--timeout",
            "5",
            "--transcripts",
            "--output-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "BAD_TAG" in out
    assert not (tmp_path / "key_A.hex").exists()


def test_wire_with_an_insider_exits_two_and_prints_no_key(tmp_path, monkeypatch, capsys):
    _insider(monkeypatch, 1)  # N1 of chain m=4 substitutes M1 under its genuine link key
    argv = ["wire", "--shape", "chain", "--m", "4", "--base-port", str(next(PORTS))]
    code = main(argv + ["--transcripts", "--output-dir", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "run failed (exit 2); endpoint keys differ"
    assert "K(A) == K(B)" not in out
    assert "OUTPUT written" not in out
    assert not list(tmp_path.glob("key_*.hex"))


def test_wire_refuses_an_oversized_schedule_before_any_node_starts(
    tmp_path, monkeypatch, capsys
):
    # chain m=65536 has 65537 hops, one more than a u16 hop index can number;
    # the patch guarantees a misplaced check fails instead of starting nodes
    def no_nodes(*args, **kwargs):
        pytest.fail("the node runner was started")

    monkeypatch.setattr("keyhop.wire._run_nodes", no_nodes)
    code = main(["wire", "--shape", "chain", "--m", "65536", "--output-dir", str(tmp_path)])
    assert code == 3
    assert "65537 hops" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "layout, count",
    [
        (["--shape", "chain", "--m", "99999999999999999999"], 99999999999999999999),
        (["--shape", "multipath", "--paths", "2," + "9" * 30], 2 + int("9" * 30)),
        (["--config", "layout.cfg"], 1 << 70),
    ],
)
def test_wire_refuses_an_oversized_layout_before_building_it(
    tmp_path, monkeypatch, capsys, layout, count
):
    def refuse(*args):
        raise AssertionError("built a layout past the wire's hop limit")

    monkeypatch.setattr(cli, "build_topology", refuse)
    (tmp_path / "layout.cfg").write_text(f"shape = chain\nm = {1 << 70}\n")
    layout = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in layout]
    code = main(["wire", *layout, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"keyhop: error: {count} intermediaries exceed the wire limit of 65536 hops\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("port", ["0", "65534"])
def test_wire_refuses_ports_outside_the_tcp_range_before_any_node_starts(
    tmp_path, monkeypatch, capsys, port
):
    # chain m=2 needs four ports: 0..3 starts at zero, 65534..65537 runs past 65535
    def no_nodes(*args, **kwargs):
        pytest.fail("the node runner was started")

    monkeypatch.setattr("keyhop.wire._run_nodes", no_nodes)
    argv = ["wire", "--shape", "chain", "--m", "2", "--base-port", port]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 3
    assert "fall outside 1..65535" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("timeout", ["nan", "0", "-1"])
def test_wire_refuses_a_timeout_that_is_not_a_positive_number(tmp_path, capsys, timeout):
    argv = ["wire", "--shape", "chain", "--m", "2", "--base-port", str(next(PORTS))]
    assert main(argv + ["--timeout", timeout, "--output-dir", str(tmp_path)]) == 3
    assert "timeout must be a positive number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "flag", [["--base-port", "0"], ["--timeout", "0", "--base-port", "9000"]], ids=["port", "timeout"]
)
def test_wire_usage_error_leaves_no_output_dir(tmp_path, capsys, flag):
    out_dir = tmp_path / "fresh" / "out"
    argv = ["wire", "--shape", "chain", "--m", "2", *flag, "--output-dir", str(out_dir)]
    assert main(argv) == 3
    capsys.readouterr()
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize(
    "layout, variant",
    [
        (["--shape", "ring6"], "ring-v2"),
        (["--shape", "chain", "--m", "3"], "chain-m"),
        (["--shape", "reach", "--m", "3"], "reach-t"),
        (["--shape", "multipath", "--paths", "2,2"], "multipath"),
    ],
)
def test_each_shape_has_a_default_variant(tmp_path, capsys, layout, variant):
    assert main(["simulate", *layout, "--output-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    header = (tmp_path / "trace.txt").read_text().splitlines()[0]
    assert header.startswith(f"# variant={variant} ")


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "topo.cfg"
    cfg.write_text("shape = chain\nm = 3\nlink_length_km = 50\n")
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 0
    assert "chain(m=3)" in capsys.readouterr().out


_CONFIGS = {
    "chain.cfg": "shape = chain\nm = 3\n",
    "ring6-m5.cfg": "shape = ring6\nm = 5\n",
    "ring6-inf.cfg": "shape = ring6\nlink_length_km = inf\n",
    "rate-inf.cfg": "c_tf = inf\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--shape", "chain"],  # missing --m
        ["simulate", "--shape", "multipath"],  # missing --paths
        ["simulate"],  # no topology at all
        ["analyze", "--shape", "ring6", "--coalition", "Z9"],
        ["analyze", "--shape", "ring6", "--coalition", "A"],  # endpoints can't collude
        ["simulate", "--config", "/nonexistent/topo.cfg"],
        ["analyze", "--grid", "--coalition", "N1"],  # flags --grid ignores
        ["analyze", "--grid", "--coalition", "N1", "--oracle"],
        ["analyze", "--grid", "--shape", "ring6"],
        ["analyze", "--grid", "--grid-paths", "11", "--grid-reach", "9"],  # 110 > GRID_CAP
        ["analyze", "--grid", "--grid-paths", "1,9", "--grid-reach", "1,11"],
        ["attack", "--active", "--coalition", "N1"],  # flags --active ignores
        ["attack", "--active", "--shape", "chain", "--m", "3"],
        ["rate", "--from-km", "10", "--to-km", "0"],  # no distances
        ["rate", "--step-km", "0"],
        ["wire", "--shape", "chain", "--m", "2", "--tamper", "999"],  # hops are 0..2
        ["wire", "--shape", "chain", "--m", "2", "--tamper", "-1"],
        ["simulate", "--shape", "chain", "--m", "4", "--t", "3"],  # layout flags the shape ignores
        ["simulate", "--shape", "ring6", "--m", "5"],
        ["simulate", "--shape", "ring6", "--m", "0"],
        ["simulate", "--shape", "multipath", "--paths", "3,3", "--m", "9"],
        ["simulate", "--config", "chain.cfg", "--shape", "ring6"],  # a config states the layout
        ["simulate", "--config", "chain.cfg", "--t", "2"],
        ["simulate", "--config", "ring6-m5.cfg"],  # a key the config's shape ignores
        ["rate", "--threshold", "inf", "--max-range-m", "3"],  # non-finite numbers
        ["rate", "--params", "rate-inf.cfg"],
        ["simulate", "--shape", "ring6", "--link-km", "inf"],
        ["simulate", "--config", "ring6-inf.cfg"],
        ["wire", "--shape", "chain", "--m", "2", "--n", "33554153"],  # RELAY above MAX_FRAME
        ["rate", "--max-range-m", "1"],  # the scheme needs 2 intermediaries
    ],
)
def test_usage_errors_exit_three(tmp_path, argv, capsys):
    for name, text in _CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in _CONFIGS else arg for arg in argv]
    out_dir = tmp_path / "out"
    assert main(argv + ["--output-dir", str(out_dir)]) == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not out_dir.exists()


def test_bad_flag_exits_three(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--shape", "hexagon", "--output-dir", str(tmp_path)])
    assert err.value.code == 3
    capsys.readouterr()
