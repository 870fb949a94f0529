import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import keyhop
from keyhop import analysis, cli, protocol, wire
from keyhop.bits import BitString, KeyStore
from keyhop.cli import main
from keyhop.ratemodel import DEFAULT_FAMILIES

from test_topology import _refuse_building
from test_wire import _insider

PORTS = iter(range(23000, 26000, 40))


def _output_dir(command, path):
    """The --output-dir flag for command; attack writes no file and takes none."""
    return [] if command == "attack" else ["--output-dir", str(path)]


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
    _refuse_building(monkeypatch, "built a layout past the enumeration cap")
    (tmp_path / "layout.cfg").write_text(f"shape = chain\nm = {1 << 70}\n")
    layout = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in layout]
    code = main(["analyze", *layout, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    cap = "intermediaries exceeds the exhaustive enumeration cap of 20"
    assert err == f"keyhop: error: {count} {cap}\n"
    assert not (tmp_path / "out").exists()


def test_analyze_searches_the_minimal_sets_once(tmp_path, monkeypatch, capsys):
    # the printed minimal sets and coalitions.csv are read off one search
    calls = []
    search = analysis._minimal_masks
    monkeypatch.setattr(analysis, "_minimal_masks", lambda *a: calls.append(a) or search(*a))
    assert main(["analyze", "--shape", "chain", "--m", "6", "--output-dir", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert "  N1+N2 (2 nodes)\n" in capsys.readouterr().out


def test_analyze_answers_from_the_schedule_alone(tmp_path, monkeypatch, capsys):
    # the answers are facts of the layout: no key is drawn and no hop runs
    def refuse(*args, **kwargs):
        raise AssertionError("analyze drew a key or ran the protocol")

    monkeypatch.setattr(KeyStore, "sample", refuse)
    monkeypatch.setattr(cli, "run", refuse)
    monkeypatch.setattr(protocol, "make_store", refuse)
    monkeypatch.setattr(protocol, "execute", refuse)
    cases = [
        (
            ["--shape", "chain", "--m", "4"],
            "minimal breaking coalitions (size 2 minimum):\n"
            "  N1+N2 (2 nodes)\n  N1+N4 (2 nodes)\n  N2+N3 (2 nodes)\n  N3+N4 (2 nodes)\n"
            "wrote {out}/coalitions.csv (16 coalitions)\n",
        ),
        (
            ["--shape", "chain", "--m", "4", "--coalition", "N1,N4"],
            "coalition N1+N4: BROKEN\n  recovery: M2 + K[N1,N3] + K[N2,N4]\n",
        ),
        (
            ["--shape", "ring6", "--variant", "ring-v1", "--coalition", "N1,N3", "--oracle"],
            "coalition N1+N3: BROKEN\n  recovery: M0 + M1 + M2 + M3 + M4 + M5\n"
            "  truth-table oracle: BROKEN (agree)\n",
        ),
        (
            ["--shape", "multipath", "--paths", "2,3", "--coalition", "N1.1,N2.2", "--oracle"],
            "coalition N1.1+N2.2: SECURE\n  truth-table oracle: SECURE (agree)\n",
        ),
    ]
    for layout, want in cases:
        assert main(["analyze", *layout, "--output-dir", str(tmp_path)]) == 0
        assert capsys.readouterr() == (want.format(out=tmp_path), "")
    csv = (tmp_path / "coalitions.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "e39e532c3c97edc32d3b36db5ae8783a85ce24a402a653a12baf8bf52386edfe"
    )


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # secret ids and nodes hash as the strings they are, by the per-process
    # seed, which may reach no stdout, stderr, exit code or written file.
    # Two commands name the first bad coalition member in label order,
    # whatever order its set iterates in; attack --active groups its sweep by
    # views packed in secret order; the last three order the oracle's
    # union-find blocks, its table columns and the minimal-set search over
    # sets of ids
    commands = [
        ["simulate", "--shape", "ring6", "--variant", "ring-v2"],
        ["simulate", "--shape", "multipath", "--paths", "3,3,4", "--t", "2"],
        ["analyze", "--coalition", "N1,N4", "--shape", "chain", "--m", "6"],
        ["analyze", "--shape", "chain", "--m", "6"],
        ["attack", "--shape", "chain", "--m", "4", "--coalition", "N1,N4"],
        ["attack", "--shape", "chain", "--m", "4", "--coalition", "B,N1,A"],
        ["analyze", "--shape", "chain", "--m", "4", "--coalition", "A,B"],
        ["attack", "--active"],
        [
            "analyze", "--shape", "multipath", "--paths", "3,3,4", "--t", "2",
            "--coalition", "N1.1,N2.2", "--oracle",
        ],
        ["analyze", "--shape", "chain", "--m", "15", "--coalition", "N4,N7", "--oracle"],
        ["analyze", "--grid"],
    ]
    script = (
        "import json, sys\n"
        "from keyhop.cli import main\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    out = [] if argv[0] == 'attack' else ['--output-dir', f'out{i}']\n"
        "    print('exit', main([*argv, *out]))\n"
    )
    src = os.path.dirname(os.path.dirname(keyhop.__file__))
    runs = {}
    for seed in ("0", "1", "3", "12345"):
        cwd = tmp_path / seed
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(commands)],
            cwd=cwd, capture_output=True, text=True, check=True, env=env,
        )
        files = {p.relative_to(cwd).as_posix(): p.read_bytes() for p in cwd.rglob("*.*")}
        runs[seed] = out.stdout, out.stderr, files
    codes = [line for line in runs["0"][0].splitlines() if line.startswith("exit ")]
    assert codes == ["exit 0"] * 5 + ["exit 3"] * 2 + ["exit 0"] * 4
    assert runs["0"][1] == "keyhop: error: A is an endpoint, not a corruptible intermediary\n" * 2
    assert sorted(runs["0"][2]) == [
        "out0/trace.json", "out0/trace.txt", "out1/trace.json", "out1/trace.txt",
        "out10/collusion_grid.csv", "out3/coalitions.csv",
    ]
    assert all(run == runs["0"] for run in runs.values())


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


def test_analyze_oracle_that_disagrees_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(analysis, "brute_force_secrecy", lambda *args: analysis.Status.SECURE)
    argv = ["analyze", "--shape", "ring6", "--variant", "ring-v1", "--coalition", "N1,N3", "--oracle"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().out == (
        "coalition N1+N3: BROKEN\n  recovery: M0 + M1 + M2 + M3 + M4 + M5\n"
        "  truth-table oracle: SECURE (DISAGREE)\n"
    )


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


def test_analyze_oracle_checks_a_chain_the_held_keys_narrow(tmp_path, capsys):
    # chain m=22 has 25 secrets; N4 and N7 hold four, so the sweep is one
    # block of 21, within the 24 a sweep allows
    argv = ["analyze", "--shape", "chain", "--m", "22", "--coalition", "N4,N7", "--oracle"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("  truth-table oracle: BROKEN (agree)\n")
    assert err == ""


def test_analyze_oracle_refuses_a_chain_too_wide_to_sweep(tmp_path, capsys):
    # chain m=30 has 33 secrets; N1 and N2 hold four, which leaves one block
    # of 29, past the 24 a sweep allows
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


def test_analyze_grid_default_output_is_pinned(tmp_path, capsys):
    assert main(["analyze", "--grid", "--output-dir", str(tmp_path)]) == 0
    csv = (tmp_path / "collusion_grid.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == (
        "aab44ad8721f101ad6ca46fe3cabe0fe230f68fc3503769f0583477801e82f74"
    )
    out, _ = capsys.readouterr()
    assert out == f"{csv.decode()}wrote {tmp_path / 'collusion_grid.csv'}\n"


def test_analyze_grid_refuses_more_cells_than_a_csv_holds_before_any_cell(
    tmp_path, capsys, monkeypatch
):
    def built(*args):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(analysis, "build_multipath", built)
    paths, reaches = ",".join(["1"] * 1025), ",".join(["1"] * 1024)
    argv = ["analyze", "--grid", "--grid-paths", paths, "--grid-reach", reaches]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert "the grid has 1049600 cells; collusion_grid.csv holds at most 1048576" in err


def test_analyze_attack_and_simulate_load_neither_dataclasses_nor_inspect(tmp_path):
    # every command runs as a fresh process and pays for each module keyhop
    # imports: dataclasses brings inspect, ast, dis, tokenize and linecache,
    # about 6 ms, and json, which only simulate's trace.json needs, 1.7 ms
    readers = [
        ["analyze", "--shape", "chain", "--m", "6", "--output-dir", "audit"],
        ["analyze", "--shape", "chain", "--m", "4", "--coalition", "N1,N4"],
        ["attack", "--shape", "chain", "--m", "4", "--coalition", "N1,N4"],
        ["attack", "--active"],
    ]
    simulate = ["simulate", "--shape", "chain", "--m", "10", "--output-dir", "sim"]
    script = (
        "import sys\n"
        "bare = set(sys.modules)  # what a bare interpreter has loaded\n"
        "from keyhop.cli import main\n"
        f"codes = [main(argv) for argv in {readers!r}]\n"
        "print('@readers', *sorted(set(sys.modules) - bare))\n"
        f"codes.append(main({simulate!r}))\n"
        "print('@all', *sorted(set(sys.modules) - bare))\n"
        "print('@codes', *codes)\n"
    )
    src = os.path.dirname(os.path.dirname(keyhop.__file__))
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    added = {
        line.split()[0]: line.split()[1:] for line in out.stdout.splitlines() if line[:1] == "@"
    }
    assert added["@codes"] == ["0"] * 5 and out.stderr == ""
    assert "keyhop.analysis" in added["@readers"] and "keyhop.bits" in added["@readers"]
    assert "numpy" not in added["@readers"]  # only the oracle loads it; the active sweep is pure
    assert [name for name in ("dataclasses", "inspect") if name in added["@all"]] == []
    assert "json" not in added["@readers"] and "json" in added["@all"]
    assert sorted(p.name for p in (tmp_path / "sim").iterdir()) == ["trace.json", "trace.txt"]


def test_attack_demonstrates_wiretap_recovery(capsys):
    code = main(["attack", "--shape", "ring6", "--variant", "ring-v1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "X[A] = M0 + M1 + M2" in out
    assert "X[B] = M3 + M4 + M5" in out
    assert "matches the honest endpoints' key" in out


def test_attack_returns_one_when_secure(capsys):
    code = main(["attack", "--shape", "ring6", "--variant", "ring-v2"])
    assert code == 1
    assert "no attack exists" in capsys.readouterr().out


# one coalition per variant that recovers the final key, named out of order
# where the printed name sorts it
_RECIPE_LAYOUTS = [
    (["--shape", "ring6", "--variant", "ring-v1"], "N3,N1"),
    (["--shape", "ring6", "--variant", "ring-v2"], "N1,N2,N3,N4"),
    (["--shape", "chain", "--m", "2", "--variant", "chain2"], "N1,N2"),
    (["--shape", "chain", "--m", "6"], "N4,N1"),
    (["--shape", "reach", "--m", "5", "--t", "2"], "N2,N3,N4"),
    (
        ["--shape", "multipath", "--paths", "3,3,4", "--t", "2"],
        "N1.1,N1.2,N2.1,N2.2,N2.3,N3.1,N3.2,N3.3,N4.3",
    ),
]
_SECURE = "042365cf134ca856e777e809235509491e12871fe52f9aebc98c4d74ea51bd97"
# sha256 of stdout + NUL + stderr, with the exit code, per layout: attack with
# no coalition, attack with the coalition, analyze --coalition --oracle
_RECIPE_DIGESTS = [
    (
        (0, "7cb52e3a41091fc1841d4f7d4b79a7181458ec9e8b0546b50972a24b96e29098"),
        (0, "92c6816b20a2ac252dfabfd6240ad3f3b8e29f4d19a8f35062a86cfac76969c1"),
        (0, "2bc9949cca6d1082a8946a3f8c2a436f3ef712d832880e7d6a256bae7e9205cd"),
    ),
    (
        (1, _SECURE),
        (0, "d7f4a075cd18e30e6feffb30adc3b3d051761abc3e5adfdb8d9247f4d108c1db"),
        (0, "dd3aab65f94782b0a3998aa096bfacd428ccc533b78b39ab53f32fc126735c25"),
    ),
    (
        (1, _SECURE),
        (0, "cd7269fe5620a0c9c7578fb00c4c8aa78f2d8eb22480684c806ae3d01640b1ae"),
        (0, "71411964fbce3997de448232d25a2c05ee963fa72822fbf0119b58bc3ec7493c"),
    ),
    (
        (1, _SECURE),
        (0, "4de415a743e44a0e2ff38e39ad5493df89ea612d7075361335d2812203e61e7c"),
        (0, "102420a4877e8431f3430f813a7b1815d31d3834761a07046813773c2c907c58"),
    ),
    (
        (1, _SECURE),
        (0, "cf4f7d4c8c42fa81ffcc7a12fa84aae89c00422a0fd7cda502dc192334857122"),
        (0, "3f058dce1134a5d710088d3560a2ef0bfc46386255b67a3d971592c1637904af"),
    ),
    (
        (1, _SECURE),
        (0, "56d4537fc6efcde8ef0deb9d7f0e48b921d8371e0193b331e718c074c0bb6a1c"),
        (0, "01309580e895784b8a89811244c20b2f104572f2c8d3a62c93e0d59b0db0a147"),
    ),
]


@pytest.mark.parametrize(
    "layout, coalition, want",
    [(*layout, want) for layout, want in zip(_RECIPE_LAYOUTS, _RECIPE_DIGESTS)],
    ids=[" ".join(layout) for layout, _ in _RECIPE_LAYOUTS],
)
def test_attack_and_oracle_recipes_are_pinned(
    tmp_path, monkeypatch, capsys, layout, coalition, want
):
    # the verdicts, recovery recipes, recovered key and oracle line of each
    # variant, byte for byte, SECURE and BROKEN. Each command eliminates
    # once: attack reads the final key and every nonce off one reduction
    calls = []
    eliminate = analysis._eliminate
    monkeypatch.setattr(analysis, "_eliminate", lambda rows: calls.append(rows) or eliminate(rows))
    got = []
    for argv in (
        ["attack", *layout],
        ["attack", *layout, "--coalition", coalition],
        ["analyze", *layout, "--coalition", coalition, "--oracle", "--output-dir", str(tmp_path)],
    ):
        calls.clear()
        code = main(argv)
        out, err = capsys.readouterr()
        got.append((code, hashlib.sha256(f"{out}\0{err}".encode()).hexdigest()))
        assert len(calls) == 1, argv
    assert tuple(got) == want
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "attack"])
def test_a_key_length_past_a_c_int_exits_three(tmp_path, monkeypatch, capsys, command):
    # random.getrandbits takes a C int, so 2^31 bits would end in an OverflowError
    monkeypatch.chdir(tmp_path)
    argv = [command, "--shape", "chain", "--m", "2", "--n", "2147483648"]
    assert main(argv + _output_dir(command, "out")) == 3
    err = capsys.readouterr().err
    assert "key length must be at most 2147483647 bits" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["simulate", "attack", "wire"])
def test_key_material_over_the_budget_exits_three_before_a_draw(
    tmp_path, monkeypatch, capsys, command
):
    # chain m=8 holds 10 keys, 1 nonce and 9 messages: 20 values of 4 MB are
    # over the 64 MiB budget, and one value still fits in a wire frame
    def refuse(*args):
        raise AssertionError("drew key material over the budget")

    monkeypatch.setattr(KeyStore, "sample", refuse)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--shape", "chain", "--m", "8", "--n", "32000000"]
    assert main(argv + _output_dir(command, "out")) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "keyhop: error: 20 keys, nonces and messages of 32000000 bits exceed"
        " the 67108864-byte key budget\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_attack_active_leakage_table(capsys):
    # chain2's first relay N1 substitutes at the hop it sends; the table
    # lists the strategies by name, then their maximum
    code = main(["attack", "--active"])
    assert code == 0
    assert capsys.readouterr() == (
        "substitution const0: leakage 0 bits\n"
        "substitution const1: leakage 0 bits\n"
        "substitution identity: leakage 0 bits\n"
        "substitution negate: leakage 0 bits\n"
        "max leakage over deterministic substitutions: 0 bits\n",
        "",
    )


def test_rate_anchors_and_csv(tmp_path, capsys):
    code = main(["rate", "--to-km", "700", "--step-km", "100", "--output-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == "distance_km,family,rate_bps"
    assert len(lines) == 1 + 8 * 7  # 8 distances, 7 default families


def test_rate_refuses_an_empty_families_list_before_writing(tmp_path, capsys):
    # an empty value names one empty family; it does not ask for the defaults
    out_dir = tmp_path / "out"
    assert main(["rate", "--families", "", "--to-km", "0", "--output-dir", str(out_dir)]) == 3
    assert capsys.readouterr().err == "keyhop: error: unknown rate family ''\n"
    assert not (out_dir / "rates.csv").exists()


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
    "family, message",
    [
        ("scheme(m=x)", "rate family 'scheme(m=x)': 'x' is not an integer"),
        (
            f"scheme(m={10**400})",
            f"rate family 'scheme(m={10**400})': m exceeds the float range of 1.79769e+308",
        ),
        *(
            (f"scheme(m={m})", f"rate family 'scheme(m={m})': the scheme needs at least 2 intermediaries")
            for m in (1, 0, -(10**400))
        ),
    ],
    ids=["not-an-int", "past-the-float-range", "one-intermediary", "none", "far-below-two"],
)
def test_rate_refuses_a_family_it_cannot_read_before_writing(tmp_path, capsys, family, message):
    # each family is read once, before the first row, and an error names it
    out_dir = tmp_path / "out"
    assert main(["rate", "--families", f"tf,{family}", "--output-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"keyhop: error: {message}\n")
    assert not (out_dir / "rates.csv").exists()


@pytest.mark.parametrize(
    "flags", [["--max-range-m", str(10**308)], ["--alpha", "1e-320", "--max-range-m", "5"]]
)
def test_rate_refuses_a_reach_that_is_not_finite_before_writing(tmp_path, capsys, flags):
    # (m+1)/2 overflows at m = 10**308; 20/alpha does at alpha = 1e-320
    out_dir = tmp_path / "out"
    assert main(["rate", *flags, "--output-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"keyhop: error: --max-range-m: the reach of m={flags[-1]} at these rate"
        " parameters is not finite\n"
    )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--max-range-m", str(10**400)], "--max-range-m"),
        (["--from-km", "0", "--to-km", str(10**400), "--step-km", str(10**400)], "--to-km"),
    ],
)
def test_rate_refuses_an_int_past_the_float_range_before_any_curve(
    tmp_path, monkeypatch, capsys, flags, named
):
    # each value becomes a float, and float() of an int past its range raises OverflowError
    def refuse(*args):
        raise AssertionError("computed a curve or a reach")

    monkeypatch.setattr("keyhop.ratemodel.emit_curves", refuse)
    monkeypatch.setattr("keyhop.ratemodel.max_range", refuse)
    assert main(["rate", *flags, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"keyhop: error: {named}: the value exceeds the float range of 1.79769e+308\n"
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


@pytest.mark.parametrize("m", ["1", "0", "-3"])
def test_rate_refuses_a_max_range_m_below_2_by_name(tmp_path, capsys, m):
    out_dir = tmp_path / "out"
    assert main(["rate", "--max-range-m", m, "--output-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "keyhop: error: --max-range-m: the scheme needs at least 2 intermediaries\n"
    assert not out_dir.exists()


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


def test_wire_refuses_a_relay_payload_with_a_bit_at_or_above_n_at_once(
    tmp_path, monkeypatch, capsys
):
    # N1 of chain m=2 sets bits 12-15 of M1, at n = 12, under its genuine link key
    _insider(monkeypatch, 1, lambda payload: payload[:-1] + bytes((payload[-1] | 0xF0,)))
    argv = ["wire", "--shape", "chain", "--m", "2", "--n", "12", "--base-port", str(next(PORTS))]
    start = time.perf_counter()
    code = main(argv + ["--transcripts", "--output-dir", str(tmp_path)])
    elapsed = time.perf_counter() - start
    assert code == 2 and elapsed < 1.0, (code, elapsed)
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("N2: ")][-1] == "N2: ABORT POSITION_MISMATCH"
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
    _refuse_building(monkeypatch, "built a layout past the wire's hop limit")
    (tmp_path / "layout.cfg").write_text(f"shape = chain\nm = {1 << 70}\n")
    layout = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in layout]
    code = main(["wire", *layout, "--output-dir", str(tmp_path / "out")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"keyhop: error: {count} intermediaries exceed the wire limit of 65536 hops\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("limit, code", [(96, 3), (97, 0)])
def test_wire_refuses_a_run_past_the_open_file_limit_before_any_node_starts(
    tmp_path, monkeypatch, capsys, limit, code
):
    # chain m=10 has 11 listeners and 11 links of two ends each: 33 sockets,
    # which a limit of 97 leaves room for beside the 64 the process keeps.
    # An admitted run goes to the in-memory runner, so no socket is opened.
    def getrlimit(which):
        assert which == resource.RLIMIT_NOFILE
        return limit, limit

    monkeypatch.setattr(resource, "getrlimit", getrlimit)
    monkeypatch.setattr(wire, "_run_nodes", _run_in_memory)
    argv = ["wire", "--shape", "chain", "--m", "10", "--output-dir", str(tmp_path / "out")]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 3:
        assert (out, err) == (
            "",
            "keyhop: error: the run needs 33 sockets, but the open-file limit of 96"
            " leaves room for 32\n",
        )
        assert not (tmp_path / "out").exists()
    else:
        assert "endpoint keys match" in out


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
    cfg.write_text("shape = chain\nm = 3\n")
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
        ["attack", "--active", "--n", "5"],  # the sweep is exact at one bit
        ["attack", "--active", "--seed", "9"],  # and draws no key
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
        ["analyze", "--shape", "multipath", "--paths", "3", "--t", "0"],  # reach below 1
    ],
)
def test_usage_errors_exit_three(tmp_path, argv, capsys):
    for name, text in _CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in _CONFIGS else arg for arg in argv]
    out_dir = tmp_path / "out"
    try:
        code = main(argv + _output_dir(argv[0], out_dir))
    except SystemExit as exc:  # argparse refuses a flag no command takes
        code = exc.code
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if argv[0] == "attack":  # its own refusal, not argparse's
        assert err.startswith("keyhop: error: --active ignores --")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--shape", "ring6"],
        ["analyze", "--shape", "ring6"],
        ["analyze", "--grid"],
        ["attack", "--shape", "ring6"],
        ["wire", "--shape", "chain", "--m", "2"],
    ],
    ids=["simulate", "analyze", "grid", "attack", "wire"],
)
def test_no_command_takes_a_link_length(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--link-km", "50", *_output_dir(argv[0], "out")])
    assert exc.value.code == 3
    assert capsys.readouterr() == (
        "",
        "usage: keyhop [-h] {simulate,analyze,rate,attack,wire} ...\n"
        "keyhop: error: unrecognized arguments: --link-km 50\n",
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--shape", "ring6"], "--n 16"),
        (["analyze", "--shape", "ring6"], "--seed 1"),
        (["attack", "--shape", "ring6"], "--output-dir D"),
    ],
    ids=["analyze-n", "analyze-seed", "attack-output-dir"],
)
def test_a_command_refuses_a_flag_it_does_not_read(tmp_path, monkeypatch, capsys, argv, flag):
    # analyze answers from the schedule and draws no key; attack writes no file
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([*argv, *flag.split()])
    assert exc.value.code == 3
    assert capsys.readouterr() == (
        "",
        "usage: keyhop [-h] {simulate,analyze,rate,attack,wire} ...\n"
        f"keyhop: error: unrecognized arguments: {flag}\n",
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "shape, keys",
    [("ring6", ""), ("chain", "m = 3\n"), ("reach", "m = 4\nt = 2\n"), ("multipath", "paths = 2,2\n")],
    ids=["ring6", "chain", "reach", "multipath"],
)
def test_no_shape_reads_a_link_length(tmp_path, capsys, shape, keys):
    cfg = tmp_path / "layout.cfg"
    cfg.write_text(f"shape = {shape}\n{keys}link_length_km = 50\n")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--output-dir", str(out_dir)]) == 3
    error = f"keyhop: error: shape '{shape}' does not read ['link_length_km']\n"
    assert capsys.readouterr() == ("", error)
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["simulate", "--shape", "multipath", "--paths="], None, "--paths: '' is not an integer"),
        (["simulate", "--shape", "multipath", "--paths=2,a"], None, "--paths: 'a' is not an integer"),
        (["analyze", "--grid", "--grid-paths=1,a"], None, "--grid-paths: 'a' is not an integer"),
        (["analyze", "--grid", "--grid-reach=2,x"], None, "--grid-reach: 'x' is not an integer"),
        (["simulate"], "shape = chain\nm = x\n", "m: 'x' is not an integer"),
        (["simulate"], "shape = multipath\npaths = 2,,3\n", "paths: '' is not an integer"),
        (["simulate"], "shape = reach\nm = 4\nt = 1.5\n", "t: '1.5' is not an integer"),
    ],
)
def test_a_bad_integer_names_its_flag_or_config_key(tmp_path, capsys, argv, config, message):
    if config is not None:
        (tmp_path / "layout.cfg").write_text(config)
        argv = [*argv, "--config", str(tmp_path / "layout.cfg")]
    out_dir = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"keyhop: error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["rate", "--params"], "c_p2p = 1e\n", "c_p2p: '1e'"),
        (["rate", "--params"], "c_tf = abc\n", "c_tf: 'abc'"),
        (["rate", "--params"], "threshold_bps = 2\nalpha_db_per_km = 0,2\n", "alpha_db_per_km: '0,2'"),
    ],
)
def test_a_bad_config_number_names_its_key(tmp_path, capsys, argv, text, message):
    (tmp_path / "file.cfg").write_text(text)
    out_dir = tmp_path / "out"
    assert main([*argv, str(tmp_path / "file.cfg"), "--output-dir", str(out_dir)]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"keyhop: error: {message} is not a number\n")
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["simulate", "--config"], "shape = chain\nm = 3\nm = 4\n", "line 3: duplicate key 'm'"),
        (["rate", "--params"], "c_tf = 1e6\nc_tf = 2e6\n", "line 2: duplicate key 'c_tf'"),
    ],
    ids=["layout", "rate"],
)
def test_a_config_key_given_twice_exits_three(tmp_path, capsys, argv, text, message):
    (tmp_path / "file.cfg").write_text(text)
    out_dir = tmp_path / "out"
    assert main([*argv, str(tmp_path / "file.cfg"), "--output-dir", str(out_dir)]) == 3
    assert capsys.readouterr() == ("", f"keyhop: error: {message}\n")
    assert not out_dir.exists()


def test_bad_flag_exits_three(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--shape", "hexagon", "--output-dir", str(tmp_path)])
    assert err.value.code == 3
    capsys.readouterr()


# sha256 of stdout + NUL + stderr at COLUMNS=80, with the exit code, for the
# top-level help, each command's help and a few usage errors: building only
# the named command's flags must leave every one of these texts unchanged
_USAGE_DIGESTS = [
    ([], 3, "523be04f4fd47bd09a79bde5af241ed0f2fd3ea250ce46e2058d900bc8f5255a"),
    (["--help"], 0, "65bc139eb6400a4ec52371a1e3eb368a10cf8378d04bf76c332d84df70b29f5f"),
    (["bogus"], 3, "c7b24e7ce47ae977eb8d1b04e7031b6e169706f5d843141c21bbc503debd4c22"),
    (["simulate", "--help"], 0, "d5e654014f3e17a18aed66e4a9c85d8dfb61b21d1c65dbb27c3af9ced34b7257"),
    (["analyze", "--help"], 0, "63300a2445e30be60e59750331d57c43254375f5596fe51bbe5b359481aaa5c9"),
    (["rate", "--help"], 0, "29c8848622955d8ec5b9f449d96f61f9c267ca5a7d31f94aa46892333e88acdf"),
    (["attack", "--help"], 0, "75ec846514c31ce84b019bada8a7bd932f6ac4d378f9db99f8ce37a843c59f6c"),
    (["wire", "--help"], 0, "4e42bb43fd2b301f039dbddf6ec442b8162f86741fe0d7304cbf5456842b1ec2"),
    (["analyze", "--bogus"], 3, "edd1652037a5d62dad0c2172e28fa3ca7bb2870226a32912197f03e9539c915b"),
    # the command is the first argument naming one, not argv[0]
    (
        ["--bogus", "analyze", "--shape", "chain"],
        3,
        "edd1652037a5d62dad0c2172e28fa3ca7bb2870226a32912197f03e9539c915b",
    ),
    (["analyze", "--m", "x"], 3, "b48840e938f786b389c2b72e5f7f16ddd6c6ffcca5e37d1f03715c481002ca48"),
    (["wire", "--timeout"], 3, "e471835f87667c1519e7d58f3de804b913bc8a1c89d8247bc5cf41534dcaf5f6"),
    # argv around the fallback to the listing parser: extras a command's own
    # parser leaves (reported with the top-level usage), a name that is no
    # command, and help that exits before an unknown flag is seen
    (
        ["analyze", "--shape", "ring6", "stray"],
        3,
        "6f93d8f8b74875ea35c4c2aa2e0fec465fe7280ff310237a342d1a698d96063a",
    ),
    (
        ["simulate", "--shape", "ring6", "--oracle"],
        3,
        "56ad5d6fa23d96b72e0e46fd3bf4caea722696ed3ff41f24f7c922b0e795a289",
    ),
    (["anal", "--shape", "ring6"], 3, "82a8fbaa22f43f8715d8027c48a55e8ee8923ece10ba5672ce7d394b26ee7ebe"),
    (
        ["analyze", "--", "--shape", "ring6"],
        3,
        "3bd06ba770f166c792a5bd63be2beaba82191afcd50083a5abc3e7dbd6e42cc3",
    ),
    (["wire", "-h", "--bogus"], 0, "4e42bb43fd2b301f039dbddf6ec442b8162f86741fe0d7304cbf5456842b1ec2"),
    (
        ["rate", "--alpha", "0.3", "analyze"],
        3,
        "f49e789a1045ef81945a4468256d0150b4a1608a6539e5406d40ae772c6ec678",
    ),
]


@pytest.mark.parametrize(
    "argv, code, digest", _USAGE_DIGESTS, ids=[" ".join(argv) or "-" for argv, _, _ in _USAGE_DIGESTS]
)
def test_help_and_usage_text_is_pinned(argv, code, digest, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == code
    assert hashlib.sha256(f"{out}\0{err}".encode()).hexdigest() == digest


def test_a_command_builds_only_its_own_flags(tmp_path, monkeypatch, capsys):
    def refuse(p):
        raise AssertionError("built the layout or key flags for rate")

    monkeypatch.setattr(cli, "_add_layout_flags", refuse)  # rate takes no layout
    monkeypatch.setattr(cli, "_add_key_flags", refuse)  # and draws no key
    assert main(["rate", "--output-dir", str(tmp_path)]) == 0
    monkeypatch.undo()

    built = []
    for name, (help_text, add_flags, handler) in cli._COMMANDS.items():
        def record(p, name=name, add_flags=add_flags):
            built.append(name)
            add_flags(p)

        monkeypatch.setitem(cli._COMMANDS, name, (help_text, record, handler))
    assert main(["analyze", "--shape", "ring6", "--output-dir", str(tmp_path)]) == 0
    assert built == ["analyze"]
    for name in cli._COMMANDS:
        built.clear()
        with pytest.raises(SystemExit):
            main([name, "--help"])
        assert built == [name]
    capsys.readouterr()


# argv per command that together run every mode of its handler
_MODES = {
    "simulate": [["--shape", "ring6", "--hardware"]],
    "analyze": [
        ["--shape", "ring6"],
        ["--shape", "ring6", "--variant", "ring-v1", "--coalition", "N1,N3", "--oracle"],
        ["--grid", "--grid-paths", "1", "--grid-reach", "1"],
    ],
    "rate": [
        ["--to-km", "0"],
        ["--to-km", "0", "--params", "rate.cfg"],
        ["--to-km", "0", "--families", "tf"],
        ["--to-km", "0", "--threshold", "2e6"],
        ["--to-km", "0", "--max-range-m", "2"],
    ],
    "attack": [["--shape", "ring6", "--variant", "ring-v1", "--coalition", "N1,N3"], ["--active"]],
    "wire": [["--shape", "chain", "--m", "2", "--tamper", "1", "--transcripts"]],
}


def test_every_flag_is_read_by_its_command(tmp_path, monkeypatch, capsys):
    # a command offers only the flags its handler reads in some mode
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    stub = wire.WireRun(0, {}, BitString(0, 16), BitString(0, 16), "stub run")
    monkeypatch.setattr(wire, "orchestrate", lambda *args, **kwargs: stub)  # opens no socket
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rate.cfg").write_text("c_tf = 1e6\n")
    assert set(_MODES) == set(cli._COMMANDS)
    unread = []
    for command, (_, add_flags, handler) in cli._COMMANDS.items():
        parser = cli._Parser(prog=f"keyhop {command}")
        add_flags(parser)
        dests = {action.dest for action in parser._actions} - {"help"}
        seen = set()
        for argv in _MODES[command]:
            args = parser.parse_args(argv, namespace=Recording())
            read.clear()  # argparse reads the namespace as it fills it
            assert handler(args) in (0, 1)
            seen |= read
        unread += [f"{command}: {dest}" for dest in sorted(dests - seen)]
    capsys.readouterr()
    assert unread == []


def _count_parsers(monkeypatch):
    """The prog of every _Parser main builds from now on; the listing
    parser's subparsers are built through type(self), so they count too."""
    progs = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(cli, "_Parser", Counting)
    return progs


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--shape", "ring6"],
        ["simulate", "--shape", "chain", "--m", "3"],
        ["rate", "--to-km", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_command_that_runs_builds_one_parser(tmp_path, monkeypatch, capsys, argv):
    progs = _count_parsers(monkeypatch)
    assert main([*argv, "--output-dir", str(tmp_path)]) == 0
    assert progs == [f"keyhop {argv[0]}"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["analyze", "--shape", "ring6", "stray"], ["rate", "--alpha", "0.3", "analyze"]],
    ids=["help", "stray", "second-command"],
)
def test_other_argv_reaches_the_listing_parser(monkeypatch, capsys, argv):
    progs = _count_parsers(monkeypatch)
    with pytest.raises(SystemExit):
        main(argv)
    assert "keyhop" in progs  # the listing parser, with every command's subparser
    assert len(progs) - progs.index("keyhop") == 1 + len(cli._COMMANDS)
    capsys.readouterr()


# argv main runs successfully elsewhere in this file, output dirs aside
_RUNNING_ARGV = [
    ["simulate", "--shape", "ring6", "--variant", "ring-v1", "--n", "16", "--seed", "7"],
    ["simulate", "--shape", "ring6", "--hardware", "--output-dir", "out"],
    ["simulate", "--shape", "multipath", "--paths", "3,3,4", "--t", "2"],
    ["simulate", "--config", "chain.cfg", "--output-dir", "out"],
    ["analyze", "--shape", "ring6", "--variant", "ring-v2", "--output-dir", "out"],
    ["analyze", "--coalition", "N1,N4", "--shape", "chain", "--m", "6"],
    ["analyze", "--shape", "chain", "--m", "2", "--variant", "chain2", "--coalition", "N1,N2", "--oracle"],
    ["analyze", "--grid", "--grid-paths", "1,2", "--grid-reach", "1", "--output-dir", "out"],
    ["attack", "--shape", "ring6", "--variant", "ring-v1"],
    ["attack", "--active"],
    ["rate", "--to-km", "700", "--step-km", "100", "--output-dir", "out"],
    ["rate", "--alpha", "50", "--params", "rate.cfg", "--to-km", "0"],
    ["rate", "--threshold", "2e6", "--max-range-m", "2", "--to-km", "0"],
    ["wire", "--shape", "chain", "--m", "2", "--n", "32", "--seed", "5", "--base-port", "23000"],
    ["wire", "--shape", "chain", "--m", "2", "--tamper", "1", "--timeout", "5", "--transcripts"],
]


@pytest.mark.parametrize("argv", _RUNNING_ARGV, ids=lambda argv: " ".join(argv))
def test_a_command_parser_alone_gives_the_listing_parsers_namespace(monkeypatch, argv):
    got = []
    help_text, add_flags, _ = cli._COMMANDS[argv[0]]
    monkeypatch.setitem(cli._COMMANDS, argv[0], (help_text, add_flags, got.append))
    main(argv)
    assert got == [cli._listing_parser().parse_args(argv)]


@pytest.mark.parametrize(
    "command", [["simulate"], ["attack"], ["analyze", "--coalition", "N1"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "layout, count",
    [
        (["--shape", "chain", "--m", "99999999999999999999"], 99999999999999999999),
        (["--shape", "multipath", "--paths", "2," + "9" * 30], 2 + int("9" * 30)),
        (["--config", "layout.cfg"], 1 << 70),
    ],
    ids=["chain", "multipath", "config"],
)
def test_every_command_refuses_an_oversized_layout_before_building_it(
    tmp_path, monkeypatch, capsys, command, layout, count
):
    _refuse_building(monkeypatch, "built a layout past the wire's hop limit")
    (tmp_path / "layout.cfg").write_text(f"shape = chain\nm = {1 << 70}\n")
    layout = [str(tmp_path / arg) if arg.endswith(".cfg") else arg for arg in layout]
    monkeypatch.chdir(tmp_path)
    code = main([*command, *layout, *_output_dir(command[0], "out")])
    assert code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"keyhop: error: {count} intermediaries exceed the wire limit of 65536 hops\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["layout.cfg"]


def _comma_list(elements, max_size=3):
    return st.lists(elements, max_size=max_size).map(lambda items: ",".join(map(str, items)))


_LINE = st.tuples(
    st.sampled_from(
        ["shape", "m", "t", "paths", "link_length_km", "alpha_db_per_km", "c_tf", "threshold_bps"]
    ),
    st.one_of(
        st.sampled_from(["chain", "reach", "multipath", "ring6", "2,3"]),
        st.integers(-2, 4),
        st.floats(),
    ),
).map(lambda kv: f"{kv[0]} = {kv[1]}")

# Values the fuzz draws for a flag, by flag; a flag not named here draws by
# its type. A layout has at most 3 paths of at most 5 intermediaries and
# reach 4, and a key at most 300 bits, so no example builds much and no
# truth-table oracle check takes long.
_PAST_FLOATS = st.sampled_from([-(10**400), 10**400])  # ints that no float holds
_FLAG_VALUES = {
    "--m": st.integers(-2, 5),
    "--t": st.integers(-2, 3),
    "--n": st.integers(-2, 300),
    "--paths": _comma_list(st.integers(-1, 4)),
    "--coalition": _comma_list(st.sampled_from(["A", "B", "N1", "N2", "N3", "N1.1", "N2.2", ""])),
    "--grid-paths": _comma_list(st.integers(-1, 3)),
    "--grid-reach": _comma_list(st.integers(-1, 3)),
    "--families": _comma_list(
        st.sampled_from(
            [*DEFAULT_FAMILIES, "scheme(m=0)", "scheme(m=x)", f"scheme(m={10**400})"]
            + [f"scheme(m={-(10**400)})", "bogus"]
        )
    ),
    "--from-km": st.integers(-100, 500) | _PAST_FLOATS,
    "--to-km": st.integers(-100, 500) | _PAST_FLOATS,
    "--step-km": st.integers(-2, 100) | _PAST_FLOATS,
    "--max-range-m": st.integers(-2, 8) | _PAST_FLOATS | st.just(10**308),
}
_BY_TYPE = {int: st.integers(-3, 8), float: st.floats(), None: st.text(max_size=6)}
# Chances in four that a flag is given. A layout needs --shape or --config,
# so --shape has three; so do the layout flags the drawn shape reads. Any
# other flag has one, as most of them refuse some other.
_ODDS = {"--shape": 3}
_READS = {"chain": ("--m",), "reach": ("--m", "--t"), "multipath": ("--paths", "--t")}


@st.composite
def _argv(draw, command):
    """argv for one command, a draw of its own flags with a value of each
    one's kind, and the drawn lines of the file that --config or --params
    names, by argv position. --output-dir is left to the caller."""
    parser = argparse.ArgumentParser(add_help=False)
    cli._COMMANDS[command][1](parser)
    argv, files, shape = [command], {}, None
    for action in parser._actions:
        flag = action.option_strings[-1]
        odds = _ODDS.get(flag, 1)
        if flag in ("--m", "--paths", "--t"):
            odds = 3 if flag in _READS.get(shape, ()) else 1
        if flag == "--output-dir" or draw(st.integers(0, 3)) >= odds:
            continue
        if action.nargs == 0:
            argv.append(flag)
            continue
        if flag in ("--config", "--params"):
            files[len(argv)] = "\n".join(draw(st.lists(_LINE, max_size=4)))
            value = ""  # the file's path, once the test has a directory
        elif action.choices:
            value = draw(st.sampled_from([*action.choices, "bogus"]))
            shape = value if flag == "--shape" else shape
        else:
            value = draw(_FLAG_VALUES.get(flag, _BY_TYPE[action.type]))
        # one word, so that a value such as -inf is not taken for a flag
        argv.append(f"{flag}={value}")
    return argv, files


async def _run_in_memory(machines, addrs, timeout):
    """wire._run_nodes with no socket, thread or timer: every node dials its
    links, then frames are delivered one at a time in the order they were
    sent, which keeps each link's order. A node still unfinished when no
    frame is left gets the deadline."""
    frames = deque()
    for label, machine in machines.items():
        for peer in machine.peers_out:
            frames.extend((label, *send) for send in machine.dialled(peer))
    while frames:
        sender, receiver, blob = frames.popleft()
        frames.extend((receiver, *send) for send in machines[receiver].feed(sender, blob))
    for machine in machines.values():
        machine.feed(None, TimeoutError())
    return machines


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["simulate", "analyze", "attack", "rate", "wire"]).flatmap(_argv))
@example((["rate", "--families=scheme(m=x)"], {}))
@example((["rate", f"--families=p2p,scheme(m={10**400})"], {}))
@example((["rate", "--families=p2p,scheme(m=1)"], {}))
@example((["rate", f"--max-range-m={10**308}"], {}))
@example((["rate", "--max-range-m=1"], {}))
@example((["rate", "--from-km=0", f"--to-km={10**400}", f"--step-km={10**400}"], {}))
def test_fuzzed_argv_exits_cleanly(case):
    # any argv a command's flags admit ends in an exit code of the contract,
    # never in a traceback, nor in int()'s or float()'s bare message, which
    # names no flag or config key, nor in a reach of infinite km
    argv, files = list(case[0]), case[1]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for pos, text in files.items():
            path = os.path.join(tmp, f"file{pos}")
            argv[pos] += path
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        with (
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
            mock.patch.object(wire, "_run_nodes", _run_in_memory),
        ):
            try:
                code = main(argv + _output_dir(argv[0], os.path.join(tmp, "out")))
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "invalid literal" not in err.getvalue()
    assert "could not convert" not in err.getvalue()
    assert "inf km" not in out.getvalue()
    # a scheme family or a --max-range-m below m=2 is refused by name
    assert "error: the scheme needs" not in err.getvalue()
