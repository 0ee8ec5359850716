import csv
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pipefuse import cli
from pipefuse.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "baseline_10node.yaml"
FIXTURES = ROOT / "scenarios" / "fixtures"


def read_csv(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def small_scenario(tmp_path, **changes):
    """Bundled scenario compressed to 250 ticks for fast CLI smoke tests;
    `changes` set further top-level keys."""
    import yaml

    data = yaml.safe_load(SCENARIO.read_text(encoding="utf-8"))
    data.update(changes)
    data["horizon"] = 250
    data["events"][0].update({"start": 100, "end": 110})
    data["events"][1].update({"start": 150, "end": 170})
    data["topology"]["uav"]["patrol"][0].update({"start": 140, "end": 200})
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return path


class TestRun:
    def test_bundled_scenario_smoke(self, tmp_path):
        out = tmp_path / "out"
        # a name with a comma must come back whole: the cell is quoted
        code = main(["--quiet", "run", "--config", str(small_scenario(tmp_path, name="a,b")),
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "metrics.csv")
        assert len(rows) == 1
        assert rows[0]["scenario"] == "a,b"
        assert int(rows[0]["total_messages"]) > 0
        # every artifact the summary references exists and is non-empty
        summary = (out / "summary.txt").read_text(encoding="utf-8")
        in_artifacts = False
        listed = []
        for line in summary.splitlines():
            if line.startswith("artifacts:"):
                in_artifacts = True
                continue
            if in_artifacts and line.startswith("  "):
                listed.append(line.strip())
        assert listed
        for rel in listed:
            path = out / rel
            assert path.exists() and path.stat().st_size > 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fails", [False, True])
    def test_leaves_no_child_process(self, tmp_path, monkeypatch, capsys, fails):
        # the fork warns as Python 3.12's does in a process with a second
        # thread, as numpy's BLAS pool is: in the parent, after the fork
        forks = []
        fork = os.fork

        def warning_fork():
            forks.append(1)
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead "
                              "to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        out = tmp_path / "out"
        if fails:
            (out / "fused" / "c1_temperature.csv").mkdir(parents=True)
        code = main(["--quiet", "run", "--config", str(small_scenario(tmp_path)),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, forks, err.count("\n")) == ((3, [1], 1) if fails else (0, [1], 0))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_child_that_dies_has_its_files_written_again(self, tmp_path, monkeypatch):
        # the child writes every fused file and dies at the first of them;
        # this process writes them all again, to the bytes one process writes
        parent, write = os.getpid(), cli.fusvaf.write_fusion_columns
        rewritten = []

        def die_in_child(columns, path):
            if os.getpid() != parent:
                os._exit(7)
            rewritten.append(path.name)
            write(columns, path)

        monkeypatch.setattr(cli.fusvaf, "write_fusion_columns", die_in_child)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        run = ["--quiet", "run", "--config", str(SCENARIO), "--out"]
        assert main([*run, str(tmp_path / "rerun")]) == 0
        fused = sorted(p.name for p in (tmp_path / "rerun" / "fused").iterdir())
        assert sorted(rewritten) == fused and fused
        monkeypatch.delattr(os, "fork")
        assert main([*run, str(tmp_path / "one")]) == 0
        files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*.csv"))
        assert files == sorted(p.relative_to(tmp_path / "rerun")
                               for p in (tmp_path / "rerun").rglob("*.csv"))
        for rel in files:
            assert (tmp_path / "rerun" / rel).read_bytes() == (tmp_path / "one" / rel).read_bytes()

    def test_invalid_config_exits_2_and_names_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        # shrinking the horizon to 400 strands the intrusion event (ends at 470)
        text = SCENARIO.read_text(encoding="utf-8").replace(
            "horizon: 600", "horizon: 400"
        )
        bad.write_text(text, encoding="utf-8")
        code = main(["--quiet", "run", "--config", str(bad), "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert "config-invalid" in captured.err
        assert "events[1].end" in captured.err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["--quiet", "run", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_override_changes_energy(self, tmp_path):
        out1, out3 = tmp_path / "o1", tmp_path / "o3"
        cfg = small_scenario(tmp_path)
        assert main(["--quiet", "run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--quiet", "run", "--config", str(cfg), "--out", str(out3),
                     "--override", "energy.ops_per_bit=3000"]) == 0
        r1 = read_csv(out1 / "metrics.csv")[0]
        r3 = read_csv(out3 / "metrics.csv")[0]
        assert r1["total_bits"] == r3["total_bits"]
        assert float(r3["radio_energy"]) == pytest.approx(3.0 * float(r1["radio_energy"]))

    def test_unknown_override_exits_2(self, tmp_path, capsys):
        code = main(["--quiet", "run", "--config", str(SCENARIO),
                     "--out", str(tmp_path / "o"), "--override", "energy.bogus=1"])
        assert code == 2
        assert "energy.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("args, path", [
        (["--override", "fusion.report_delta=.nan"], "fusion.report_delta"),
        (["--override", "fusion.ekf_q=.inf"], "fusion.ekf_q"),
        (["--override", "fusion.ekf_r=.nan"], "fusion.ekf_r"),
        (["--override", "fusion.ekf_q=abc"], "fusion.ekf_q"),
        (["--override", "energy.sample_bits=1.5"], "energy.sample_bits"),
        (["--override", "detection.window=true"], "detection.window"),
        (["--override", "topology.nodes=5"], "topology.nodes"),
        (["--override", "seed=-1"], "seed"),
        (["--seed", "-1"], "seed"),
        (["--override", "horizon=605"], "detection.window"),
        (["--override", "detection.window=601"], "detection.window"),
        (["--override", "name=[1]"], "name"),
        (["--override", "events=[{}]"], "events[0].kind"),
        (["--override", "horizon=1" + "0" * 400], "horizon"),
        (["--override", f"horizon={2**62}"], "horizon"),
    ])
    def test_bad_numeric_value_exits_2_and_names_path(self, tmp_path, capsys, args, path):
        code = main(["--quiet", "run", "--config", str(SCENARIO),
                     "--out", str(tmp_path / "o")] + args)
        captured = capsys.readouterr()
        assert code == 2
        assert f"[config-invalid] {path}:" in captured.err

    @pytest.mark.parametrize("overrides, message", [
        (["signals.pressure.drift=1.0e+306"],
         "stream n0:pressure: non-finite value inf at tick 180"),
        (["signals.pressure.noise_std=1.0e+308", "fusion.cluster_fusvaf=false"],
         "stream n0:pressure: non-finite value"),
        (["signals.pressure.baseline=1.7e+308"],
         "cluster c0 [pressure]: tick 0: prediction inf is not finite"),
        (["signals.temperature.baseline=1.7e+308"], "cluster c0 [temperature]: tick 0: gate"),
        (["energy.per_op_cost=1.0e+303"], "radio_energy overflows the float range"),
        (["energy.sample_bits=1" + "0" * 400], "radio_energy overflows the float range"),
        (["energy.ekf_ops_per_update=1" + "0" * 400], "compute_energy overflows the float range"),
        # each term is finite, their sum is not
        (["energy.per_op_cost=5.95e+300"], "total_energy overflows the float range"),
        # a relayed window's mean overflows before the leak detector reads it
        (["signals.pressure.noise_std=3.0e+307", "fusion.cluster_fusvaf=false"],
         "cluster c0 [pressure]: window 0: mean -inf is not finite"),
    ])
    def test_overflow_exits_3_and_names_where(self, tmp_path, capsys, overrides, message):
        args = [a for o in overrides for a in ("--override", o)]
        code = main(["--quiet", "run", "--config", str(SCENARIO),
                     "--out", str(tmp_path / "o")] + args)
        err = capsys.readouterr().err
        assert code == 3
        assert f"pipefuse: error [runtime-failure] {message}" in err

    @pytest.mark.parametrize("override, error", [
        ("horizon=-3", "horizon: expected a positive integer, got -3"),
        ("signals.pressure.noise_std=1e308",
         "signals.pressure.noise_std: expected a finite number, got '1e308'"),
        ("signals.pressure.noise_std=1.0e+308",
         "signals.pressure.noise_std: implies a gate floor of inf, "
         "above fusion.gate_w_max 100.0"),
        # a topology list or entry of the wrong type leaves no node or head
        # for the cross-section checks to miss
        ("topology.cluster_heads=5", "topology.cluster_heads: expected a list, got 5"),
        ("topology.cluster_heads=[5, {cluster_id: c1, peers: []}]",
         "topology.cluster_heads[0]: expected a mapping, got 5"),
        ("topology.nodes=[5]", "topology.nodes[0]: expected a mapping, got 5"),
        ("topology.nodes=5", "topology.nodes: expected a list, got 5"),
    ])
    def test_invalid_field_reported_without_follow_on_errors(
        self, tmp_path, capsys, override, error
    ):
        code = main(["--quiet", "run", "--config", str(SCENARIO),
                     "--out", str(tmp_path / "o"), "--override", override])
        assert code == 2
        assert capsys.readouterr().err == f"pipefuse: error [config-invalid] {error}\n"

    @pytest.mark.parametrize("path, expected", [
        ("seed", "a non-negative integer"),
        ("energy.sample_bits", "an integer"),
        ("topology.gateway_id", "a string"),
        ("name", "a string"),
    ])
    def test_long_value_echoed_short(self, tmp_path, capsys, path, expected):
        value = "[" + ", ".join(["1"] * 3000) + "]"
        code = main(["--quiet", "run", "--config", str(SCENARIO), "--out", str(tmp_path / "o"),
                     "--override", f"{path}={value}"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"pipefuse: error [config-invalid] {path}: expected {expected}, "
                       "got [1, 1, 1, 1, 1, 1, ...]\n")
        assert len(err) < 200

    def test_unknown_uav_key(self, tmp_path, capsys):
        # a typo that would otherwise drop the patrol without a word
        code = main(["--quiet", "run", "--config", str(SCENARIO), "--out", str(tmp_path / "o"),
                     "--override", "topology.uav.patrl=1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "pipefuse: error [config-invalid] topology.uav.patrl: unknown key\n")

    @pytest.mark.parametrize("where", ["override", "file"])
    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys, where):
        # Python refuses to parse an integer literal of more than 4,300 digits
        seed = "1" + "0" * 4999
        config, overrides = SCENARIO, []
        if where == "file":
            config = tmp_path / "scenario.yaml"
            config.write_text(SCENARIO.read_text(encoding="utf-8").replace(
                "seed: 42", f"seed: {seed}"), encoding="utf-8")
        else:
            overrides = ["--override", f"seed={seed}"]
        code = main(["--quiet", "run", "--config", str(config), "--out", str(tmp_path / "o"),
                     *overrides])
        err = capsys.readouterr().err
        assert code == 2
        named = f"{config}: cannot read: " if where == "file" else (
            "override 'seed': cannot read the value: ")
        assert err.startswith(f"pipefuse: error [config-invalid] {named}Exceeds the limit")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_gate_floor_errors_come_with_the_others(self, tmp_path, capsys):
        # report_delta, not the 0.2-0.5 noise, sets each kind's floor; the
        # field error comes first, the cross-section ones once it is fixed
        def run(ops_per_bit):
            code = main(["--quiet", "run", "--config", str(SCENARIO), "--out", str(tmp_path / "o"),
                         "--override", "fusion.report_delta=150", "--override", "horizon=605",
                         "--override", f"energy.ops_per_bit={ops_per_bit}"])
            assert code == 2
            return capsys.readouterr().err

        assert run(500) == ("pipefuse: error [config-invalid] "
                            "energy.ops_per_bit: must be in [1000, 3000], got 500\n")
        assert run(1000) == "".join(
            f"pipefuse: error [config-invalid] {error}\n" for error in [
                "detection.window: 10 must divide the horizon 605, "
                "so that every tick falls in a reporting window",
                "fusion.report_delta: implies a humidity gate floor of 152.0, "
                "above fusion.gate_w_max 100.0",
                "fusion.report_delta: implies a pressure gate floor of 152.0, "
                "above fusion.gate_w_max 100.0",
                "fusion.report_delta: implies a temperature gate floor of 150.8, "
                "above fusion.gate_w_max 100.0",
            ])

    @pytest.mark.parametrize("pipeline", ["fused", "raw"])
    def test_every_csv_cell_is_a_number_or_declared_text(self, tmp_path, pipeline):
        out = tmp_path / "out"
        args = ["--quiet", "run", "--config", str(small_scenario(tmp_path)), "--out", str(out)]
        if pipeline == "raw":
            args += ["--override", "fusion.node_ekf=false",
                     "--override", "fusion.cluster_fusvaf=false",
                     "--override", "fusion.consensus_policy=off"]
        assert main(args) == 0
        text_columns = {"scenario", "kind", "cluster_id", "sensor_kind"}
        paths = sorted(out.rglob("*.csv"))
        assert any(p.parent.name == "streams" for p in paths)
        for path in paths:
            for row in read_csv(path):
                for column, cell in row.items():
                    if cell == "" or column in text_columns:
                        continue
                    try:
                        float(cell)
                    except ValueError:
                        pytest.fail(f"{path.relative_to(out)}: {column}={cell!r}")

    def test_byte_identical_metrics_across_runs(self, tmp_path):
        cfg = small_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--quiet", "run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--quiet", "run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()


class TestValidate:
    def test_valid_config(self, capsys):
        assert main(["validate", "--config", str(SCENARIO)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_never_writes_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = small_scenario(tmp_path)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["validate", "--config", str(cfg)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("old, new, error", [
        ("c1", "n0", "topology.cluster_heads: id 'n0' is already used in topology.nodes"),
        ("gateway_id: gw", "gateway_id: null", "topology.gateway_id: expected a string, got None"),
        ("0.0,   sensors: [pressure]}", "0.0, sensors: [pressure, pressure]}",
         "topology.nodes[0].sensors: pressure listed twice"),
    ])
    def test_topology_defect_exits_2_and_names_path(self, tmp_path, capsys, old, new, error):
        config = tmp_path / "scenario.yaml"
        config.write_text(SCENARIO.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        code = main(["validate", "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == f"pipefuse: error [config-invalid] {error}\n"

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "scenario.yaml"
        config.write_bytes(b"name: x\n\xff\xfe\n")
        assert main(["validate", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"pipefuse: error [config-invalid] {config}: cannot read: 'utf-8' codec can't "
            "decode byte 0xff in position 8: invalid start byte\n")

    def test_empty_section_headers_mean_defaults(self, tmp_path, capsys):
        # the bundled fusion, detection and energy sections hold default values
        # only; an empty header reads as null
        from pipefuse.sim import load_scenario

        text = SCENARIO.read_text(encoding="utf-8")
        for name in ("fusion", "detection", "energy"):
            text = re.sub(rf"^{name}:\n(  .*\n)*", f"{name}:\n", text, flags=re.M)
        config = tmp_path / "baseline_10node.yaml"
        config.write_text(text, encoding="utf-8")
        assert main(["validate", "--config", str(config)]) == 0
        assert "ok" in capsys.readouterr().out
        assert load_scenario(config) == load_scenario(SCENARIO)

    def test_invalid_exits_2(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("seed: 1\n", encoding="utf-8")
        assert main(["--quiet", "validate", "--config", str(bad)]) == 2


class TestEkfCommand:
    def test_bundled_fixture_produces_20_rows(self, tmp_path):
        out = tmp_path / "out"
        code = main(["--quiet", "ekf", "--trace", str(FIXTURES / "ekf_20_samples.csv"),
                     "--q", "0.1", "--r", "0.1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "ekf.csv")
        assert len(rows) == 20
        assert set(rows[0]) == {"tick", "measurement", "estimate", "variance"}

    def test_malformed_trace_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,value\n0,abc\n", encoding="utf-8")
        code = main(["--quiet", "ekf", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert "runtime-failure" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("0,1.0\n\n1,nan\n", "stream n0:temperature: non-finite value nan at tick 1"),
        ("4,1.0\n9,-inf\n", "stream n0:temperature: non-finite value -inf at tick 9"),
        ("0,1.0\n2.5,1.0\n", "row 2: invalid literal for int() with base 10: '2.5'"),
    ])
    def test_bad_reading_exits_3_and_names_file_and_tick(self, tmp_path, capsys, text, error):
        bad = tmp_path / "nan.csv"
        bad.write_text("timestamp,value\n" + text, encoding="utf-8")
        code = main(["--quiet", "ekf", "--trace", str(bad), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"pipefuse: error [runtime-failure] {bad}: {error}\n"

    def test_loads_neither_simulator_nor_yaml(self, tmp_path):
        argv = ["--quiet", "ekf", "--trace", str(FIXTURES / "ekf_20_samples.csv"),
                "--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "from pipefuse.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in ('pipefuse.sim', 'yaml') if m in sys.modules))\n"
        )
        path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path}, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


class TestFusvafCommand:
    def test_two_node_fixture_envelope(self, tmp_path):
        out = tmp_path / "out"
        code = main([
            "--quiet", "fusvaf",
            "--trace", str(FIXTURES / "temperature_node_a.csv"),
            "--trace", str(FIXTURES / "temperature_node_b.csv"),
            "--kind", "temperature", "--w-min", "1.0", "--initial-width", "5.0",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "fusvaf.csv")
        assert len(rows) == 200
        for row in rows:
            zs = [float(row[c]) for c in ("z_1", "z_2") if row[c] != ""]
            bounds = zs + [float(row["pred"])]
            assert min(bounds) - 1e-9 <= float(row["fused"]) <= max(bounds) + 1e-9

    def test_humidity_fixture_pair_fuses_with_default_flags(self, tmp_path):
        # every reading leaves the gate at tick 16 and again at tick 17
        out = tmp_path / "out"
        code = main([
            "--quiet", "fusvaf",
            "--trace", str(FIXTURES / "humidity_node_a.csv"),
            "--trace", str(FIXTURES / "humidity_node_b.csv"),
            "--kind", "humidity", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out / "fusvaf.csv")
        assert [int(row["tick"]) for row in rows] == list(range(200))
        assert (rows[17]["sigma_1"], rows[17]["sigma_2"]) == ("0.0", "0.0")
        assert rows[17]["fused"] == rows[17]["pred"]

    def test_repeated_file_stems_get_distinct_columns(self, tmp_path):
        # the third trace's stem repeats the second's, and stem + "_2" is the first's
        paths = []
        for i, (sub, stem) in enumerate((("x", "a_2"), ("y", "a"), ("z", "a"))):
            (tmp_path / sub).mkdir()
            paths += ["--trace", str(tmp_path / sub / f"{stem}.csv")]
            (tmp_path / sub / f"{stem}.csv").write_text(
                f"timestamp,value\n0,{i}.0\n1,{i}.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--quiet", "fusvaf", *paths, "--out", str(out)]) == 0
        rows = read_csv(out / "fusvaf.csv")
        assert [[row[f"z_{i}"] for i in (1, 2, 3)] for row in rows] == [["0.0", "1.0", "2.0"]] * 2

    def test_overflowing_fused_value_exits_3_and_names_tick(self, tmp_path, capsys):
        (tmp_path / "a.csv").write_text("timestamp,value\n0,1e308\n1,1e308\n", encoding="utf-8")
        (tmp_path / "b.csv").write_text("timestamp,value\n1,1e308\n", encoding="utf-8")
        code = main(["--quiet", "fusvaf", "--trace", str(tmp_path / "a.csv"),
                     "--trace", str(tmp_path / "b.csv"), "--w-max", "1e300",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "runtime-failure" in err and "tick 0: filter state contains non-finite" in err

    def test_non_finite_fused_value_exits_3_and_names_tick(self, tmp_path, capsys):
        # a prediction weight of inf makes the fused value nan; the smoothing
        # predictor would take it, the kernel does not
        (tmp_path / "a.csv").write_text("timestamp,value\n0,1.0\n", encoding="utf-8")
        code = main(["--quiet", "fusvaf", "--trace", str(tmp_path / "a.csv"),
                     "--predictor", "smoothing", "--alpha", "1e300", "--omega", "1e-300",
                     "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "[runtime-failure] tick 0: fused value nan is not finite" in err
        assert not (tmp_path / "out" / "fusvaf.csv").exists()


class TestConsensusCommand:
    def test_k3_fixture_one_iteration(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["consensus", "--values", "1,2,3",
                     "--edges", str(FIXTURES / "k3_edges.csv"),
                     "--tol", "1e-12", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "consensus_mse.csv")
        assert len(rows) == 2  # iterations 0 and 1
        assert float(rows[1]["mse"]) < 1e-12
        assert "converged after 1 iterations" in capsys.readouterr().out

    def test_disconnected_edges_exit_3(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("i,j\n0,1\n", encoding="utf-8")
        code = main(["--quiet", "consensus", "--values", "1,2,3",
                     "--edges", str(edges), "--out", str(tmp_path / "o")])
        assert code == 3

    @pytest.mark.parametrize("text, error", [
        ("a,b\n0,1\n", "expected header 'i,j', got ['a', 'b']"),
        ("i,j\n0,1,7\n1,2\n", "row 1: expected 2 fields, got 3"),
        ("i,j\n0,1\n\n1,x\n", "row 3: invalid literal for int() with base 10: 'x'"),
        ("i,j\n0,1\n0,5\n", "row 2: edge (0, 5) out of range for n=3"),
        ("i,j\n0,0\n", "row 1: self-loop on agent 0"),
    ])
    def test_malformed_edges_exit_3_and_name_file_and_row(self, tmp_path, capsys, text, error):
        edges = tmp_path / "edges.csv"
        edges.write_text(text, encoding="utf-8")
        code = main(["--quiet", "consensus", "--values", "1,2,3",
                     "--edges", str(edges), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == f"pipefuse: error [runtime-failure] {edges}: {error}\n"

    def test_bad_values_exit_2(self, tmp_path):
        code = main(["--quiet", "consensus", "--values", "1,abc",
                     "--out", str(tmp_path / "o")])
        assert code == 2


@pytest.mark.filterwarnings("error")
class TestNoRuntimeWarnings:
    """An overflow that the library checks or records reaches the output,
    not stderr as a numpy RuntimeWarning (turned into an error here)."""

    def test_consensus_overflowing_dispersion(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["consensus", "--values", "1e308,-1e308,1e308", "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "converged after 2 iterations; agreed value 3.333333333333333e+307\n"
            f"mse history written to {out / 'consensus_mse.csv'}\n", "")
        assert (out / "consensus_mse.csv").read_bytes() == (
            b"iteration,mse\r\n0,inf\r\n1,inf\r\n2,0.0\r\n")

    def test_consensus_near_the_float_limit(self, tmp_path, capsys):
        # the sum of the values overflows, their mean does not
        out = tmp_path / "out"
        assert main(["consensus", "--values", "1.7e308,1.7e308,1.7e308", "--out", str(out)]) == 0
        assert capsys.readouterr() == (
            "converged after 0 iterations; agreed value 1.7e+308\n"
            f"mse history written to {out / 'consensus_mse.csv'}\n", "")
        assert (out / "consensus_mse.csv").read_bytes() == b"iteration,mse\r\n0,0.0\r\n"

    @pytest.mark.parametrize("text, flags, tick", [
        ("0,1e308\n1,-1e308\n", [], 1),                        # the innovation overflows
        ("0,1.0\n", ["--p0", "1e308", "--q", "1e308"], 0),     # the predicted P overflows
    ])
    def test_ekf_overflowing_state(self, tmp_path, capsys, text, flags, tick):
        trace = tmp_path / "big.csv"
        trace.write_text("timestamp,value\n" + text, encoding="utf-8")
        code = main(["ekf", "--trace", str(trace), *flags, "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr() == ("", (
            f"pipefuse: error [runtime-failure] tick {tick}: "
            "filter state contains non-finite values\n"))


def unusable_path(tmp_path, case):
    """The arguments of one command whose input or output path cannot be
    used, and that path."""
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    missing = tmp_path / "missing.csv"
    trace = str(FIXTURES / "ekf_20_samples.csv")
    # the bundled scenario writes its last four stream files and every fused
    # file from the child process; the first stream file's error comes
    # first, whichever process meets it
    directories = {
        "run last stream is a directory": ["streams/n9_pressure.csv"],
        "run fused file is a directory": ["fused/c0_humidity.csv"],
        "run first stream and last fused file are directories": [
            "streams/n0_pressure.csv", "fused/c1_temperature.csv"],
    }
    if case in directories:
        out = tmp_path / "out"
        for name in directories[case]:
            (out / name).mkdir(parents=True)
        return ["run", "--config", str(SCENARIO), "--out", str(out)], out / directories[case][0]
    return {
        "ekf missing trace": (["ekf", "--trace", str(missing)], missing),
        "ekf out below a file": (["ekf", "--trace", trace, "--out", str(afile / "x")],
                                 afile / "x"),
        "fusvaf trace is a directory": (["fusvaf", "--trace", str(tmp_path)], tmp_path),
        "consensus missing edges": (["consensus", "--values", "1,2", "--edges", str(missing)],
                                    missing),
        "run out is a file": (["run", "--config", str(SCENARIO), "--out", str(afile)], afile),
        "sweep out is a file": (["sweep", "--config", str(SCENARIO), "--out", str(afile),
                                 "--param", "energy.ops_per_bit=1000"], afile),
    }[case]


class TestUnusablePaths:
    @pytest.mark.parametrize("case", [
        "ekf missing trace", "ekf out below a file", "fusvaf trace is a directory",
        "consensus missing edges", "run out is a file", "sweep out is a file",
        "run last stream is a directory", "run fused file is a directory",
        "run first stream and last fused file are directories",
    ])
    def test_exits_3_and_names_the_path(self, tmp_path, capsys, monkeypatch, case):
        args, path = unusable_path(tmp_path, case)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)  # a child writes, even on one CPU
        assert main(["--quiet", *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pipefuse: error [runtime-failure] [Errno ")
        assert f"'{path}'" in err and "Traceback" not in err and err.count("\n") == 1
        monkeypatch.delattr(os, "fork")  # every file from this process
        assert main(["--quiet", *args]) == 3
        assert capsys.readouterr().err == err

    def test_missing_config_still_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.yaml"
        assert main(["validate", "--config", str(missing)]) == 2
        assert f"[config-invalid] {missing}: " in capsys.readouterr().err


LIBRARY_COMMANDS = {
    "ekf": (["--trace", str(FIXTURES / "ekf_20_samples.csv")], ["--q", "--r", "--x0", "--p0"]),
    "fusvaf": (["--trace", str(FIXTURES / "temperature_node_a.csv"),
                "--trace", str(FIXTURES / "temperature_node_b.csv")],
               ["--alpha", "--omega", "--q", "--r", "--k-sigma", "--w-min", "--w-max",
                "--window", "--initial-width"]),
    "consensus": (["--values", "1,2,3"], ["--tol", "--max-iter"]),
}


class TestLibraryCommandFlags:
    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in LIBRARY_COMMANDS.items() for flag in flags
    ])
    def test_odd_numeric_flag_exits_cleanly(self, tmp_path, capsys, command, flag, value):
        args, _ = LIBRARY_COMMANDS[command]
        try:
            code = main(["--quiet", command, *args, flag, value, "--out", str(tmp_path / "o")])
        except SystemExit as exc:  # argparse rejects nan and inf for an integer flag
            code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, error", [
        ("ekf", "--p0", "-1", "p0 must be finite and non-negative, got -1.0"),
        ("ekf", "--q", "inf", "q must be finite and non-negative, got inf"),
        ("consensus", "--tol", "nan", "tol must be positive, got nan"),
        ("fusvaf", "--alpha", "nan", "alpha must be finite and non-negative, got nan"),
        ("fusvaf", "--omega", "inf", "omega must be finite and positive, got inf"),
        ("fusvaf", "--w-max", "0", "w_max must be finite and positive, got 0.0"),
        ("fusvaf", "--w-min", "200", "w_min must not exceed w_max, got 200.0 > 100.0"),
        ("consensus", "--values", "nan", "estimates must be finite, got nan at index 0"),
        ("consensus", "--values", "1,inf", "estimates must be finite, got inf at index 1"),
        ("consensus", "--values", ",", "--values: at least one value required"),
        ("ekf", "--x0", "nan", "x0 must be finite, got nan"),
        ("ekf", "--x0", "inf", "x0 must be finite, got inf"),
    ])
    def test_bad_argument_exits_2_and_names_value(
        self, tmp_path, capsys, command, flag, value, error
    ):
        args, _ = LIBRARY_COMMANDS[command]
        code = main(["--quiet", command, *args, flag, value, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"pipefuse: error [config-invalid] {error}\n"


class TestSweep:
    def test_ops_per_bit_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        cfg = small_scenario(tmp_path, name="a,b")
        code = main(["--quiet", "sweep", "--config", str(cfg),
                     "--param", "energy.ops_per_bit=1000,3000", "--out", str(out)])
        assert code == 0
        assert (out / "energy.ops_per_bit=1000" / "metrics.csv").exists()
        assert (out / "energy.ops_per_bit=3000" / "metrics.csv").exists()
        rows = read_csv(out / "sweep_metrics.csv")
        assert len(rows) == 2
        assert [row["scenario"] for row in rows] == ["a,b", "a,b"]
        ratio = float(rows[1]["radio_energy"]) / float(rows[0]["radio_energy"])
        assert ratio == pytest.approx(3.0)
        # param,value, then each value's own metrics.csv row, column for column
        header = (out / "sweep_metrics.csv").read_text(encoding="utf-8").splitlines()[0]
        for row, value in zip(rows, ["1000", "3000"]):
            path = out / f"energy.ops_per_bit={value}" / "metrics.csv"
            single = path.read_text(encoding="utf-8").splitlines()[0]
            assert header == "param,value," + single
            assert row == {"param": "energy.ops_per_bit", "value": value, **read_csv(path)[0]}

    def test_runtime_failure_names_the_value(self, tmp_path, capsys):
        code = main(["--quiet", "sweep", "--config", str(SCENARIO),
                     "--param", "signals.pressure.drift=0.0,1.0e+306",
                     "--out", str(tmp_path / "sweep")])
        assert code == 3
        assert capsys.readouterr().err == (
            "pipefuse: error [runtime-failure] signals.pressure.drift=1.0e+306: "
            "stream n0:pressure: non-finite value inf at tick 180\n"
        )

    def test_bad_value_exits_2_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["--quiet", "sweep", "--config", str(SCENARIO),
                     "--param", "energy.ops_per_bit=1000,500", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "pipefuse: error [config-invalid] energy.ops_per_bit=500: "
            "energy.ops_per_bit: must be in [1000, 3000], got 500\n"
        )
        assert not out.exists()

    def test_malformed_param_exits_2(self, tmp_path, capsys):
        code = main(["--quiet", "sweep", "--config", str(SCENARIO),
                     "--param", "energy.ops_per_bit", "--out", str(tmp_path / "sweep")])
        assert code == 2
        assert "--param 'energy.ops_per_bit': expected key=v1,v2,..." in capsys.readouterr().err
