"""The scenario loader parses with libyaml when pyyaml has it; these tests
check that it reads every scenario and override exactly as the pure-Python
loader with the same resolvers does, that it reads an exponent without a dot
as a float, and that YAML 1.1's base-60 and leading-zero octal forms stay
strings."""

import copy
from pathlib import Path

import numpy as np
import pytest
import yaml

from pipefuse.cli import main
from pipefuse.core import ConfigError
from pipefuse.sim import apply_overrides, config, load_scenario, scenario_from_dict

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.yaml"))

needs_libyaml = pytest.mark.skipif(
    not hasattr(yaml, "CSafeLoader"), reason="pyyaml was built without libyaml"
)


class PureLoader(yaml.SafeLoader):
    """The pure-Python parser with the scenario loader's resolvers."""

    yaml_implicit_resolvers = config._Loader.yaml_implicit_resolvers


def both_loaders(text):
    return yaml.load(text, Loader=config._Loader), yaml.load(text, Loader=PureLoader)


def bench_style_variants():
    """Scenario dicts shaped like the benchmark's: the bundled scenario under
    other seeds, and an all-raw long run with seeded float event locations."""
    base = yaml.safe_load(SCENARIOS[0].read_text(encoding="utf-8"))
    rng = np.random.default_rng(42)
    variants = []
    for seed in [42] + [int(s) for s in rng.integers(0, 2**31 - 1, size=7)]:
        data = copy.deepcopy(base)
        data["seed"] = seed
        variants.append(data)
    raw = copy.deepcopy(base)
    raw.update(name="raw_long", horizon=4800)
    raw["fusion"].update(node_ekf=False, cluster_fusvaf=False, consensus_policy="off")
    raw["events"] = [
        {"kind": "leak", "start": 1230, "end": 1240,
         "location": round(float(rng.uniform(20.0, 160.0)), 1), "magnitude": 40.0,
         "radius": 50.0},
        {"kind": "intrusion", "start": 3010, "end": 3030,
         "location": round(float(rng.uniform(0.0, 180.0)), 1)},
    ]
    variants.append(raw)
    return variants


@needs_libyaml
@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
def test_loaders_agree_on_bundled_scenarios(path):
    fast, pure = both_loaders(path.read_text(encoding="utf-8"))
    assert fast == pure


@needs_libyaml
@pytest.mark.parametrize("sort_keys", [True, False])
def test_loaders_agree_on_dumped_bench_style_variants(sort_keys):
    for data in bench_style_variants():
        text = yaml.safe_dump(data, sort_keys=sort_keys)
        fast, pure = both_loaders(text)
        assert fast == pure == data
        assert scenario_from_dict(fast) == scenario_from_dict(pure)


@needs_libyaml
@pytest.mark.parametrize("raw", [
    "1e3", ".5", "1_000", "0x1f", "yes", "null", "~", "[1, 2]", "'abc'", "-.inf",
    "-2E+3", "1.0e5", "'1e-12'", "1.5e", "1:00:00", "12:30", "017", "0b101", "-0",
])
def test_loaders_agree_on_override_scalars(raw):
    fast, pure = both_loaders(raw)
    assert fast == pure and type(fast) is type(pure)
    out = apply_overrides({"fusion": {}}, [f"fusion.ekf_q={raw}"])
    assert out["fusion"]["ekf_q"] == pure and type(out["fusion"]["ekf_q"]) is type(pure)


def test_load_scenario_equals_pure_python_parse():
    path = SCENARIOS[0]
    pure = yaml.load(path.read_text(encoding="utf-8"), Loader=PureLoader)
    assert load_scenario(path) == scenario_from_dict(pure, name=path.stem)


def test_unparsable_scenario_exits_2_and_names_its_path(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("seed: 1\ntopology: [unclosed\n", encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"pipefuse: error [config-invalid] {path}: invalid YAML: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("raw, value", [
    ("1e-12", 1e-12), ("1E3", 1000.0), ("-2e+3", -2000.0), ("1.0e5", 1e5), ("1.e-2", 0.01),
    ("'1e-12'", "1e-12"), ("1.5e", "1.5e"), ("e5", "e5"), ("1e3.5", "1e3.5"),
])
def test_exponent_without_dot_is_a_float(raw, value):
    # YAML 1.1 reads 1e-12 as text; the scenario loader reads it as YAML 1.2 does
    got = yaml.load(raw, Loader=config._Loader)
    assert got == value and type(got) is type(value)


def test_override_with_exponent_without_dot():
    path = SCENARIOS[0]
    scenario = load_scenario(path, ["fusion.consensus_tol=1e-12"])
    assert scenario.fusion.consensus_tol == 1e-12
    with pytest.raises(ConfigError) as quoted:
        load_scenario(path, ["fusion.consensus_tol='1e-12'"])
    assert quoted.value.errors == ["fusion.consensus_tol: expected a finite number, got '1e-12'"]


def test_scenario_file_with_exponent_without_dot(tmp_path, capsys):
    text = SCENARIOS[0].read_text(encoding="utf-8")
    line = "  consensus_policy: on_detection\n"
    assert line in text
    path = tmp_path / "tol.yaml"
    path.write_text(text.replace(line, line + "  consensus_tol: 1e-9\n"), encoding="utf-8")
    bundled = load_scenario(SCENARIOS[0])
    assert bundled.fusion.consensus_tol == 1e-9  # the default, written 1e-9 in the README
    scenario = load_scenario(path)
    assert type(scenario.fusion.consensus_tol) is float
    assert scenario == bundled
    assert main(["--quiet", "validate", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""



@pytest.mark.parametrize("raw, value", [
    # YAML 1.1 reads these as 3600, 750, 90.5, 15, -15 and 0
    ("1:00:00", "1:00:00"), ("12:30", "12:30"), ("1:30.5", "1:30.5"), ("017", "017"),
    ("-017", "-017"), ("00", "00"),
    # and these as the same numbers as before
    ("0", 0), ("-0", 0), ("+17", 17), ("1_000", 1000), ("0x1f", 31), ("-0b101", -5),
    ("017.5", 17.5), ("0.5", 0.5), (".5", 0.5), ("-.inf", float("-inf")), ("1e-12", 1e-12),
    ("'017'", "017"), ("!!int 017", 15),
])
def test_base_60_and_leading_zero_octal_are_strings(raw, value):
    got = yaml.load(raw, Loader=config._Loader)
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("override, error", [
    ("horizon=1:00:00", "horizon: expected a positive integer, got '1:00:00'"),
    ("seed=017", "seed: expected a non-negative integer, got '017'"),
])
def test_override_in_base_60_or_octal_is_refused(override, error, tmp_path, capsys):
    with pytest.raises(ConfigError) as exc:
        load_scenario(SCENARIOS[0], [override])
    assert exc.value.errors == [error]
    code = main(["run", "--config", str(SCENARIOS[0]), "--override", override,
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"pipefuse: error [config-invalid] {error}\n"


def test_gateway_id_in_base_60_form_is_a_string_id():
    scenario = load_scenario(SCENARIOS[0], ["topology.gateway_id=12:30"])
    assert scenario.topology.gateway_id == "12:30"
    assert scenario == load_scenario(SCENARIOS[0], ["topology.gateway_id='12:30'"])


def test_scenario_file_with_octal_seed_is_refused(tmp_path):
    text = SCENARIOS[0].read_text(encoding="utf-8")
    assert "\nseed: 42\n" in text
    path = tmp_path / "octal.yaml"
    path.write_text(text.replace("\nseed: 42\n", "\nseed: 042\n"), encoding="utf-8")
    with pytest.raises(ConfigError) as exc:
        load_scenario(path)
    assert exc.value.errors == ["seed: expected a non-negative integer, got '042'"]
