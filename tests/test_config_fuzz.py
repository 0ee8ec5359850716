"""Fuzzing the scenario file: random mutations of the bundled scenario must
end in a clean exit of `validate` and `run` (0, 2 for a config error, 3 for
a numeric failure), never in an uncaught exception."""

import contextlib
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import example, given, settings, strategies as st

from pipefuse.cli import main
from pipefuse.sim.config import MAX_HORIZON

ROOT = Path(__file__).resolve().parent.parent
SCENARIO = ROOT / "scenarios" / "baseline_10node.yaml"
DROP = "<drop>"
# type swaps, non-finite, negative, tiny and huge values; safe_dump writes
# "1e308" plain, which the scenario loader reads as a float, while "1.5e"
# stays a string; 10**400 is an integer too large for a float
ODD_VALUES = [
    None, True, "abc", "1e308", "1.5e", [], {}, [1], 0, -1, 2**63, 10**400, 0.0, -1.0,
    5e-324, 1.0e306, 1.0e308, 1.7e308, -1.7e308, float("inf"), float("-inf"), float("nan"),
]


def small_baseline() -> dict:
    """The bundled scenario on a 60-tick horizon, events and patrol moved in."""
    data = yaml.safe_load(SCENARIO.read_text(encoding="utf-8"))
    data["horizon"] = 60
    data["events"][0].update({"start": 20, "end": 30})
    data["events"][1].update({"start": 40, "end": 50})
    data["topology"]["uav"]["patrol"][0].update({"start": 30, "end": 55})
    return data


def key_paths(node, prefix=()):
    """Every key and list index below node, as tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


PATHS = sorted(key_paths(small_baseline()), key=str)


def mutate(data: dict, path: tuple, value) -> None:
    """Drop or replace the entry at path; a path an earlier mutation removed
    is left alone. The horizon gets no positive integer that validation
    accepts, so that every run stays small; one above MAX_HORIZON is set."""
    target = data
    for key in path[:-1]:
        try:
            target = target[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    if isinstance(target, dict):
        present = key in target
    else:
        present = isinstance(target, list) and isinstance(key, int) and key < len(target)
    if not present or (path == ("horizon",) and type(value) is int
                       and 0 < value <= MAX_HORIZON):
        return
    if value == DROP:
        del target[key]
    else:
        target[key] = value


def run_cli(args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    return code, err.getvalue()


mutations = st.lists(
    st.tuples(st.sampled_from(PATHS), st.sampled_from([DROP] + ODD_VALUES)),
    min_size=1,
    max_size=3,
)


@given(mutations)
@example([(("signals", "pressure", "drift"), 1.0e306)])
@example([(("signals", "pressure", "noise_std"), 1.0e308)])
@example([(("signals", "pressure", "baseline"), 1.7e308)])
@example([(("signals", "temperature", "baseline"), 1.7e308)])
@example([(("horizon",), -3)])
@example([(("horizon",), 10**400)])
@example([(("horizon",), 2**62)])
@example([(("energy", "sample_bits"), 10**400)])
# a relayed window mean of -inf, which the leak detector fires on at once
@example([(("signals", "pressure", "noise_std"), 3.0e307), (("fusion", "cluster_fusvaf"), False),
          (("detection", "leak_persistence"), 1)])
@example([(("signals", "pressure", "noise_std"), "1e308")])
@example([(("topology", "cluster_heads", 1, "cluster_id"), "n0")])
@example([(("topology", "gateway_id"), "n3")])
@example([(("topology", "gateway_id"), None)])
@example([(("topology", "nodes", 0, "sensors"), ["pressure", "pressure"])])
@example([(("topology", "cluster_heads"), 5)])
@example([(("topology", "nodes"), 5)])
# a typo under topology.uav: rejected, as an unknown key of every other section is
@example([(("topology", "uav"), {"patrl": [{"cluster_id": "c1", "start": 30, "end": 55}]})])
@settings(max_examples=80, deadline=None)
def test_mutated_scenario_exits_cleanly(changes):
    data = small_baseline()
    for path, value in changes:
        mutate(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.yaml"
        config.write_text(yaml.safe_dump(data), encoding="utf-8")
        code, err = run_cli(["--quiet", "validate", "--config", str(config)])
        assert code in (0, 2), err
        run_code, err = run_cli(
            ["--quiet", "run", "--config", str(config), "--out", str(Path(tmp) / "out")]
        )
        assert run_code in (0, 2, 3), err
        # validate and run read the same file, so they agree on its validity
        assert (code == 2) == (run_code == 2), err
        assert "Traceback" not in err
