"""Command-line contract: exit codes, file outputs, determinism."""

import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gasman.cli import main
from gasman.scenario import ChurnConfig, ScenarioConfig

DATA = Path(__file__).parent / "data"


def write_scenario(tmp_path, name="scenario.json", **overrides):
    base = dict(n_initial=8, m=16, T=5.0, l=10, duration=30.0, seed=7)
    base.update(overrides)
    path = tmp_path / name
    path.write_text(ScenarioConfig(**base).to_json(), encoding="utf-8")
    return path


def run_cli(*args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_outputs_and_exits_zero(tmp_path):
    scenario = write_scenario(tmp_path)
    trace = tmp_path / "out.tsv"
    metrics = tmp_path / "metrics.json"
    code = run_cli("run", "--scenario", scenario, "--trace", trace, "--metrics", metrics)
    assert code == 0
    assert trace.read_text(encoding="utf-8").startswith("0.00\t")
    doc = json.loads(metrics.read_text(encoding="utf-8"))
    assert set(doc["classes"]) == {
        "zkp", "proof_of_life", "insertion", "deletion", "graph_transfer", "cycle_transfer"
    }


def test_run_is_deterministic_at_the_byte_level(tmp_path):
    scenario = write_scenario(
        tmp_path, churn=ChurnConfig(0.1, 0.1, 0.1), duration=60.0, n_initial=10, m=20
    )
    outs = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.tsv"
        metrics = tmp_path / f"metrics_{tag}.json"
        assert run_cli("run", "--scenario", scenario, "--trace", trace, "--metrics", metrics) == 0
        outs.append((trace.read_bytes(), metrics.read_bytes()))
    assert outs[0] == outs[1]


def test_run_seed_override_changes_the_outcome(tmp_path):
    scenario = write_scenario(tmp_path, churn=ChurnConfig(0.2, 0.2, 0.1), duration=40.0)
    t1, t2 = tmp_path / "t1.tsv", tmp_path / "t2.tsv"
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    run_cli("run", "--scenario", scenario, "--seed", 1, "--trace", t1, "--metrics", m1)
    run_cli("run", "--scenario", scenario, "--seed", 2, "--trace", t2, "--metrics", m2)
    assert t1.read_bytes() != t2.read_bytes()


VALID_DOC = json.loads(
    ScenarioConfig(n_initial=8, m=16, T=5.0, l=10, duration=30.0, seed=7).to_json()
)


@pytest.mark.parametrize(
    "text",
    [
        '{"n_initial": 3}',
        *(
            json.dumps({**VALID_DOC, **override})
            for override in (
                {"connectivity": 5},
                {"n_initial": "8"},
                {"churn": {"insertion_request": "x"}},
                {"duration": float("nan")},
                {"T": float("inf")},
                {"n_initial": 8.5, "m": 17},
            )
        ),
    ],
    ids=[
        "too-small", "connectivity-number", "count-string", "probability-string",
        "duration-nan", "T-infinity", "count-float",
    ],
)
def test_run_invalid_scenario_exits_one(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    assert run_cli("run", "--scenario", bad, "--trace", tmp_path / "t", "--metrics", tmp_path / "m") == 1
    assert "error" in capsys.readouterr().err


def test_run_missing_scenario_exits_one(tmp_path):
    assert run_cli(
        "run", "--scenario", tmp_path / "absent.json",
        "--trace", tmp_path / "t", "--metrics", tmp_path / "m",
    ) == 1


@pytest.mark.parametrize("bad", ["trace", "metrics"])
def test_run_reports_an_unwritable_output_and_exits_one(tmp_path, capsys, bad):
    scenario = write_scenario(tmp_path)
    paths = {"trace": tmp_path / "t.tsv", "metrics": tmp_path / "m.json"}
    paths[bad] = tmp_path  # a directory cannot be written as a file
    code = run_cli("run", "--scenario", scenario,
                   "--trace", paths["trace"], "--metrics", paths["metrics"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot write output: ")


def test_run_terminated_life_cycle_exits_two(tmp_path):
    scenario = write_scenario(
        tmp_path, churn=ChurnConfig(0.0, 0.9, 0.0), duration=60.0
    )
    code = run_cli(
        "run", "--scenario", scenario,
        "--trace", tmp_path / "t.tsv", "--metrics", tmp_path / "m.json",
    )
    assert code == 2


# ---------------------------------------------------------------------------
# prove
# ---------------------------------------------------------------------------

def test_prove_honest_accepts(capsys):
    assert run_cli("prove", "--nodes", 11, "--edges", 22, "--rounds", 20, "--seed", 4) == 0
    out = capsys.readouterr().out
    assert "honest proof: accept" in out


def test_prove_cheater_rate_printed(capsys):
    code = run_cli(
        "prove", "--nodes", 11, "--edges", 22, "--rounds", 1, "--seed", 4,
        "--cheat", "--trials", 1000,
    )
    assert code == 0
    out = capsys.readouterr().out
    rate = float(out.split("cheater accept rate: ")[1].split()[0])
    assert abs(rate - 0.5) < 0.06


def test_prove_rejects_bad_parameters(capsys):
    assert run_cli("prove", "--nodes", 11, "--edges", 21, "--rounds", 5, "--seed", 1) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--trials", 0), ("--trials", -3), ("--rounds", 0)])
def test_prove_rejects_a_count_below_one_before_any_proof(capsys, flag, value):
    counts = {"--rounds": 5, "--trials": 10, flag: value}
    argv = ["prove", "--nodes", 11, "--edges", 22, "--seed", 4, "--cheat"]
    assert run_cli(*argv, *itertools.chain.from_iterable(counts.items())) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {flag} must be at least 1, got {value}\n"


# ---------------------------------------------------------------------------
# trace-check
# ---------------------------------------------------------------------------

def test_trace_check_accepts_recorded_fixture():
    assert run_cli("trace-check", DATA / "table1_trace.tsv") == 0


def test_trace_check_rejects_skipped_splice(tmp_path, capsys):
    lines = (DATA / "table1_trace.tsv").read_text(encoding="utf-8").splitlines()
    # Drop the deletion line: the last snapshot then differs by two edits.
    broken = [l for l in lines if not l.startswith("64.26")]
    bad = tmp_path / "broken.tsv"
    bad.write_text("\n".join(broken) + "\n", encoding="utf-8")
    assert run_cli("trace-check", bad) == 1
    assert "line 7" in capsys.readouterr().err


def test_trace_check_rejects_malformed_line(tmp_path, capsys):
    bad = tmp_path / "mangled.tsv"
    bad.write_text("no tabs at all\n", encoding="utf-8")
    assert run_cli("trace-check", bad) == 1
    assert "line 1" in capsys.readouterr().err
    bad.write_text("whenever\tevent\t1,2,3\n", encoding="utf-8")
    assert run_cli("trace-check", bad) == 1


@pytest.mark.parametrize(
    "text",
    ["nan\tstart\t\n", "0.00\tstart\t\ninf\tevent\t\n", "5.00\tstart\t\n5.00\tevent\t\n4.99\tevent\t\n"],
    ids=["nan", "inf", "decrease"],
)
def test_trace_check_rejects_a_time_that_is_not_finite_or_goes_back(tmp_path, capsys, text):
    bad = tmp_path / "times.tsv"
    bad.write_text(text, encoding="utf-8")
    assert run_cli("trace-check", bad) == 1
    assert capsys.readouterr().err.startswith(f"error: line {text.count(chr(10))}: ")


def reader_commands(path, out_dir):
    """Both commands that read a file named on the command line."""
    return (
        ("trace-check", path),
        ("run", "--scenario", path, "--trace", out_dir / "t.tsv", "--metrics", out_dir / "m.json"),
    )


@pytest.mark.parametrize("data", [b"\xff", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
def test_every_file_reader_reports_an_unreadable_file(tmp_path, capsys, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    for command in reader_commands(path, tmp_path):
        assert run_cli(*command) == 1
        assert capsys.readouterr().err.startswith("error: ")


TRACE_LIKE = st.text(alphabet="0123456789.,-+\t\n naifeNA_", max_size=80).map(str.encode)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.binary(max_size=80) | TRACE_LIKE)
def test_every_file_reader_is_total(tmp_path, capsys, data):
    # Any bytes at all: each reader accepts them or says why not, with no
    # traceback; no file this short is a runnable scenario.
    path = tmp_path / "input"
    path.write_bytes(data)
    for command in reader_commands(path, tmp_path):
        code = run_cli(*command)
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert err.startswith("error: ") if code else err == ""


def test_trace_check_accepts_simulator_output(tmp_path):
    scenario = write_scenario(
        tmp_path, churn=ChurnConfig(0.2, 0.15, 0.1), duration=80.0,
        n_initial=12, m=24, seed=3,
    )
    trace = tmp_path / "sim.tsv"
    run_cli("run", "--scenario", scenario, "--trace", trace, "--metrics", tmp_path / "m.json")
    assert run_cli("trace-check", trace) == 0


# ---------------------------------------------------------------------------
# gen-scenario
# ---------------------------------------------------------------------------

def test_gen_scenario_emits_loadable_sweep(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("gen-scenario", "--preset", "paperV", "--out", out) == 0
    files = sorted(out.glob("*.json"))
    assert len(files) == 4 * 3 * 4  # nodes x churn x (full mesh + 3 areas)
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert ScenarioConfig.from_json(text).to_json() == text, path.name
    sample = ScenarioConfig.from_json(files[0].read_text(encoding="utf-8"))
    assert sample.n_initial in (15, 30, 50, 100)
    names = " ".join(f.name for f in files)
    assert "n15_" in names and "n100_" in names and "area750" in names


def test_gen_scenario_preset_bytes_are_pinned(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli("gen-scenario", "--preset", "paperV", "--out", out) == 0
    h = hashlib.sha256()
    for path in sorted(out.iterdir(), key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == "0cfc648563bca99eca8d74ac40d64ceae1ff2a20104e8862beaffcce226e846f"


def test_gen_scenario_unknown_preset(tmp_path, capsys):
    assert run_cli("gen-scenario", "--preset", "bogus", "--out", tmp_path) == 1
    assert "error" in capsys.readouterr().err


def test_gen_scenario_reports_an_unwritable_directory_and_exits_one(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory", encoding="utf-8")
    for out in (taken, taken / "sweep"):
        assert run_cli("gen-scenario", "--preset", "paperV", "--out", out) == 1
        assert capsys.readouterr().err.startswith("error: cannot write scenarios: ")
    assert taken.read_text(encoding="utf-8") == "not a directory"


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_unknown_flags_are_rejected_with_usage():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--bogus-flag", "x"])
    assert exc.value.code != 0
