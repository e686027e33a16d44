"""CLI subcommands: artifact layout, determinism, stream replay."""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import stdlens
from stdlens.cli import main
from stdlens.replay import read_stream, stream_dump_hook, write_contributions

SRC = str(Path(stdlens.__file__).resolve().parents[1])
CANONICAL = str(Path(__file__).resolve().parents[1] / "configs" / "class_poison.yaml")

TINY_YAML = """\
federation:
  num_clients: 10
  rounds: 10
  participation_fraction: 0.4
  malicious_fraction: 0.2
  forensic_window: 5
  master_seed: 7
task:
  num_classes: 3
  feature_dim: 10
  num_anchors: 2
  samples_per_client: 12
  test_samples: 60
attack:
  poison_type: class
  source_class: 0
  target_class: 1
"""


@pytest.fixture
def tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_YAML)
    return str(path)


def _invoke(*args):
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0, result.output
    return result


def test_run_writes_documented_artifacts(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    _invoke("run", "--config", tiny_yaml, "--out", str(out))
    for name in ("runlog.jsonl", "ap_curves.csv", "timings.csv", "score.json"):
        assert (out / name).exists()
    score = json.loads((out / "score.json").read_text())
    assert set(score) >= {"precision_at_max_recall", "max_recall",
                          "time_to_purge"}
    header = (out / "ap_curves.csv").read_text().splitlines()[0]
    assert header == "round,ap_0,ap_1,ap_2"
    timings = (out / "timings.csv").read_text().splitlines()
    assert timings[0] == "round,duration_s,data_s,train_s,aggregate_s,defense_s,eval_s"
    assert len(timings) == 11
    for line in timings[1:]:
        duration, *phases = map(float, line.split(",")[1:])
        assert min(phases) >= 0.0
        # each printed value is rounded to 6 decimals
        assert sum(phases) <= duration + 6 * 0.5e-6


def test_run_is_byte_deterministic(tiny_yaml, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _invoke("run", "--config", tiny_yaml, "--out", str(a))
    _invoke("run", "--config", tiny_yaml, "--out", str(b))
    for name in ("runlog.jsonl", "ap_curves.csv", "score.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_override_changes_log(tiny_yaml, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _invoke("run", "--config", tiny_yaml, "--out", str(a))
    _invoke("run", "--config", tiny_yaml, "--seed", "99", "--out", str(b))
    assert (a / "runlog.jsonl").read_bytes() != (b / "runlog.jsonl").read_bytes()


def test_run_rejects_invalid_config(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("federation:\n  num_clients: 10\n  malicious_fraction: 0.5\n")
    result = CliRunner().invoke(main, ["run", "--config", str(bad),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "m must be < 0.5" in result.output


@pytest.mark.parametrize("text", ["federation: [\n", "federation: 5\n",
                                  'federation:\n  num_clients: "ten"\n'])
def test_run_reports_a_malformed_config_without_a_traceback(tmp_path, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    result = CliRunner().invoke(main, ["run", "--config", str(bad),
                                       "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert result.output.startswith("Error: ")
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_that_revokes_every_client_writes_the_partial_log(tmp_path):
    config = tmp_path / "exhausted.yaml"
    config.write_text(TINY_YAML.replace("rounds: 10", "rounds: 20"))
    out = tmp_path / "out"
    _invoke("run", "--config", str(config), "--defense", "spectral", "--out", str(out))
    records = (out / "runlog.jsonl").read_text().splitlines()[1:]
    assert [json.loads(line)["round"] for line in records] == list(range(10))
    score = json.loads((out / "score.json").read_text())
    assert (score["true_positives"], score["false_positives"]) == (2, 8)


def test_compare_defenses_csv(tiny_yaml, tmp_path):
    out = tmp_path / "cmp"
    _invoke("compare-defenses", "--config", tiny_yaml, "--out", str(out),
            "--seed", "1", "--defense", "none", "--defense", "spectral")
    csv_text = (out / "comparison.csv").read_text()
    assert csv_text.splitlines()[0].startswith("defense,seed,")
    assert len(csv_text.splitlines()) == 3
    assert (out / "comparison.txt").exists()


def test_compare_defenses_requires_attack(tmp_path):
    benign = tmp_path / "benign.yaml"
    benign.write_text("federation:\n  num_clients: 10\n"
                      "  participation_fraction: 0.4\n")
    result = CliRunner().invoke(main, ["compare-defenses", "--config",
                                       str(benign), "--out", str(tmp_path / "o")])
    assert result.exit_code != 0


def test_compare_defenses_rejects_an_unknown_defense(tiny_yaml, tmp_path):
    # the bad name comes second: every name is checked before any run
    out = tmp_path / "cmp"
    result = CliRunner().invoke(main, ["compare-defenses", "--config", tiny_yaml,
                                       "--out", str(out), "--defense", "none",
                                       "--defense", "bogus"])
    assert result.exit_code == 1
    assert "defense name must be one of" in result.output
    assert not out.exists()


def test_attack_sweep_grid(tiny_yaml, tmp_path):
    out = tmp_path / "sweep"
    _invoke("attack-sweep", "--config", tiny_yaml, "--out", str(out),
            "--defense", "none", "--gamma", "0.5,1.0")
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("m,beta,gamma,onset,")


@pytest.mark.parametrize("flag, values, message", [
    ("--m", "0.2,0.15", "m*N must be an integer count of clients"),
    ("--beta", "0.1,abc", "could not convert string to float: 'abc'"),
    ("--beta", ",", "a grid list has no values"),
    ("--gamma", "0.5,0.01", "round(gamma*samples_per_client) must be >= 1"),
], ids=["m", "beta", "empty", "gamma"])
def test_attack_sweep_rejects_an_invalid_grid_value(tiny_yaml, tmp_path, flag,
                                                    values, message):
    # the bad value comes second (or there is none): the grid is checked
    # before any run
    out = tmp_path / "sweep"
    result = CliRunner().invoke(main, ["attack-sweep", "--config", tiny_yaml,
                                       "--out", str(out), flag, values])
    assert result.exit_code != 0
    assert message in result.output
    assert not out.exists()


def test_verify_stats_report(tmp_path):
    out = tmp_path / "stats"
    _invoke("verify-stats", "--trials", "3", "--samples", "1000",
            "--out", str(out))
    text = (out / "verify_stats.txt").read_text()
    assert "separable in" in text
    assert len(text.splitlines()) == 5


@pytest.mark.parametrize("flag, value", [("--samples", "10"), ("--trials", "-3")])
def test_verify_stats_rejects_an_out_of_range_count(tmp_path, flag, value):
    out = tmp_path / "stats"
    result = CliRunner().invoke(main, ["verify-stats", flag, value, "--out", str(out)])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, flag", [
    (["run", "--config", "{yaml}", "--out", "{yaml}"], "--out"),
    (["compare-defenses", "--config", "{yaml}", "--out", "{yaml}"], "--out"),
    (["attack-sweep", "--config", "{yaml}", "--out", "{yaml}"], "--out"),
    (["verify-stats", "--out", "{yaml}"], "--out"),
    (["replay", "--stream", "{yaml}", "--out", "{yaml}"], "--out"),
    (["replay", "--stream", "{dir}", "--out", "{dir}/rep"], "--stream"),
    (["run", "--config", "{dir}", "--out", "{dir}/out"], "--config"),
], ids=["run-out", "compare-defenses-out", "attack-sweep-out", "verify-stats-out",
        "replay-out", "replay-stream", "run-config"])
def test_a_path_of_the_wrong_kind_is_rejected_before_any_work(tiny_yaml, tmp_path,
                                                              args, flag):
    # an existing file where a directory goes, or a directory where a file goes
    before = sorted(tmp_path.iterdir())
    result = CliRunner().invoke(main, [a.format(yaml=tiny_yaml, dir=tmp_path)
                                       for a in args])
    assert result.exit_code == 2
    assert f"Invalid value for '{flag}'" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("defense", ["stdlens", "spatial", "spectral"])
def test_stream_dump_and_replay(tiny_yaml, tmp_path, defense):
    out = tmp_path / "run"
    _invoke("run", "--config", tiny_yaml, "--defense", defense, "--out", str(out),
            "--dump-stream")
    stream = out / "gradient_stream.jsonl"
    assert stream.exists()
    rep = tmp_path / "rep"
    _invoke("replay", "--stream", str(stream), "--config", tiny_yaml,
            "--defense", defense, "--out", str(rep))
    verdicts = json.loads((rep / "verdicts.json").read_text())
    assert set(verdicts) == {"revocations", "verdicts"}
    records = [json.loads(line)
               for line in (out / "runlog.jsonl").read_text().splitlines()[1:]]
    live = [(rec["round"], cid) for rec in records for cid in rec["revocations"]]
    assert live
    assert [(r["round"], r["client_id"]) for r in verdicts["revocations"]] == live


def _block(values) -> str:
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def _record(**fields):
    """Extra lines: one record of tiny-config shape (a 6*A*d = 120-entry
    block in the stream encoding) with `fields` set; a field set to ... is
    left out."""
    rec = {"round": 0, "client_id": 0, "class_id": 1, "block": _block([0.5] * 120),
           **fields}
    return lambda lines: [json.dumps({k: v for k, v in rec.items() if v is not ...})]


@pytest.mark.parametrize("extra", [
    # the stream is untrusted: a huge class id must not size the defense
    _record(class_id=10 ** 9),
    # the block length comes from the config, not the stream
    _record(block=_block([1.0, 2.0])),
    # from an unknown client, so that a block let through adds a verdict
    _record(client_id=999, block=_block([0.5] * 119)),
    # a block is strict base64 of whole float64 values, and nothing else
    _record(client_id=999, block=[0.5] * 120),
    _record(client_id=999, block="*" + _block([0.5] * 120)),
    _record(client_id=999, block=base64.b64encode(bytes(959)).decode("ascii")),
    _record(client_id=999, block=base64.b64encode(bytes(961)).decode("ascii")),
    _record(class_id="1"),
    _record(round="0"),
    _record(block=...),
    lambda lines: ["{not json"],
    lambda lines: ["[" * 100_000 + "]" * 100_000],
    # a round before the first window must not shift the window boundaries
    _record(round=-1),
    # honest client 7's records once more: only the first of a triple counts
    lambda lines: [line for line in lines if json.loads(line)["client_id"] == 7],
    # a dropped record must not give an unknown client a verdict
    _record(client_id=999, class_id=10 ** 9),
], ids=["huge-class-id", "wrong-length", "one-entry-short", "float-list-block",
        "non-base64-character", "959-bytes", "961-bytes", "string-class-id",
        "string-round", "missing-block", "not-json", "deeply-nested",
        "round-before-the-first-window", "repeated-records",
        "dropped-record-of-an-unknown-client"])
def test_replay_ignores_hostile_lines(tiny_yaml, tmp_path, extra):
    out = tmp_path / "run"
    _invoke("run", "--config", tiny_yaml, "--out", str(out), "--dump-stream")
    clean = out / "gradient_stream.jsonl"
    lines = clean.read_text().splitlines()
    hostile = tmp_path / "hostile.jsonl"
    # the extra lines come first, so each precedes any honest record of
    # its (client, round, class) triple and meets its own check
    hostile.write_text("".join(line + "\n" for line in extra(lines) + lines))
    verdicts = []
    for stream in (clean, hostile):
        rep = tmp_path / stream.stem
        _invoke("replay", "--stream", str(stream), "--config", tiny_yaml,
                "--out", str(rep))
        verdicts.append((rep / "verdicts.json").read_bytes())
    assert json.loads(verdicts[0])["revocations"]
    assert verdicts[1] == verdicts[0]


@pytest.mark.parametrize("text", [
    "",
    # a record of the earlier format, whose block was a list of floats
    json.dumps({"block": [0.5] * 120, "class_id": 1, "client_id": 0, "round": 0}) + "\n",
], ids=["empty", "float-list-block"])
def test_replay_of_a_stream_with_no_usable_record_is_an_error(tiny_yaml, tmp_path, text):
    stream = tmp_path / "stream.jsonl"
    stream.write_text(text)
    rep = tmp_path / "rep"
    result = CliRunner().invoke(main, ["replay", "--stream", str(stream),
                                       "--config", tiny_yaml, "--out", str(rep)])
    assert result.exit_code == 1
    assert result.output == f"Error: {stream}: no usable stream record\n"
    assert not (rep / "verdicts.json").exists()


def test_replay_with_a_config_no_record_fits_is_an_error(tiny_yaml, tmp_path):
    # the tiny config's blocks have 120 entries and the canonical config's
    # 288, so the defense admits no record of the tiny run's stream
    out = tmp_path / "run"
    _invoke("run", "--config", tiny_yaml, "--out", str(out), "--dump-stream")
    stream = out / "gradient_stream.jsonl"
    rep = tmp_path / "rep"
    result = CliRunner().invoke(main, ["replay", "--stream", str(stream),
                                       "--config", CANONICAL, "--out", str(rep)])
    assert result.exit_code == 1
    assert result.output == (f"Error: {stream}: no stream record fits the config "
                             "(block length or class id)\n")
    assert not (rep / "verdicts.json").exists()


def test_import_loads_no_package_beyond_the_declared_dependencies():
    # a heavy transitive import (such as a scientific stack beside numpy)
    # costs every process its import time and resident memory
    code = """
import sys
def loaded():
    return {m.split(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
import numpy, click, yaml
before = loaded()
import stdlens, stdlens.cli
print(" ".join(sorted(loaded() - before - {"stdlens"})))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_dumped_stream_round_trips_byte_for_byte(tiny_yaml, tmp_path):
    out = tmp_path / "run"
    _invoke("run", "--config", tiny_yaml, "--out", str(out), "--dump-stream")
    dumped = out / "gradient_stream.jsonl"
    rewritten = tmp_path / "rewritten.jsonl"
    write_contributions(rewritten, read_stream(dumped))
    assert rewritten.read_bytes() == dumped.read_bytes()


def test_dump_file_is_closed_when_the_run_raises(tiny_yaml, tmp_path, monkeypatch):
    hooks = []

    def recording_hook(path, num_classes):
        hooks.append(stream_dump_hook(path, num_classes))
        return hooks[-1]

    def failing_evaluation(weights, test):
        raise RuntimeError("evaluation failed")

    monkeypatch.setattr("stdlens.cli.stream_dump_hook", recording_hook)
    # round 0 is dumped before it is evaluated, so the run fails after one round
    monkeypatch.setattr("stdlens.engine.evaluate_per_class_ap", failing_evaluation)
    out = tmp_path / "run"
    result = CliRunner().invoke(main, ["run", "--config", tiny_yaml, "--out", str(out),
                                       "--dump-stream"])
    assert isinstance(result.exception, RuntimeError)
    (hook,) = hooks
    assert hook.close.__self__.closed        # hook.close is the file's close
    records = [json.loads(line)
               for line in (out / "gradient_stream.jsonl").read_text().splitlines()]
    # 4 of 10 clients take part, with one record per class (3)
    assert len(records) == 4 * 3
    assert {rec["round"] for rec in records} == {0}
    # the round flushed before the crash reads back whole
    (contribs,) = read_stream(out / "gradient_stream.jsonl")
    assert len(contribs) == 4 * 3
    assert all(g.round == 0 and g.block.dtype == np.float64 and g.block.shape == (120,)
               for g in contribs)
