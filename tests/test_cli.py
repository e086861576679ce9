"""CLI smoke and behaviour tests."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main


def _gradients(n=5000, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) * 0.02).astype(np.float32)


def test_compress_decompress_roundtrip(tmp_path, capsys):
    src = tmp_path / "grads.npy"
    np.save(src, _gradients())
    packed = tmp_path / "grads.incgrad"
    out = tmp_path / "restored.npy"

    assert main(["compress", str(src), str(packed), "--bound", "10"]) == 0
    assert "x)" in capsys.readouterr().out
    assert main(["decompress", str(packed), str(out)]) == 0
    restored = np.load(out)
    assert np.max(np.abs(restored - _gradients())) < 2**-10


def test_compress_raw_float32(tmp_path):
    src = tmp_path / "grads.f32"
    src.write_bytes(_gradients().tobytes())
    packed = tmp_path / "grads.incgrad"
    assert main(["compress", str(src), str(packed)]) == 0
    assert packed.stat().st_size < src.stat().st_size


def test_compress_misaligned_raw_rejected(tmp_path):
    src = tmp_path / "bad.f32"
    src.write_bytes(b"\x00" * 7)
    with pytest.raises(SystemExit):
        main(["compress", str(src), str(tmp_path / "x.incgrad")])


def test_stats_reports_all_bounds(tmp_path, capsys):
    src = tmp_path / "grads.npy"
    np.save(src, _gradients())
    assert main(["stats", str(src)]) == 0
    out = capsys.readouterr().out
    for marker in ("2^-10", "2^-8", "2^-6", "ratio"):
        assert marker in out


def test_simulate_prints_times(capsys):
    assert main(
        ["simulate", "--model", "HDC", "--configuration", "INC+C", "--workers", "4"]
    ) == 0
    out = capsys.readouterr().out
    assert "iteration" in out and "communication" in out


def test_train_smoke(capsys):
    assert main(
        ["train", "--strategy", "ring", "--iterations", "5", "--workers", "2"]
    ) == 0
    out = capsys.readouterr().out
    assert "top-1" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_exchange_with_trace_writes_valid_file(tmp_path, capsys):
    from repro.obs import load_trace

    out = tmp_path / "trace.json"
    chrome = tmp_path / "chrome.json"
    assert main([
        "exchange", "--workers", "4", "--iterations", "1",
        "--mbytes", "1", "--trace", str(out), "--trace-chrome", str(chrome),
    ]) == 0
    doc = load_trace(out)  # load_trace validates
    assert doc["meta"]["command"] == "exchange"
    assert doc["meta"]["workers"] == 4
    assert doc["events"]
    import json

    assert json.loads(chrome.read_text())["traceEvents"]


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_exchange_rejects_zero_iterations(fidelity):
    # Used to die with a ZeroDivisionError traceback in per_iteration_s.
    with pytest.raises(SystemExit, match="at least one iteration"):
        main(["exchange", "--iterations", "0", "--fidelity", fidelity])


def test_exchange_times_any_registered_strategy(capsys):
    assert main([
        "exchange", "--algorithm", "hierarchy", "--group-size", "2",
        "--workers", "4", "--mbytes", "1",
    ]) == 0
    assert capsys.readouterr().out.startswith("hierarchy x4 @ 10 Gb/s")
    assert main([
        "exchange", "--algorithm", "stale_async", "--staleness", "0",
        "--workers", "4", "--mbytes", "1",
    ]) == 0
    assert capsys.readouterr().out.startswith("stale_async x4")


def test_exchange_flow_fidelity_rejects_other_strategies():
    with pytest.raises(SystemExit, match="does not model: strategy 'async_ps'"):
        main(["exchange", "--algorithm", "async_ps", "--fidelity", "flow"])


def test_exchange_simulates_the_bytes_it_was_asked_for(capsys):
    # int(8.2 * 1e6) is 8 199 999: the request was silently one byte
    # short and the ring dropped three more to reach whole float32s.
    assert main(["exchange", "--mbytes", "8.2", "--fidelity", "flow"]) == 0
    assert "8.2 MB gradients" in capsys.readouterr().out
    with pytest.raises(SystemExit, match="whole number"):
        main(["exchange", "--mbytes", "1.000001", "--fidelity", "flow"])


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_exchange_measures_the_stream_ratio_once(fidelity, monkeypatch, capsys):
    # The printed ratio is the one the run used: measured once, not again
    # to print it (each measurement runs the codec on a sampled gradient).
    import repro.perfmodel.exchange
    import repro.transport.wire

    ratios = []
    measure = repro.transport.wire.measure_stream_ratio

    def spy(stream, *args, **kwargs):
        ratios.append(measure(stream, *args, **kwargs))
        return ratios[-1]

    monkeypatch.setattr(repro.transport.wire, "measure_stream_ratio", spy)
    monkeypatch.setattr(repro.perfmodel.exchange, "measure_stream_ratio", spy)
    argv = ["exchange", "--mbytes", "1", "--codec", "inceptionn"]
    assert main([*argv, "--fidelity", fidelity]) == 0
    assert len(ratios) == 1
    assert f"measured ratio {ratios[0]:10.2f}x" in capsys.readouterr().out


@pytest.mark.parametrize("spec", ["leaf-spine:hosts=0", "fat-tree:k=inf"])
def test_exchange_rejects_bad_topology_counts(spec):
    # Used to escape as ZeroDivisionError / OverflowError tracebacks.
    with pytest.raises(SystemExit, match="topology parameter"):
        main(["exchange", "--topology", spec])


def test_train_with_trace_writes_valid_file(tmp_path, capsys):
    from repro.obs import load_trace

    out = tmp_path / "trace.json"
    assert main([
        "train", "--workers", "4", "--codec", "inceptionn", "--iterations", "2",
        "--trace", str(out),
    ]) == 0
    doc = load_trace(out)
    assert doc["meta"]["command"] == "train"
    assert doc["meta"]["codec"] == "inceptionn"
    # Compressed run: every traced message is on the compression ToS.
    sends = [e for e in doc["events"] if e["name"] == "msg.send"]
    assert sends and all(e["args"]["compressed"] for e in sends)


def test_exchange_trace_validate_summary_chrome(tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main([
        "exchange", "--workers", "4", "--mbytes", "1",
        "--codec", "inceptionn", "--trace", str(out),
    ]) == 0
    assert main(["trace", "validate", str(out)]) == 0
    assert "valid repro.trace v1" in capsys.readouterr().out
    assert main(["trace", "summary", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "msg.send" in summary and "counters:" in summary
    chrome = tmp_path / "chrome.json"
    assert main(["trace", "chrome", str(out), str(chrome)]) == 0
    import json

    assert json.loads(chrome.read_text())["traceEvents"]


def test_trace_validate_rejects_corrupt_file(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.trace", "version": 1}))
    assert main(["trace", "validate", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out


def test_trace_schema_prints_json(capsys):
    import json

    assert main(["trace", "schema"]) == 0
    schema = json.loads(capsys.readouterr().out)
    assert schema["title"].startswith("repro.trace")


def test_strategies_lists_the_registry(capsys):
    assert main(["strategies"]) == 0
    out = capsys.readouterr().out
    for name in ("ring", "wa", "async_ps", "hierarchy", "local_sgd",
                 "stale_async"):
        assert name in out
    # Server-backed strategies advertise their extra node.
    assert "4+1" in out


def test_codecs_listing_keeps_the_ratio_column_aligned(capsys):
    # The capabilities column is as wide as its longest entry, so no
    # row runs into the ratio column.
    from repro.core import available_codecs

    assert main(["codecs"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    column = header.index("ratio")
    assert len(rows) == len(available_codecs())
    for row in rows:
        assert row[column - 1] == " " and row[column] != " ", row
        assert float(row[column:].split()[0]) >= 1.0, row


def test_train_strategy_local_sgd(capsys):
    assert main([
        "train", "--strategy", "local_sgd", "--sync-period", "2",
        "--iterations", "4", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("local_sgd")
    assert "2 sync rounds" in out


def test_train_strategy_stale_async(capsys):
    assert main([
        "train", "--strategy", "stale_async", "--staleness", "1",
        "--iterations", "3", "--workers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("stale_async")
    assert "mean staleness" in out


def test_train_unknown_strategy_rejected():
    with pytest.raises(SystemExit, match="unknown strategy"):
        main(["train", "--strategy", "bogus", "--iterations", "2"])


def test_train_strategy_is_the_only_selector(capsys):
    assert main([
        "train", "--strategy", "wa", "--iterations", "3", "--workers", "2",
    ]) == 0
    assert capsys.readouterr().out.startswith("wa")
    removed_flags = (
        ["train", "--algorithm", "wa"], ["train", "--jitter", "0.5"], ["bench"],
    )
    for removed in removed_flags:
        with pytest.raises(SystemExit) as usage:
            main(removed)
        assert usage.value.code == 2


def test_train_lossy_run_defaults_to_retransmission(capsys):
    # Retransmission is always on: --loss-rate without --retransmit
    # recovers lost trains at the default timeout.
    assert main([
        "train", "--strategy", "ring", "--iterations", "2", "--workers", "2",
        "--loss-rate", "0.01",
    ]) == 0
    assert "top-1" in capsys.readouterr().out


#: Every leaf subcommand's long options and their parsed defaults.
CLI_DEFAULTS = {
    ("compress",): {"--bound": 10},
    ("decompress",): {},
    ("stats",): {"--bounds": [10, 8, 6]},
    ("simulate",): {
        "--model": "AlexNet", "--configuration": "INC+C", "--workers": 4,
        "--gbps": 10.0,
    },
    ("train",): {
        "--strategy": "ring", "--workers": 4, "--iterations": 40,
        "--batch-size": 25, "--lr": 0.02, "--codec": None,
        "--sync-period": 4, "--staleness": None, "--group-size": 2,
        "--seed": 0, "--topology": None, "--agg-site": "endpoint",
        "--loss-rate": 0.0, "--retransmit": None, "--trace": None,
        "--trace-chrome": None,
    },
    ("strategies",): {"--workers": 4},
    ("exchange",): {
        "--algorithm": "ring", "--workers": 4, "--iterations": 1,
        "--mbytes": 10.0, "--gbps": 10.0, "--codec": None,
        "--fidelity": "packet", "--staleness": None, "--group-size": 2,
        "--train-packets": 4400, "--topology": None,
        "--agg-site": "endpoint", "--tenants": None, "--prioritize": False,
        "--tenant-seed": 0, "--loss-rate": 0.0, "--retransmit": None,
        "--trace": None, "--trace-chrome": None,
    },
    ("codecs",): {"--seed": 0},
    ("trace", "validate"): {},
    ("trace", "summary"): {},
    ("trace", "chrome"): {},
    ("trace", "schema"): {},
    ("lint",): {"--format": "human", "--select": None, "--list-rules": False},
    ("sanitize",): {
        "--strategy": None, "--workers": 4, "--iterations": 2, "--seed": 0,
        "--loss-rate": 0.0, "--codec": None, "--topology": None,
        "--agg-site": "endpoint", "--tenants": None, "--prioritize": False,
        "--perturb-seeds": [1, 2, 3],
        "--diff-out": None,
    },
}


def _leaf_parsers(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_parsers(sub, path + (name,))
            return
    yield path, parser


def test_every_subcommand_keeps_its_long_options_and_defaults():
    parser = build_parser()
    seen = {}
    for path, sub in _leaf_parsers(parser):
        positionals = [a for a in sub._actions if not a.option_strings]
        parsed = vars(parser.parse_args([*path, *["X"] * len(positionals)]))
        seen[path] = {
            flag: parsed[action.dest]
            for action in sub._actions
            for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
    assert seen == CLI_DEFAULTS


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--tenants", "gpu:2"], "--tenants: "),
        (["--retransmit", "-5"], "--retransmit: RTO must be positive"),
    ],
)
def test_exchange_names_the_flag_a_bad_value_came_from(argv, message):
    with pytest.raises(SystemExit, match=message):
        main(["exchange", "--mbytes", "1", *argv])


@pytest.mark.parametrize("command", [
    ["train", "--iterations", "1"],
    ["exchange", "--mbytes", "1"],
    ["sanitize", "--iterations", "1"],
])
def test_an_unknown_codec_exits_with_one_line(command):
    # sanitize used to die with a KeyError traceback from get_codec.
    with pytest.raises(SystemExit, match="^--codec: unknown codec 'bogus'"):
        main([*command, "--codec", "bogus"])


@pytest.mark.parametrize("strategy,option", [
    ("async_ps", "max_staleness"), ("stale_async", "staleness_bound"),
])
def test_train_rejects_a_negative_staleness(strategy, option):
    # async_ps used to gate every worker forever at -1 and print
    # "loss nan -> nan" with exit status 0.
    with pytest.raises(SystemExit, match=option):
        main(["train", "--strategy", strategy, "--staleness", "-1",
              "--iterations", "2", "--workers", "2"])


def test_exchange_rejects_a_negative_loss_rate():
    # A negative or NaN rate used to run silently as a lossless fabric.
    with pytest.raises(
        SystemExit, match=r"^drop probability must be in \[0, 1\), got -0.1$"
    ):
        main(["exchange", "--workers", "4", "--loss-rate", "-0.1"])
