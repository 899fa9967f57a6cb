"""The ``repro serve`` / ``repro loadgen`` subcommand shims."""

import json

import pytest

from repro.cli import build_parser, main


def _usage_error_line(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


def test_serve_parser_defaults():
    args = build_parser().parse_args(["serve"])
    assert args.host == "127.0.0.1"
    assert args.port == 8787
    assert args.workers == 1
    assert args.quant_digits == 9
    assert args.warm_scenario == "split"
    assert args.reload_interval == 5.0


def test_loadgen_parser_defaults():
    args = build_parser().parse_args(["loadgen"])
    assert args.qps == 200.0
    assert args.duration == 5.0
    assert args.requests is None
    assert args.seed == 0
    assert args.queries == "Q1,Q6,Q14"
    assert args.connections == 16
    assert args.bench_out == "BENCH_serve.json"
    assert args.p99_gate is None


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["serve", "--workers", "0"], "--workers"),
        (["serve", "--port", "-1"], "--port"),
        # Requests are answered inline: the batching flags are gone
        # and argparse rejects them as unrecognized arguments.
        (["serve", "--batch-window", "0"], "--batch-window"),
        (["serve", "--max-batch", "0"], "--max-batch"),
        (["serve", "--quant-digits", "0"], "--quant-digits"),
        (["serve", "--warm-scenario", "bogus"], "scenario"),
        (["loadgen", "--qps", "0"], "--qps"),
        (["loadgen", "--connections", "0"], "--connections"),
        (["loadgen", "--requests", "0"], "--requests"),
        (["loadgen", "--queries", ""], "--queries"),
        (["loadgen", "--scenario", "bogus"], "scenario"),
        (["loadgen", "--url", "not-a-url"], "--url"),
    ],
)
def test_usage_errors(capsys, argv, fragment):
    assert fragment in _usage_error_line(capsys, argv)


def test_loadgen_self_serve_end_to_end(capsys, tmp_path):
    bench_out = tmp_path / "BENCH_serve.json"
    code = main(
        [
            "loadgen", "--self-serve",
            "--queries", "Q6",
            "--qps", "400",
            "--requests", "12",
            "--seed", "5",
            "--connections", "4",
            "--verify-offline",
            "--p99-gate", "5.0",
            "--bench-out", str(bench_out),
            "--no-history",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "digest parity OK" in captured.out
    assert "p99 gate: OK" in captured.out
    record = json.loads(bench_out.read_text())
    assert record["benchmark"] == "serve"
    assert record["extras"]["requests"] == 12


def test_loadgen_decides_exactly_what_explain_prints(capsys):
    """The decision fields a loadgen probe receives must reproduce in
    the offline ``repro explain`` transcript for the same probe."""
    from repro.serve import CandidateStore, build_requests, decide_one

    store = CandidateStore(cache=None)
    (request,) = build_requests(
        store, ["Q6"], "split", count=1, seed=9, quant_digits=9
    )
    response = decide_one(
        store.entry("Q6", "split"), request["cost"]
    )

    code = main(
        [
            "explain", "Q6",
            "--scenario", "split",
            "--cost-vector",
            ",".join(repr(value) for value in request["cost"]),
        ]
    )
    assert code == 0
    transcript = capsys.readouterr().out
    assert (
        f"winner:    plan {response['winner']} "
        f"{response['winner_signature']}" in transcript
    )
    assert f"(total {response['winner_total']:.6g})" in transcript
    assert f"margin:    {response['margin']:.6g}" in transcript
    assert (
        f"normalized distance {response['plane_distance']:.6g}"
        in transcript
    )


def test_loadgen_honours_no_cache_and_cache_dir(tmp_path, capsys):
    cache_dir = tmp_path / "explicit-cache"
    code = main(
        [
            "loadgen", "--self-serve",
            "--queries", "Q6",
            "--qps", "400",
            "--requests", "4",
            "--warmup", "0",
            "--bench-out", "",
            "--no-history",
            "--cache-dir", str(cache_dir),
        ]
    )
    assert code == 0
    assert list(cache_dir.rglob("*")), "cache dir never written"

    capsys.readouterr()
    code = main(
        [
            "loadgen", "--self-serve",
            "--queries", "Q6",
            "--qps", "400",
            "--requests", "4",
            "--warmup", "0",
            "--bench-out", "",
            "--no-history",
            "--no-cache",
        ]
    )
    assert code == 0


def test_serve_help_lists_the_serving_flags(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for flag in (
        "--warm", "--workers",
        "--catalog", "--reload-interval", "--quant-digits",
        "--no-cache", "--cache-dir",
    ):
        assert flag in text
    assert "--batch-window" not in text
    assert "--max-batch" not in text


def test_top_level_help_names_the_decide_endpoint(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    assert "/v1/decide" in text
    assert "loadgen" in text
