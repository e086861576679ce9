"""Command-line interface: ``repro <subcommand>``.

Subcommands
-----------
``compress``    compress a ``.npy`` (or raw float32) file to ``.incgrad``
``decompress``  reconstruct a ``.incgrad`` file back to ``.npy``
``stats``       Table III-style bitwidth/ratio report for a gradient file
``simulate``    per-iteration time of a Fig 12 configuration at paper scale
``train``       run the simulated-cluster training demo (any --strategy)
``exchange``    paper-scale exchange timing (any --algorithm, any codec)
``codecs``      list registered gradient codecs and their measured ratios
``strategies``  list registered gradient strategies (ring, wa, async_ps, ...)
``trace``       validate / summarize / convert execution traces
``lint``        repo-aware static analysis (see ``repro lint --list-rules``)
``sanitize``    determinism sanitizer: replay + event-order race detection

``train`` and ``exchange`` accept ``--trace out.json`` to record the
run's message, link, ring-step and codec events (plus the metrics
snapshot) in the versioned ``repro.trace`` JSON format; add
``--trace-chrome out.json`` for a ``chrome://tracing`` /
Perfetto-loadable rendering of the same events.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.network import DEFAULT_BANDWIDTH_BPS, RetransmitPolicy, parse_tenants
from repro.perfmodel.exchange import EXCHANGE_TRAIN_PACKETS


def _load_floats(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        return np.load(path).astype(np.float32).reshape(-1)
    data = path.read_bytes()
    if len(data) % 4:
        raise SystemExit(f"{path}: raw input must be whole float32 words")
    return np.frombuffer(data, dtype=np.float32).copy()


def _cmd_compress(args: argparse.Namespace) -> int:
    from repro.core import ErrorBound
    from repro.core.gradient_file import save

    values = _load_floats(Path(args.input))
    written = save(args.output, values, ErrorBound(args.bound))
    ratio = values.nbytes / written if written else float("inf")
    print(
        f"{args.input}: {values.size} values, {values.nbytes} -> {written} "
        f"bytes ({ratio:.2f}x) at bound 2^-{args.bound}"
    )
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    from repro.core.gradient_file import load

    values = load(args.input)
    np.save(args.output, values)
    print(f"{args.input}: restored {values.size} values -> {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.core import ErrorBound, bitwidth_distribution, compression_ratio

    values = _load_floats(Path(args.input))
    for exponent in args.bounds:
        bound = ErrorBound(exponent)
        dist = bitwidth_distribution(values, bound)
        ratio = compression_ratio(values, bound)
        row = "  ".join(
            f"{label}={100 * frac:5.1f}%" for label, frac in dist.as_row.items()
        )
        print(f"2^-{exponent}: ratio {ratio:5.2f}x  {row}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.perfmodel import estimate_iteration_time

    est = estimate_iteration_time(
        args.model,
        args.configuration,
        num_workers=args.workers,
        **_cluster_fields(args),
    )
    print(
        f"{args.model} / {args.configuration} on {args.workers} workers "
        f"@ {args.gbps:g} Gb/s:"
    )
    print(f"  iteration      {est.iteration_s * 1e3:10.2f} ms")
    print(f"  computation    {est.computation_s * 1e3:10.2f} ms")
    print(f"  communication  {est.communication_s * 1e3:10.2f} ms")
    return 0


def _stream_for(args: argparse.Namespace):
    """Resolve --codec into a StreamProfile (``None`` is raw)."""
    from repro.core import profile_for

    if args.codec is None:
        return None
    try:
        return profile_for(args.codec)
    except KeyError as exc:
        raise SystemExit(f"--codec: {exc.args[0]}")


def _tracer_for(args: argparse.Namespace):
    """Build a Tracer when ``--trace``/``--trace-chrome`` was given."""
    if getattr(args, "trace", None) or getattr(args, "trace_chrome", None):
        from repro.obs import Tracer

        return Tracer()
    return None


def _write_trace_outputs(
    tracer, args: argparse.Namespace, **meta: object
) -> None:
    """Write the requested trace files and report where they went."""
    if tracer is None:
        return
    from repro.obs import trace_document, write_chrome, write_trace

    if getattr(args, "trace", None):
        write_trace(tracer, args.trace, meta=dict(meta))
        print(f"trace: {len(tracer.events)} events -> {args.trace}")
    if getattr(args, "trace_chrome", None):
        write_chrome(trace_document(tracer, meta=dict(meta)), args.trace_chrome)
        print(f"chrome trace -> {args.trace_chrome}")


def _add_trace_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a repro.trace JSON of the run's recorded events",
    )
    p.add_argument(
        "--trace-chrome", default=None, metavar="FILE",
        help="write the run's events in Chrome tracing (Perfetto) format",
    )


Converter = Optional[Callable[[Any], Any]]


def _flag(field: str, convert: Converter = None, **argparse_kw: Any):
    return field, convert, argparse_kw


#: The cluster flags: ``flag -> (ClusterConfig field, converter, argparse
#: keywords)``.  A flag's value reaches its field through the converter
#: (``None``: unchanged); an unset flag (``None``) leaves the field's
#: own default.
CLUSTER_FLAGS: Dict[str, Tuple[str, Converter, Dict[str, Any]]] = {
    "--gbps": _flag(
        "bandwidth_bps", lambda gbps: gbps * 1e9,
        type=float, default=DEFAULT_BANDWIDTH_BPS / 1e9,
    ),
    "--train-packets": _flag(
        "train_packets", type=int, default=EXCHANGE_TRAIN_PACKETS, metavar="N",
        help="packets per train (smaller trains = finer-grained "
        "priority preemption on shared fabrics)",
    ),
    "--topology": _flag(
        "topology", default=None, metavar="SPEC",
        help='fabric: "star" (default), "ring", "fat-tree:k=4", '
        '"leaf-spine:spines=2,leaves=4,hosts=2" or "two-tier:racks=2,hosts=2"',
    ),
    "--agg-site": _flag(
        "agg_site", default="endpoint", choices=("endpoint", "switch"),
        help="where gradients are summed: at the aggregating endpoint "
        "(default) or in-network at the fabric's switches (needs a "
        "multi-tier --topology and a homomorphic --codec)",
    ),
    "--tenants": _flag(
        "tenants", parse_tenants, default=None, metavar="SPEC",
        help='background tenants sharing the fabric, e.g. "train:4,infer:8" '
        "(kind:hosts, comma-separated)",
    ),
    "--prioritize": _flag(
        "prioritize", action="store_true",
        help="strict per-ToS priority queues protecting the exchange "
        "from tenant traffic",
    ),
    "--tenant-seed": _flag(
        "tenant_seed", type=int, default=0, metavar="S",
        help="seed for background flow think-time randomness (default 0)",
    ),
    "--loss-rate": _flag(
        "loss_rate", type=float, default=0.0, metavar="P",
        help="per-train drop probability on every link (default lossless)",
    ),
    "--retransmit": _flag(
        "retransmit", lambda rto_us: RetransmitPolicy(rto_s=rto_us * 1e-6),
        type=float, default=None, metavar="RTO_US",
        help="timeout before a lost train is resent, in microseconds "
        f"(default {RetransmitPolicy().rto_s * 1e6:g}; retransmission is "
        "always on)",
    ),
}


def _add_cluster_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **CLUSTER_FLAGS[flag][2])


def _cluster_fields(args: argparse.Namespace) -> Dict[str, Any]:
    """The ClusterConfig fields the parsed cluster flags set."""
    parsed = vars(args)
    fields: Dict[str, Any] = {}
    for flag, (field, convert, _) in CLUSTER_FLAGS.items():
        value = parsed.get(flag[2:].replace("-", "_"))
        if value is None:
            continue
        try:
            fields[field] = value if convert is None else convert(value)
        except ValueError as exc:
            raise SystemExit(f"{flag}: {exc}")
    return fields


def _add_strategy_options(p: argparse.ArgumentParser) -> None:
    """The strategy options ``train`` and ``exchange`` share."""
    p.add_argument(
        "--staleness", type=int, default=None, metavar="S",
        help="async_ps SSP bound / stale_async round bound (default off/0)",
    )
    p.add_argument(
        "--group-size", type=int, default=2, metavar="K",
        help="hierarchy: leaf-group size (default 2)",
    )


def _strategy_options(args: argparse.Namespace) -> Dict[str, Any]:
    """The run's strategy ``options`` from :func:`_add_strategy_options`."""
    return {
        "max_staleness": args.staleness,
        "staleness_bound": args.staleness,
        "group_size": args.group_size,
    }


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.distributed import Scenario

    _stream_for(args)  # an unknown --codec exits before the run
    tracer = _tracer_for(args)
    scenario = Scenario(
        strategy=args.strategy,
        workers=args.workers,
        iterations=args.iterations,
        seed=args.seed,
        codec=args.codec,
        train_size=600,
        test_size=150,
        batch_size=args.batch_size,
        cluster=_cluster_fields(args),
        options={"sync_period": args.sync_period, **_strategy_options(args)},
        lr=args.lr,
    )
    try:
        result = scenario.run(tracer=tracer)
    except ValueError as exc:
        raise SystemExit(str(exc))
    tag = f"+{args.codec}" if args.codec else ""
    extras = result.extras
    notes = ""
    if extras.get("staleness"):
        notes = f", mean staleness {float(np.mean(extras['staleness'])):.2f}"
    elif "sync_rounds" in extras:
        notes = f", {extras['sync_rounds']} sync rounds"
    print(
        f"{result.algorithm}{tag} x{args.workers}: "
        f"loss {result.losses[0]:.3f} -> {result.losses[-1]:.3f}, "
        f"top-1 {result.final_top1:.3f}, "
        f"simulated {result.virtual_time_s:.3f} s "
        f"({100 * result.communication_fraction:.0f}% communication)"
        f"{notes}"
    )
    _write_trace_outputs(
        tracer,
        args,
        command="train",
        algorithm=result.algorithm,
        workers=args.workers,
        iterations=args.iterations,
        codec=args.codec,
        virtual_time_s=result.virtual_time_s,
    )
    return 0


def _cmd_strategies(args: argparse.Namespace) -> int:
    from repro.distributed import STRATEGIES, available_strategies

    print(f"{'name':<14}{'nodes':<16}description")
    for name in available_strategies():
        strategy = STRATEGIES[name]()
        extra = strategy.extra_nodes
        nodes = f"{args.workers}+{extra}" if extra else f"{args.workers}"
        print(f"{name:<14}{nodes:<16}{strategy.description}")
    return 0


def _cmd_exchange(args: argparse.Namespace) -> int:
    from repro.perfmodel import simulate_exchange
    from repro.transport.wire import measure_stream_ratio

    stream = _stream_for(args)
    tracer = _tracer_for(args)
    cluster = _cluster_fields(args)
    try:
        ratio = None if stream is None else measure_stream_ratio(stream)
        result = simulate_exchange(
            args.algorithm,
            num_workers=args.workers,
            nbytes=round(args.mbytes * 1e6),
            iterations=args.iterations,
            stream=stream,
            gradient_ratio=ratio,
            tracer=tracer,
            fidelity=args.fidelity,
            options=_strategy_options(args),
            **cluster,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    label = f"{args.algorithm}+{args.codec}" if stream else args.algorithm
    if args.fidelity != "packet":
        label = f"{label} [{args.fidelity}]"
    fabric = f" on {args.topology}" if args.topology else ""
    print(
        f"{label} x{args.workers} @ {args.gbps:g} Gb/s, "
        f"{args.mbytes:g} MB gradients{fabric}:"
    )
    if ratio is not None:
        print(f"  measured ratio {ratio:10.2f}x")
    print(f"  per iteration  {result.per_iteration_s * 1e3:10.2f} ms")
    print(f"  total          {result.total_s * 1e3:10.2f} ms")
    print(f"  wire ratio     {result.wire_ratio:10.2f}x")
    if args.agg_site != "endpoint":
        print(f"  link payload   {result.link_payload_nbytes / 1e6:10.2f} MB")
        print(f"  engine cycles  {result.agg_engine_cycles:10d}")
        print(f"  switch reduces {result.switch_reductions:10d}")
    if args.loss_rate > 0.0:
        print(f"  retransmitted  {result.trains_retransmitted:10d} trains")
    if cluster.get("tenants"):
        mode = "priority" if args.prioritize else "FIFO"
        print(
            f"  background     {result.background_messages:10d} msgs "
            f"({result.background_nbytes / 1e6:.1f} MB, {mode} queues)"
        )
    _write_trace_outputs(
        tracer,
        args,
        command="exchange",
        algorithm=args.algorithm,
        workers=args.workers,
        iterations=args.iterations,
        codec=args.codec,
        total_s=result.total_s,
    )
    return 0


def _cmd_codecs(args: argparse.Namespace) -> int:
    from repro.core import available_codecs, codec_tos, get_codec, profile_for
    from repro.transport.wire import measure_stream_ratio

    names = available_codecs()
    caps = {
        name: ",".join(sorted(get_codec(name).capabilities())) or "-"
        for name in names
    }
    # Wide enough for the longest entry plus the two-space gutter.
    width = max(len("capabilities"), *map(len, caps.values())) + 2
    print(
        f"{'name':<16}{'tos':<6}{'kind':<10}{'capabilities':<{width}}"
        f"{'ratio':<8}params"
    )
    for name in names:
        codec = get_codec(name)
        ratio = measure_stream_ratio(profile_for(name), seed=args.seed)
        params = ", ".join(
            f"{k}={v}" for k, v in codec.default_params().items()
        ) or "-"
        kind = "lossless" if codec.lossless else "lossy"
        print(
            f"{name:<16}{codec_tos(name):#04x}  {kind:<10}{caps[name]:<{width}}"
            f"{ratio:<8.2f}{params}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.action == "validate":
        import json

        from repro.obs import validate_trace

        doc = json.loads(Path(args.input).read_text(encoding="utf-8"))
        try:
            validate_trace(doc)
        except ValueError as exc:
            print(f"{args.input}: INVALID: {exc}")
            return 1
        print(
            f"{args.input}: valid {doc['schema']} v{doc['version']}, "
            f"{len(doc['events'])} events"
        )
        return 0

    if args.action == "summary":
        from collections import Counter as TallyCounter

        from repro.obs import load_trace, validate_trace

        doc = load_trace(args.input)
        validate_trace(doc)
        events = doc["events"]
        by_kind = TallyCounter(
            (event["cat"], event["name"]) for event in events
        )
        print(f"{args.input}: {len(events)} events")
        for (cat, name), count in sorted(by_kind.items()):
            print(f"  {cat:<8} {name:<18} {count:>8}")
        phase_totals: dict = {}
        for event in events:
            if event["cat"] == "phase":
                phase_totals[event["name"]] = (
                    phase_totals.get(event["name"], 0.0) + event["dur"]
                )
        if phase_totals:
            print("phase totals:")
            for name, total in sorted(phase_totals.items()):
                print(f"  {name:<14} {total * 1e3:12.3f} ms")
        counters = doc.get("metrics", {}).get("counters", {})
        if counters:
            print("counters:")
            for name, value in sorted(counters.items()):
                print(f"  {name:<32} {value:>12}")
        return 0

    if args.action == "chrome":
        from repro.obs import load_trace, to_chrome, validate_trace

        doc = load_trace(args.input)
        validate_trace(doc)
        chrome = to_chrome(doc)
        import json

        Path(args.output).write_text(json.dumps(chrome, indent=1))
        print(
            f"{args.input} -> {args.output} "
            f"({len(chrome['traceEvents'])} Chrome events)"
        )
        return 0

    if args.action == "schema":
        import json

        from repro.obs import TRACE_SCHEMA

        print(json.dumps(TRACE_SCHEMA, indent=2))
        return 0

    raise SystemExit(f"unknown trace action {args.action!r}")


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.distributed import available_strategies
    from repro.sanitize import StrategyScenario, sanitize

    known = available_strategies()
    if args.strategy:
        strategies = args.strategy
    elif args.agg_site != "endpoint":
        # Only the worker-aggregator family has a reduction root the
        # fabric can host; the default sweep narrows accordingly.
        strategies = ["wa"]
    else:
        strategies = list(known)
    for name in strategies:
        if name not in known:
            raise SystemExit(
                f"--strategy: unknown strategy {name!r} "
                f"({', '.join(known)})"
            )
    _stream_for(args)  # an unknown --codec exits before the runs

    failed = False
    for index, name in enumerate(strategies):
        scenario = StrategyScenario(
            strategy=name,
            workers=args.workers,
            iterations=args.iterations,
            seed=args.seed,
            codec=args.codec,
            cluster=_cluster_fields(args),
        )
        try:
            report = sanitize(
                scenario, perturb_seeds=tuple(args.perturb_seeds)
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
        if index:
            print()
        print(report.render())
        if not report.passed:
            failed = True
            if args.diff_out:
                import json

                Path(args.diff_out).write_text(
                    json.dumps(report.to_dict(), indent=2, default=str)
                )
                print(f"  diff artifact -> {args.diff_out}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    from repro.distributed import available_strategies

    parser = argparse.ArgumentParser(
        prog="repro", description="INCEPTIONN reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress floats to .incgrad")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--bound", type=int, default=10, help="error bound 2^-B")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="restore a .incgrad to .npy")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("stats", help="bitwidth/ratio report")
    p.add_argument("input")
    p.add_argument(
        "--bounds", type=int, nargs="+", default=[10, 8, 6], metavar="B"
    )
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("simulate", help="paper-scale iteration time")
    p.add_argument("--model", default="AlexNet")
    p.add_argument(
        "--configuration",
        default="INC+C",
        choices=("WA", "WA+C", "INC", "INC+C"),
    )
    p.add_argument("--workers", type=int, default=4)
    _add_cluster_flags(p, "--gbps")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="simulated-cluster training demo")
    p.add_argument(
        "--strategy", default="ring", metavar="NAME",
        help="gradient strategy from the registry (see `repro strategies`)",
    )
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--iterations", type=int, default=40)
    p.add_argument("--batch-size", type=int, default=25)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument(
        "--codec", default=None, metavar="NAME",
        help="registered codec for the gradient stream (see `repro codecs`)",
    )
    p.add_argument(
        "--sync-period", type=int, default=4, metavar="H",
        help="local_sgd: local steps between delta syncs (default 4)",
    )
    _add_strategy_options(p)
    p.add_argument("--seed", type=int, default=0)
    _add_cluster_flags(
        p, "--topology", "--agg-site", "--loss-rate", "--retransmit"
    )
    _add_trace_arguments(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser(
        "strategies", help="list registered gradient strategies"
    )
    p.add_argument("--workers", type=int, default=4)
    p.set_defaults(func=_cmd_strategies)

    p = sub.add_parser("exchange", help="paper-scale exchange timing")
    p.add_argument("--algorithm", default="ring", choices=available_strategies())
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--mbytes", type=float, default=10.0, help="gradient MB")
    p.add_argument(
        "--codec", default=None, metavar="NAME",
        help="registered codec for the gradient stream (see `repro codecs`)",
    )
    p.add_argument(
        "--fidelity", default="packet", choices=("packet", "flow"),
        help="packet: event-level simulation; flow: calibrated "
        "flow-level fast path for large worker counts",
    )
    _add_strategy_options(p)
    _add_cluster_flags(p, *CLUSTER_FLAGS)
    _add_trace_arguments(p)
    p.set_defaults(func=_cmd_exchange)

    p = sub.add_parser("codecs", help="list registered gradient codecs")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_codecs)

    p = sub.add_parser("trace", help="execution-trace tooling")
    trace_sub = p.add_subparsers(dest="action", required=True)

    t = trace_sub.add_parser("validate", help="validate a trace JSON")
    t.add_argument("input")
    t.set_defaults(func=_cmd_trace)

    t = trace_sub.add_parser("summary", help="summarize a trace JSON")
    t.add_argument("input")
    t.set_defaults(func=_cmd_trace)

    t = trace_sub.add_parser("chrome", help="convert to Chrome tracing format")
    t.add_argument("input")
    t.add_argument("output")
    t.set_defaults(func=_cmd_trace)

    t = trace_sub.add_parser("schema", help="print the trace JSON schema")
    t.set_defaults(func=_cmd_trace)

    p = sub.add_parser("lint", help="repo-aware static analysis")
    from repro.analysis.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "sanitize",
        help="run scenarios under replay + perturbed event ordering",
    )
    p.add_argument(
        "--strategy", action="append", default=None, metavar="NAME",
        help="strategy scenario to sanitize (repeatable; default: all)",
    )
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--iterations", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--codec", default=None, metavar="NAME",
        help="registered codec for the gradient stream",
    )
    _add_cluster_flags(
        p, "--loss-rate", "--topology", "--agg-site",
        "--tenants", "--prioritize",
    )
    p.add_argument(
        "--perturb-seeds", type=int, nargs="+", default=[1, 2, 3],
        metavar="S", help="tie-break seeds to try (default: 1 2 3)",
    )
    p.add_argument(
        "--diff-out", default=None, metavar="FILE",
        help="write the failing report (with trace diff) as JSON",
    )
    p.set_defaults(func=_cmd_sanitize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
