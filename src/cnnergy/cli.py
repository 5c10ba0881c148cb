"""Command-line interface.

Commands: ``analyze`` (per-layer cost report), ``integrate`` (trace x
regions -> joules), ``gen-trace`` (synthetic power trace), ``calibrate``
(affine fits from measurements), ``predict`` (evaluate saved fits),
``rank`` (order training configurations by time/energy/EDP).

All commands accept ``--output PATH`` (default stdout) and ``--format
csv|table`` (``gen-trace`` prints CSV only). Floats are printed with 6
significant digits so identical invocations produce identical bytes. Exit
codes: 0 success, 2 input or data error (an ``--output`` that cannot be
written included), 3 nothing to produce (an empty or infeasible rank grid,
or no group to fit).
"""
from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from . import _tables, arch, costmodel
from .errors import CnnergyError, DataFormatError, NothingFeasibleError


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _deliver(report, args) -> None:
    """Write a command's ``(head, rows, tail)`` report, or gen-trace's CSV
    text piece by piece as its pieces are formatted. The ``--output`` file is
    opened only once the command has returned, so a refused command leaves it
    as it was."""
    if isinstance(report, tuple):
        report = [_tables.render(*report, table=args.format == "table")]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(report)
    else:
        sys.stdout.writelines(report)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    if args.builtin:
        name = args.builtin  # as the built-in's own `# network:` line names it
        summary = costmodel.CostSummary(*costmodel._builtin_rows(name), args.element_bytes)
    else:
        base = os.path.basename(args.arch)
        dot = base.rfind(".")  # a leading or trailing dot starts no suffix, as for pathlib's stem
        stem = base[:dot] if 0 < dot < len(base) - 1 else base
        shaped = _tables.read_file(args.arch, lambda fh: arch.infer_shapes(
            arch.parse_network(fh, name=stem)))
        name, summary = shaped.spec.name, costmodel.network_cost(
            shaped, element_bytes=args.element_bytes)
    if args.batch is not None:
        if args.batch < 1:
            raise DataFormatError(f"--batch must be >= 1, got {args.batch}")
        summary = costmodel.batch_cost(summary, args.batch)
    mb = 2 ** 20
    head = [f"# network: {name}"]
    if args.batch is not None:
        head.append(f"# batch: {args.batch}")
    head += [
        f"# total_ops: {summary.total_ops}",
        f"# read_mb: {_fmt(summary.total_read_bytes / mb)}",
        f"# written_mb: {_fmt(summary.total_written_bytes / mb)}",
        f"# ctc: {'' if summary.ctc is None else _fmt(summary.ctc)}",
    ]
    return head, costmodel._cost_rows(summary), ()


# ---------------------------------------------------------------------------
# integrate / gen-trace (powertrace, and with it numpy, loads only here)
# ---------------------------------------------------------------------------

def cmd_integrate(args):
    from . import powertrace

    trace = powertrace.load_trace(args.trace)
    regions = powertrace.load_regions(args.regions)
    return (), powertrace._region_rows(trace, regions), ()


def _parse_segments(text: str) -> list[powertrace.SegmentSpec]:
    """``watts:seconds`` for a flat segment, ``start-end:seconds`` for a
    ramp, comma-separated."""
    from . import powertrace

    segments = []
    for part in text.split(","):
        part = part.strip()
        try:
            level, _, duration = part.partition(":")
            if not duration:
                raise ValueError("missing duration")
            try:
                start = end = float(level)
            except ValueError:
                lo, _, hi = level.partition("-")
                start, end = float(lo), float(hi)
            segments.append(powertrace.SegmentSpec(float(duration), start, end))
        except ValueError as exc:
            raise DataFormatError(
                f"bad segment {part!r} (want watts:seconds or start-end:seconds): {exc}"
            ) from exc
    if not segments:
        raise DataFormatError("at least one segment is required")
    return segments


def cmd_gen_trace(args):
    """The CSV of a synthetic trace, as pieces that are formatted as they are
    written; the trace itself is built, and checked, before this returns."""
    if args.format == "table":  # integrate could not read a padded trace back
        raise DataFormatError("gen-trace prints CSV only; --format table is not supported")
    from . import powertrace

    trace = powertrace.generate_synthetic_trace(
        _parse_segments(args.segments),
        sample_rate=args.rate,
        channels=args.channels,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    return powertrace._csv_blocks(trace)


# ---------------------------------------------------------------------------
# calibrate / predict / rank (energymodel and tuner load only here)
# ---------------------------------------------------------------------------

def _load_records(args) -> list[energymodel.MeasurementRecord]:
    from . import energymodel

    if args.bundled:
        return energymodel.bundled_measurements()
    return energymodel.load_measurements(args.measurements)


def cmd_calibrate(args):
    from . import energymodel

    records = _load_records(args)
    models, skipped = energymodel.calibrate(records, gpu_counts=args.gpus)
    if not models:
        raise NothingFeasibleError(f"no model to fit ({len(skipped)} group(s) skipped)")
    if args.model_out:
        energymodel.save_models(models, args.model_out)
    head = [f"# fitted: {len(models)}", f"# skipped: {len(skipped)}", *[
        f"# skipped {g.device}/{g.network}/{g.step}/{g.gpus}/{g.quantity}: {g.reason}"
        for g in skipped]]
    rows = [("device", "network", "step", "gpus", "quantity", "slope", "intercept",
             "r_squared", "n_points"), *[
        (m.device, m.network, m.step, str(m.gpus), m.quantity, _fmt(m.slope),
         _fmt(m.intercept), _fmt(m.r_squared), str(m.n_points)) for m in models]]
    return head, rows, ()


def cmd_predict(args):
    from . import energymodel

    models = energymodel.load_models(args.models)
    quantities = (args.quantity,) if args.quantity else _tables.QUANTITIES
    rows = [("device", "network", "step", "gpus", "batch", "quantity", "value", "extrapolated")]
    for quantity in quantities:
        model = energymodel.find_model(models, args.device, args.network,
                                       args.step, args.gpus, quantity)
        p = energymodel.predict(model, args.batch)
        rows.append((args.device, args.network, args.step, str(args.gpus), str(args.batch),
                     quantity, _fmt(p.value), "1" if p.extrapolation_warning else "0"))
    return (), rows, ()


def _gpu_set_label(gpu_set: multigpu.GpuSet) -> str:
    return "+".join(f"{name}:{count}" for name, count in gpu_set.members if count > 0)


def cmd_rank(args):
    from . import tuner

    grid = (args.device, args.networks, args.batches, args.gpus, args.update_overhead_pct)
    # The bundled tables cannot change within a process, so each of their
    # grids is scored once; a measurements file is read and scored every call.
    reports = (tuner._bundled_reports(*grid) if args.bundled
               else tuner._score_grid(_load_records(args), *grid))
    ranked = tuner.rank(reports, metric=args.metric)
    rows = [("rank", "network", "batch", "gpus", "gpu_set", "kiloseconds", "megajoules",
             "edp_mj_ks"), *[
        (str(position), r.config.network, str(r.config.batch), str(r.config.gpu_set.total_gpus),
         _gpu_set_label(r.config.gpu_set), _fmt(r.kiloseconds), _fmt(r.megajoules),
         _fmt(r.edp_mj_ks)) for position, r in enumerate(ranked, start=1)]]
    tail = [f"# infeasible: {r.config.network} batch={r.config.batch} "
            f"gpu_set={_gpu_set_label(r.config.gpu_set)} ({r.reason})"
            for r in reports if not r.feasible]
    return [f"# metric: {args.metric}"], rows, tail


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnnergy",
        description="CNN training cost, energy, and configuration analysis.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "table"), default="csv",
                        help="output format (default: csv; gen-trace prints csv only)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="per-layer operation and data-volume report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", choices=arch.BUILTIN_NETWORK_NAMES,
                     help="analyze a bundled architecture")
    src.add_argument("--arch", metavar="FILE", help="architecture description file")
    p.add_argument("--batch", type=int, help="scale all counts by this batch size")
    p.add_argument("--element-bytes", type=int, default=4,
                   help="bytes per tensor element (default: 4)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("integrate", parents=[common],
                       help="integrate trace power over labeled regions")
    p.add_argument("--trace", required=True, metavar="FILE", help="power trace CSV")
    p.add_argument("--regions", required=True, metavar="FILE", help="regions CSV")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("gen-trace", parents=[common],
                       help="generate a synthetic power trace CSV")
    p.add_argument("--segments", required=True,
                   help="comma list of watts:seconds or start-end:seconds")
    p.add_argument("--rate", type=float, default=1000.0,
                   help="samples per second (default: 1000)")
    p.add_argument("--channels", type=int, default=8,
                   help="number of power channels (default: 8)")
    p.add_argument("--noise", type=float, default=0.0,
                   help="Gaussian noise sigma in watts (default: 0)")
    p.add_argument("--seed", type=int, help="noise RNG seed")
    p.set_defaults(func=cmd_gen_trace)

    measured = argparse.ArgumentParser(add_help=False)
    src = measured.add_mutually_exclusive_group(required=True)
    src.add_argument("--bundled", action="store_true", help="use the bundled measurement tables")
    src.add_argument("--measurements", metavar="FILE", help="measurements CSV")

    p = sub.add_parser("calibrate", parents=[common, measured], help="fit affine batch-size models")
    p.add_argument("--gpus", type=_int_list, default=(1, 2),
                   help="GPU counts to fit (default: 1,2)")
    p.add_argument("--model-out", metavar="FILE", help="also save the fitted models as JSON")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("rank", parents=[common, measured], help="rank training configurations")
    p.add_argument("--device", required=True, help="device profile name")
    p.add_argument("--metric", choices=_tables.RANK_METRICS, default="edp",
                   help="ranking metric (default: edp)")
    p.add_argument("--networks", type=lambda s: tuple(s.split(",")),
                   help="networks to include (default: all built-ins)")
    p.add_argument("--gpus", type=_int_list, default=(1, 2, 4),
                   help="GPU counts to include (default: 1,2,4)")
    p.add_argument("--batches", type=_int_list, default=(64, 128, 256),
                   help="batch sizes to include (default: 64,128,256)")
    p.add_argument("--update-overhead-pct", type=float, default=0.0,
                   help="extra percent for the weight-update phase")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("predict", parents=[common],
                       help="evaluate saved calibration models")
    p.add_argument("--models", required=True, metavar="FILE", help="model JSON file")
    p.add_argument("--device", required=True)
    p.add_argument("--network", required=True)
    p.add_argument("--step", required=True, choices=_tables.STEPS)
    p.add_argument("--gpus", type=int, required=True)
    p.add_argument("--batch", type=int, required=True)
    p.add_argument("--quantity", choices=_tables.QUANTITIES,
                   help="restrict to one quantity (default: both)")
    p.set_defaults(func=cmd_predict)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in this process shares; parsing
    leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _deliver(args.func(args), args)
    except NothingFeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CnnergyError, OSError, ValueError, OverflowError) as exc:
        # OverflowError: an input number too large for a float, e.g. --batch 9...9
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
