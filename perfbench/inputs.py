"""Seeded inputs for the benchmark workloads, generated by the benchmark itself.

The same seed gives byte-identical files. The power trace is built here with
numpy, not with ``cnnergy.generate_synthetic_trace``, so that the program
under test only ever reads it.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from common import BUILTINS
REGION_LABELS = ("forward", "backward", "update", "load", "other")
CHANNELS = 8
RATE_HZ = 1000

#: Input sizes of the trace-regions workload. "full" is the size the
#: benchmark measures at; "tiny" only serves the self-test.
SIZES = {
    "full": {"samples": 120_000, "regions": 1000, "clipped": 20, "outside": 6,
             "gen_seconds": 120},
    "tiny": {"samples": 2_000, "regions": 50, "clipped": 3, "outside": 2,
             "gen_seconds": 2},
}


@dataclass(frozen=True)
class TraceInputs:
    trace_text: str
    regions_text: str
    labels: tuple[str, ...]
    times: np.ndarray       # the values the CSV text holds, as written
    watts: np.ndarray       # (samples, channels)
    regions: tuple[tuple[str, str, float, float], ...]


def trace_inputs(seed: int, size: str = "full") -> TraceInputs:
    """A noisy piecewise-linear 8-channel trace at 1 kHz and its regions.

    Regions are random intervals; some run past the end of the trace (the
    program clips them) and a few lie wholly before or after it (the program
    reports ``EmptyRegionError`` for them).
    """
    spec = SIZES[size]
    rng = np.random.default_rng([seed, 1])
    n = spec["samples"]
    times = np.arange(n) / RATE_HZ
    t_end = times[-1]
    knots_t = np.concatenate(([0.0], np.sort(rng.uniform(0.0, t_end, 40)), [t_end]))
    knots_w = rng.uniform(40.0, 250.0, knots_t.size)
    total = np.interp(times, knots_t, knots_w)
    shares = rng.dirichlet(np.full(CHANNELS, 4.0))
    watts = total[:, None] * shares[None, :] + rng.normal(0.0, 0.3, (n, CHANNELS))
    watts = np.clip(watts, 0.0, None)
    labels = tuple(f"rail{i}" for i in range(1, CHANNELS + 1))

    buf = io.StringIO()
    np.savetxt(buf, np.column_stack([times, watts]), delimiter=",",
               fmt=["%.9g"] + ["%.6g"] * CHANNELS,
               header="t_s," + ",".join(f"{l}_w" for l in labels), comments="")
    trace_text = buf.getvalue()
    written = np.loadtxt(io.StringIO(trace_text), delimiter=",", skiprows=1)

    n_inside = spec["regions"] - spec["clipped"] - spec["outside"]
    starts = [rng.uniform(0.0, t_end - 0.1, n_inside),
              rng.uniform(t_end - 2.0, t_end - 0.05, spec["clipped"])]
    lengths = [rng.uniform(0.02, 3.0, n_inside), rng.uniform(2.5, 5.0, spec["clipped"])]
    before = spec["outside"] // 2
    starts.append(np.concatenate((rng.uniform(-20.0, -5.0, before),
                                  t_end + rng.uniform(1.0, 20.0, spec["outside"] - before))))
    lengths.append(rng.uniform(0.5, 3.0, spec["outside"]))
    starts, lengths = np.concatenate(starts), np.concatenate(lengths)
    order = rng.permutation(starts.size)
    label_idx = rng.integers(0, len(REGION_LABELS), starts.size)
    lines = ["id,label,t_start_s,t_end_s"]
    regions = []
    for k, i in enumerate(order):
        row = (f"r{k:04d}", REGION_LABELS[label_idx[k]],
               f"{starts[i]:.9g}", f"{starts[i] + lengths[i]:.9g}")
        lines.append(",".join(row))
        regions.append((row[0], row[1], float(row[2]), float(row[3])))
    return TraceInputs(trace_text, "\n".join(lines) + "\n", labels,
                       written[:, 0], written[:, 1:], tuple(regions))


def gen_trace_segments(seed: int, size: str = "full") -> tuple[str, list[tuple[float, float, float]]]:
    """A ``--segments`` argument for ``gen-trace`` and the profile it describes.

    Whole-second segments (so the sample count is exact), mixing flat levels
    and ramps, with abrupt steps between some of them. Returns the argument
    and ``(seconds, start_watts, end_watts)`` per segment.
    """
    total = SIZES[size]["gen_seconds"]
    rng = np.random.default_rng([seed, 2])
    n_segments = max(1, total // 5)
    cuts = np.sort(rng.choice(np.arange(1, total), n_segments - 1, replace=False))
    durations = np.diff(np.concatenate(([0], cuts, [total])))
    parts, profile = [], []
    for d in durations:
        start = round(float(rng.uniform(40.0, 250.0)), 1)
        if rng.random() < 0.5:
            parts.append(f"{start:g}:{d}")
            profile.append((float(d), start, start))
        else:
            end = round(float(rng.uniform(40.0, 250.0)), 1)
            parts.append(f"{start:g}-{end:g}:{d}")
            profile.append((float(d), start, end))
    return ",".join(parts), profile


def write_arch_files(cnnergy, directory) -> dict:
    """Each built-in network written with ``emit_network``, for ``analyze --arch``.

    All four, whatever the seed: which one a run reads would change the cost
    of a pass from seed to seed. The seed only orders the ops.
    """
    paths = {}
    for name in BUILTINS:
        paths[name] = directory / f"{name}.arch"
        paths[name].write_text(cnnergy.emit_network(cnnergy.builtin_network(name)),
                               encoding="utf-8")
    return paths
