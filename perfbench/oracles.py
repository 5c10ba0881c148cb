"""Output checks. Each returns ``None`` when the output is right, else a reason.

The integrate reference uses a different algorithm from the program's (the
difference of one cumulative trapezoid integral, evaluated by interpolation
at the clipped region ends), on the values the trace file holds.

numpy is imported only by the checks that need it, so that the cli-cold
client, which spawns every op, stays smaller than the ops it spawns.
"""
from __future__ import annotations

import io
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Printed values have 6 significant digits, so a right value can differ from
#: the reference by up to 5e-6 of itself.
INTEGRATE_RTOL = 1e-5

#: The benchmark's gen-trace noise (sigma 0.1 W per channel, zero mean)
#: integrates to about 0.1 J standard deviation over 120k samples x 8
#: channels, against about 2e4 J of signal (5e-6 relative), and rounding to 6
#: significant digits adds at most 5e-6 relative. 1e-4 relative is far above
#: both; a dropped or extra sample is caught by the sample count instead.
GEN_TRACE_RTOL = 1e-4


def golden(name: str) -> str:
    return (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")


def check_golden(name: str, text: str) -> str | None:
    if text != golden(name):
        return f"{name}: output differs from the golden bytes"
    return None


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want) + 1e-12


def integrate_reference(times, watts, regions):
    """Per-region (duration, joules per channel) or ``None`` if out of span."""
    import numpy as np

    seg = np.diff(times)[:, None] * (watts[1:] + watts[:-1]) / 2.0
    cumulative = np.vstack([np.zeros(watts.shape[1]), np.cumsum(seg, axis=0)])

    def energy_at(x):
        j = min(max(int(np.searchsorted(times, x, side="right")) - 1, 0), times.size - 2)
        frac = (x - times[j]) / (times[j + 1] - times[j])
        w_x = watts[j] + (watts[j + 1] - watts[j]) * frac
        return cumulative[j] + (x - times[j]) * (watts[j] + w_x) / 2.0

    out = {}
    for rid, _, start, end in regions:
        lo, hi = max(start, times[0]), min(end, times[-1])
        out[rid] = (hi - lo, energy_at(hi) - energy_at(lo)) if lo < hi else None
    return out


def check_integrate(text: str, labels, regions, reference) -> str | None:
    """Check ``integrate`` rows against the reference, by column name."""
    lines = text.splitlines()
    if not lines:
        return "integrate: empty output"
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    needed = ["id", "label", "duration_s", "joules_total", "mean_watts", "error"]
    needed += [f"{l}_j" for l in labels]
    missing = [c for c in needed if c not in col]
    if missing:
        return f"integrate: missing columns {missing}"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(regions):
        return f"integrate: {len(rows)} rows for {len(regions)} regions"
    for row, (rid, label, _, _) in zip(rows, regions):
        if len(row) != len(col) or row[col["id"]] != rid or row[col["label"]] != label:
            return f"integrate: row for {rid} is malformed or out of order"
        want = reference[rid]
        if want is None:
            if row[col["error"]] != "EmptyRegionError" or row[col["joules_total"]]:
                return f"integrate: out-of-span region {rid} must name EmptyRegionError"
            continue
        if row[col["error"]]:
            return f"integrate: region {rid} failed with {row[col['error']]}"
        duration, joules = want
        total = float(joules.sum())
        checks = [("duration_s", duration), ("joules_total", total),
                  ("mean_watts", total / duration)]
        checks += [(f"{l}_j", float(j)) for l, j in zip(labels, joules)]
        for name, value in checks:
            if not _close(float(row[col[name]]), value, INTEGRATE_RTOL):
                return f"integrate: {rid} {name}={row[col[name]]}, reference {value:.9g}"
    return None


def check_gen_trace(text: str, profile, channels: int, rate: float) -> str | None:
    """Header, sample count, non-decreasing time, and energy against the profile."""
    import numpy as np

    head, _, body = text.partition("\n")
    cells = head.split(",")
    if len(cells) != channels + 1 or cells[0] != "t_s" or not all(c.endswith("_w") for c in cells[1:]):
        return f"gen-trace: bad header {head!r}"
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    seconds = sum(d for d, _, _ in profile)
    expected_rows = round(seconds * rate) + 1
    if data.shape != (expected_rows, channels + 1):
        return f"gen-trace: shape {data.shape}, expected ({expected_rows}, {channels + 1})"
    t = data[:, 0]
    if (np.diff(t) < 0).any():
        return "gen-trace: time decreases"
    total = data[:, 1:].sum(axis=1)
    joules = float(np.sum(np.diff(t) * (total[1:] + total[:-1]) / 2.0))
    want = sum(d * (a + b) / 2.0 for d, a, b in profile)
    if not _close(joules, want, GEN_TRACE_RTOL):
        return f"gen-trace: {joules:.9g} J, profile gives {want:.9g} J"
    return None
