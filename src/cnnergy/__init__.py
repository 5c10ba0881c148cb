"""Training-cost and energy analysis for convolutional networks.

The package models a CNN's per-layer arithmetic and memory traffic
(:mod:`cnnergy.arch`, :mod:`cnnergy.costmodel`), integrates measured
power traces into joules (:mod:`cnnergy.powertrace`), calibrates affine
batch-size models over bundled measurements (:mod:`cnnergy.energymodel`),
splits batches and sums energy across multi-GPU sets
(:mod:`cnnergy.multigpu`), and ranks training configurations by time,
energy, or energy-delay product (:mod:`cnnergy.tuner`).

:mod:`cnnergy.powertrace` and its exports load on first access, so that
importing the package, and every command but ``integrate``, ``gen-trace``
and ``calibrate``, leaves numpy unloaded.
"""
import importlib

from .arch import (
    BUILTIN_NETWORK_NAMES,
    LayerSpec,
    NetworkSpec,
    ShapedNetwork,
    TensorShape,
    builtin_network,
    emit_network,
    infer_shapes,
    parse_network,
)
from .costmodel import (
    CostSummary,
    batch_cost,
    cost_csv,
    network_cost,
)
from .energymodel import (
    CalibratedModel,
    DeviceProfile,
    MeasurementRecord,
    TrainingPlan,
    bundled_devices,
    bundled_measurements,
    bundled_plans,
    calibrate,
    generation_gap,
    gflops_per_watt,
    predict,
    records_by_key,
)
from .errors import CnnergyError
from .multigpu import (
    GpuSet,
    ring_allreduce_time,
    split_batch,
)
from .tuner import (
    ConfigReport,
    TrainingConfig,
    bundled_accuracy,
    bundled_grid,
    edp,
    memory_feasible,
    rank,
    recommend,
    score,
)

__version__ = "0.1.0"

_POWERTRACE_EXPORTS = (
    "PowerTrace",
    "Region",
    "generate_synthetic_trace",
    "integrate",
    "integrate_many",
    "load_regions",
    "load_trace",
)

__all__ = [
    "BUILTIN_NETWORK_NAMES",
    "CalibratedModel",
    "CnnergyError",
    "ConfigReport",
    "CostSummary",
    "DeviceProfile",
    "GpuSet",
    "LayerSpec",
    "MeasurementRecord",
    "NetworkSpec",
    "PowerTrace",
    "Region",
    "ShapedNetwork",
    "TensorShape",
    "TrainingConfig",
    "TrainingPlan",
    "batch_cost",
    "builtin_network",
    "bundled_accuracy",
    "bundled_devices",
    "bundled_grid",
    "bundled_measurements",
    "bundled_plans",
    "calibrate",
    "cost_csv",
    "edp",
    "emit_network",
    "generate_synthetic_trace",
    "generation_gap",
    "gflops_per_watt",
    "infer_shapes",
    "integrate",
    "integrate_many",
    "load_regions",
    "load_trace",
    "memory_feasible",
    "network_cost",
    "parse_network",
    "predict",
    "rank",
    "recommend",
    "records_by_key",
    "ring_allreduce_time",
    "score",
    "split_batch",
    "__version__",
]


def __getattr__(name):
    # importlib, not ``from . import powertrace``: the latter looks the
    # submodule up on this package first and would land back here.
    if name == "powertrace" or name in _POWERTRACE_EXPORTS:
        powertrace = importlib.import_module(".powertrace", __name__)
        return powertrace if name == "powertrace" else getattr(powertrace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | {"powertrace", *_POWERTRACE_EXPORTS})
