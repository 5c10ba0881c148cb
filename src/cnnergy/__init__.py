"""Training-cost and energy analysis for convolutional networks.

The package models a CNN's per-layer arithmetic and memory traffic
(:mod:`cnnergy.arch`, :mod:`cnnergy.costmodel`), integrates measured
power traces into joules (:mod:`cnnergy.powertrace`), calibrates affine
batch-size models over bundled measurements (:mod:`cnnergy.energymodel`),
splits batches and sums energy across multi-GPU sets
(:mod:`cnnergy.multigpu`), and ranks training configurations by time,
energy, or energy-delay product (:mod:`cnnergy.tuner`).

Every module, and every name below, loads on first access, so that
``import cnnergy`` loads no submodule and no numpy.
"""
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "arch": ("BUILTIN_NETWORK_NAMES", "LayerSpec", "NetworkSpec", "ShapedNetwork",
             "TensorShape", "builtin_network", "emit_network", "infer_shapes",
             "parse_network"),
    "costmodel": ("CostSummary", "batch_cost", "cost_csv", "network_cost"),
    "energymodel": ("CalibratedModel", "DeviceProfile", "MeasurementRecord", "TrainingPlan",
                    "bundled_devices", "bundled_measurements", "bundled_plans", "calibrate",
                    "generation_gap", "gflops_per_watt", "predict", "records_by_key"),
    "errors": ("CnnergyError",),
    "multigpu": ("GpuSet", "ring_allreduce_time", "split_batch"),
    "powertrace": ("PowerTrace", "Region", "generate_synthetic_trace", "integrate",
                   "integrate_many", "load_regions", "load_trace"),
    "tuner": ("ConfigReport", "TrainingConfig", "bundled_accuracy", "bundled_grid", "edp",
              "memory_feasible", "rank", "recommend", "score"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    # __import__, not ``from . import m``, which looks the submodule up on
    # this package first and would land back here, nor importlib, whose
    # imports ``python -X importtime`` does not log. Nothing is cached in the
    # package, so ``cnnergy.X`` always shows what its module holds now.
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
