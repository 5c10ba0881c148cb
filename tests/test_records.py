"""Every record class: a named tuple that pickles, copies, refuses assignment
and checks its fields however it is built."""
import copy
import inspect
import pickle

import pytest

from cnnergy import arch, costmodel, energymodel, multigpu, powertrace, tuner
from cnnergy.errors import NonPositiveOutputError

SHAPE = arch.TensorShape(4, 4, 3)
CONV = arch.LayerSpec("c", "conv", kernel_w=3, kernel_h=3, out_channels=8)
NET = arch.NetworkSpec("n", SHAPE, (CONV,))
SHAPED = arch.infer_shapes(NET)
SUMMARY = costmodel.network_cost(SHAPED)
SOLO = multigpu.GpuSet.homogeneous("pascal", 1)
CONFIG = tuner.TrainingConfig("two_d_cnn", 64, SOLO, 9)

#: One record of every class, and for a class with checks a ``_replace`` that
#: breaks one, with the error the constructor raises for it.
RECORDS = [
    (SHAPE, {"width": 0}, ValueError("TensorShape.width must be a positive int, got 0")),
    (CONV, {"kind": "nope"}, ValueError("unknown layer kind 'nope'")),
    (NET, {"layers": [CONV, CONV]}, ValueError("duplicate layer name 'c'")),
    (SHAPED.per_layer[0], {"input": arch.TensorShape(2, 2, 3)},
     NonPositiveOutputError("layer 'c': kernel 3 does not fit input of size 2 with padding 0")),
    (SHAPED, None, None),
    (SUMMARY, {"element_bytes": 0},
     ValueError("element_bytes (--element-bytes) must be >= 1, got 0")),
    (SUMMARY.total, None, None),
    (energymodel.DeviceProfile("pascal", 2 ** 30), {"dram_bytes": 0},
     ValueError("DeviceProfile.dram_bytes must be positive and finite")),
    (energymodel.MeasurementRecord("pascal", "n", "forward", 1, 64, 0.01, 4.0), {"batch": 0},
     ValueError("gpus and batch must be >= 1")),
    (energymodel.TrainingPlan("two_d_cnn", 64, 9), {"iterations": 0},
     ValueError("batch and iterations must be >= 1")),
    (energymodel.CalibratedModel("pascal", "n", "forward", 1, "seconds", 1e-4, 0.001, 1.0,
                                 (0.0, 0.0), 64, 128, 2), {"batch_min": 0},
     ValueError("bad value for 'batch_min': 0")),
    (energymodel.SkippedGroup("pascal", "n", "forward", 1, "seconds", "why"), None, None),
    (energymodel.Prediction(0.5, False), None, None),
    (energymodel.GenerationGap("n", "forward", 1, 64, 10.0, -5.0), None, None),
    (SOLO, {"members": (("pascal", 0),)},
     ValueError("members must be (name, count >= 1) pairs, got ('pascal', 0)")),
    (powertrace.PowerTrace.build(("a",), [0.0], [[1.0]]), None, None),
    (powertrace.Region("r", "forward", 0.0, 1.0), {"t_end": 0.0},
     ValueError("region 'r': t_start must be < t_end")),
    (powertrace.EnergyResult(2.0, (1.0, 1.0), 1.0, 2.0), None, None),
    (powertrace.SegmentSpec(1.0, 100.0), {"duration_s": 0.0},
     ValueError("segment duration must be finite and > 0")),
    (tuner.MemoryEstimate(True, 1, 2), None, None),
    (CONFIG, {"iterations": 0}, ValueError("iterations must be >= 1")),
    (tuner.ConfigReport(CONFIG, True, "fits", 1.0, 2.0, 2.0), None, None),
    (tuner.AccuracyRecord("n", 64, "top-1", 50.0), {"value": 101.0},
     ValueError("accuracy must be in [0, 100], got 101.0")),
    (tuner.Recommendation("small", "plain_conv", "two_d_cnn", 64, (64,), "why"), None, None),
]
IDS = [type(record).__name__ for record, _, _ in RECORDS]


def test_every_record_class_is_listed():
    classes = {cls for module in (arch, costmodel, energymodel, multigpu, powertrace, tuner)
               for cls in vars(module).values()
               if inspect.isclass(cls) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__}
    assert sorted(IDS) == sorted(cls.__name__ for cls in classes)


@pytest.mark.parametrize("record", [record for record, _, _ in RECORDS], ids=IDS)
def test_a_record_survives_pickle_and_deepcopy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("record", [record for record, _, _ in RECORDS], ids=IDS)
def test_a_record_refuses_assignment_to_its_fields(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record, changes, error",
                         [case for case in RECORDS if case[1] is not None],
                         ids=[name for name, case in zip(IDS, RECORDS) if case[1] is not None])
def test_replace_runs_the_constructor_checks(record, changes, error):
    with pytest.raises(type(error)) as replaced:
        record._replace(**changes)
    assert str(replaced.value) == str(error)
