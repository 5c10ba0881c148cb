"""Operation counts and data volumes for shaped networks.

Each layer kind maps to a closed-form count of its dominant arithmetic
(multiply-accumulates, comparisons, adds/divides, ...) and to the tensor
elements it reads and writes. Traffic is physical: weights count at full
size (``k_w*k_h*(ch_in/groups)*ch_out`` plus bias for conv,
``in_elems*units`` for fc) and multi-pass layers touch activations once per
pass (batch_norm reads and writes twice, softmax three times, residual_sum
reads its two addends).

All counts are exact integers per sample; :func:`batch_cost` scales them
exactly by the batch size. Shapes are checked against
:func:`cnnergy.arch.layer_output`, the one home of layer geometry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from . import arch
from .arch import LayerSpec, ShapedNetwork, TensorShape
from .errors import (
    GroupMismatchError,
    NonPositiveOutputError,
    ShapeConflictError,
    ShapeMismatchError,
)


@dataclass(frozen=True)
class OpCount:
    """Per-kind operation tally for one layer (or a sum of layers)."""

    macc: int = 0
    max_ops: int = 0
    add_div: int = 0
    exp_add_div: int = 0
    mul01: int = 0
    bias_add: int = 0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"OpCount.{name} must be >= 0, got {value}")

    def total(self) -> int:
        """All operations summed; one macc counts as one operation."""
        return (self.macc + self.max_ops + self.add_div + self.exp_add_div
                + self.mul01 + self.bias_add)

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(
            self.macc + other.macc,
            self.max_ops + other.max_ops,
            self.add_div + other.add_div,
            self.exp_add_div + other.exp_add_div,
            self.mul01 + other.mul01,
            self.bias_add + other.bias_add,
        )


@dataclass(frozen=True)
class DataVolume:
    """Tensor elements read and written by one layer (or a sum of layers)."""

    read_elems: int
    written_elems: int
    element_bytes: int = 4

    def __post_init__(self):
        if self.read_elems < 0 or self.written_elems < 0:
            raise ValueError("element counts must be >= 0")
        if self.element_bytes < 1:
            raise ValueError("element_bytes must be >= 1")

    @property
    def read_bytes(self) -> int:
        return self.read_elems * self.element_bytes

    @property
    def written_bytes(self) -> int:
        return self.written_elems * self.element_bytes

    def __add__(self, other: "DataVolume") -> "DataVolume":
        if self.element_bytes != other.element_bytes:
            raise ValueError("cannot add DataVolumes with different element_bytes")
        return DataVolume(self.read_elems + other.read_elems,
                          self.written_elems + other.written_elems,
                          self.element_bytes)


@dataclass(frozen=True)
class LayerCost:
    name: str
    kind: str
    ops: OpCount
    data: DataVolume


@dataclass(frozen=True)
class CostSummary:
    """Whole-network per-sample cost: per-layer rows plus exact totals.

    ``ctc`` is the compute-to-traffic ratio total_ops / total_read_elems
    (operations per tensor element read); ``None`` for an empty network.
    """

    per_layer: tuple[LayerCost, ...]
    total_ops: int
    total_read_elems: int
    total_written_elems: int
    element_bytes: int
    ctc: float | None

    @property
    def total_read_bytes(self) -> int:
        return self.total_read_elems * self.element_bytes

    @property
    def total_written_bytes(self) -> int:
        return self.total_written_elems * self.element_bytes


def _check_shapes(layer: LayerSpec, inp: TensorShape, out: TensorShape) -> None:
    """Raise ShapeMismatchError unless ``out`` is what ``layer`` makes of ``inp``."""
    try:
        expected = arch.layer_output(layer, inp)
    except (NonPositiveOutputError, GroupMismatchError, ShapeConflictError) as exc:
        raise ShapeMismatchError(str(exc)) from None
    if out != expected:
        raise ShapeMismatchError(
            f"layer {layer.name!r} ({layer.kind}): output {out} inconsistent with "
            f"input {inp}; expected {expected}"
        )


def layer_ops(layer: LayerSpec, inp: TensorShape, out: TensorShape) -> OpCount:
    """Operation counts of one layer applied to one sample.

    Raises:
        ShapeMismatchError: ``out`` is not what ``layer`` produces from ``inp``.
    """
    _check_shapes(layer, inp, out)
    return _layer_ops(layer, inp, out)


def _layer_ops(layer: LayerSpec, inp: TensorShape, out: TensorShape) -> OpCount:
    kind = layer.kind
    if kind == "conv":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height
        macc = window * (inp.channels // layer.groups) * out.channels
        bias = out.channels if layer.has_bias else 0
        return OpCount(macc=macc, bias_add=bias)
    if kind == "fully_connected":
        return OpCount(macc=inp.elements * layer.units)
    if kind == "pool":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height * inp.channels
        if layer.pool_kind == "average":
            return OpCount(add_div=window)
        return OpCount(max_ops=window)
    if kind == "relu":
        return OpCount(max_ops=out.elements)
    if kind == "dropout":
        return OpCount(mul01=out.elements)
    if kind == "batch_norm":
        return OpCount(add_div=2 * out.elements)
    if kind == "softmax":
        return OpCount(exp_add_div=3 * out.elements)
    if kind == "residual_sum":
        return OpCount(add_div=out.elements)
    # local_response_norm: one add/div per window cell, like average pooling.
    window = layer.kernel_w * layer.kernel_h * out.width * out.height * out.channels
    return OpCount(add_div=window)


#: (reads of the input tensor, writes of the output tensor) for kinds that
#: touch an activation more than once.
_PASSES = {
    "batch_norm": (2, 2),    # mean/var pass, then normalize pass
    "softmax": (3, 3),       # max, exp-sum, divide
    "residual_sum": (2, 1),  # two addends in, one sum out
}


def layer_data(layer: LayerSpec, inp: TensorShape, out: TensorShape,
               element_bytes: int = 4) -> DataVolume:
    """Elements read and written by one layer on one sample: its input
    activations once per pass plus its full weight set, and its output
    activations once per pass (see module docstring).

    Raises:
        ShapeMismatchError: ``out`` is not what ``layer`` produces from ``inp``.
    """
    _check_shapes(layer, inp, out)
    return _layer_data(layer, inp, out, element_bytes)


def _layer_data(layer: LayerSpec, inp: TensorShape, out: TensorShape,
                element_bytes: int) -> DataVolume:
    read_mult, write_mult = _PASSES.get(layer.kind, (1, 1))
    read = inp.elements * read_mult + arch.layer_weight_elems(layer, inp)
    return DataVolume(read, out.elements * write_mult, element_bytes)


def network_cost(shaped: ShapedNetwork, element_bytes: int = 4) -> CostSummary:
    """Per-sample cost of a whole network. An input-only network yields
    all-zero totals and ``ctc=None``.

    Raises:
        ShapeMismatchError: a layer's output is not what it makes of its input.
    """
    rows = []
    ops_total = OpCount()
    data_total = DataVolume(0, 0, element_bytes)
    for sl in shaped.per_layer:
        _check_shapes(sl.spec, sl.input, sl.output)
        ops = _layer_ops(sl.spec, sl.input, sl.output)
        data = _layer_data(sl.spec, sl.input, sl.output, element_bytes)
        rows.append(LayerCost(sl.spec.name, sl.spec.kind, ops, data))
        ops_total = ops_total + ops
        data_total = data_total + data
    ctc = None
    if data_total.read_elems > 0:
        ctc = ops_total.total() / data_total.read_elems
    return CostSummary(
        per_layer=tuple(rows),
        total_ops=ops_total.total(),
        total_read_elems=data_total.read_elems,
        total_written_elems=data_total.written_elems,
        element_bytes=element_bytes,
        ctc=ctc,
    )


def batch_cost(summary: CostSummary, batch_size: int) -> CostSummary:
    """Scale a per-sample summary by ``batch_size``: every per-layer count
    and every total is multiplied exactly; ``ctc``, a ratio, is unchanged."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = tuple(
        LayerCost(row.name, row.kind,
                  OpCount(*(count * batch_size for count in vars(row.ops).values())),
                  DataVolume(row.data.read_elems * batch_size,
                             row.data.written_elems * batch_size,
                             row.data.element_bytes))
        for row in summary.per_layer
    )
    return CostSummary(
        per_layer=rows,
        total_ops=summary.total_ops * batch_size,
        total_read_elems=summary.total_read_elems * batch_size,
        total_written_elems=summary.total_written_elems * batch_size,
        element_bytes=summary.element_bytes,
        ctc=summary.ctc,
    )


def cost_csv(summary: CostSummary) -> str:
    """Per-layer cost report as CSV with a trailing totals row."""
    out = io.StringIO()
    out.write("layer,kind,macc,max_ops,add_div,exp_add_div,mul01,bias_add,"
              "read_bytes,written_bytes\n")
    total = OpCount()
    for row in summary.per_layer:
        o = row.ops
        out.write(f"{row.name},{row.kind},{o.macc},{o.max_ops},{o.add_div},"
                  f"{o.exp_add_div},{o.mul01},{o.bias_add},"
                  f"{row.data.read_bytes},{row.data.written_bytes}\n")
        total = total + o
    out.write(f"total,,{total.macc},{total.max_ops},{total.add_div},"
              f"{total.exp_add_div},{total.mul01},{total.bias_add},"
              f"{summary.total_read_bytes},{summary.total_written_bytes}\n")
    return out.getvalue()
