"""Operation counts and data volumes for shaped networks.

Each layer kind maps to a closed-form count of its dominant arithmetic
(multiply-accumulates, comparisons, adds/divides, ...) and to the tensor
elements it reads and writes. Traffic is physical: weights count at full
size (``k_w*k_h*(ch_in/groups)*ch_out`` plus bias for conv,
``in_elems*units`` for fc) and multi-pass layers touch activations once per
pass (batch_norm reads and writes twice, softmax three times, residual_sum
reads its two addends).

One private function, ``_layer_counts``, works out every count of a layer:
its six operation counts (in :class:`OpCount` field order) and the elements
it reads and writes, as plain integers. :func:`network_cost` keeps them as
one flat :class:`LayerCost` row per layer and sums the columns into the
totals of a :class:`CostSummary`; :func:`layer_ops` and :func:`layer_data`
wrap the same counts in an :class:`OpCount` and a :class:`DataVolume`.

All counts are exact integers per sample; :func:`batch_cost` scales them
exactly by the batch size. Shapes are checked against
:func:`cnnergy.arch.layer_output`, the one home of layer geometry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import NamedTuple

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

    def scaled(self, factor: int) -> "OpCount":
        """Every count multiplied by ``factor``."""
        return OpCount(*(count * factor for count in vars(self).values()))


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


class LayerCost(NamedTuple):
    """One layer's row of a :class:`CostSummary`: the six operation counts
    of :class:`OpCount`, then the tensor elements read and written."""

    name: str
    kind: str
    macc: int
    max_ops: int
    add_div: int
    exp_add_div: int
    mul01: int
    bias_add: int
    read_elems: int
    written_elems: int


@dataclass(frozen=True)
class CostSummary:
    """Whole-network per-sample cost: per-layer rows plus exact totals.

    ``per_layer`` holds one :class:`LayerCost` row per layer, ``ops`` the
    per-kind operation totals and ``total_ops`` their sum.
    ``ctc`` is the compute-to-traffic ratio total_ops / total_read_elems
    (operations per tensor element read); ``None`` for an empty network.
    """

    per_layer: tuple[LayerCost, ...]
    ops: OpCount
    total_read_elems: int
    total_written_elems: int
    element_bytes: int
    ctc: float | None

    @property
    def total_ops(self) -> int:
        return self.ops.total()

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


#: (reads of the input tensor, writes of the output tensor) for kinds that
#: touch an activation more than once.
_PASSES = {
    "batch_norm": (2, 2),    # mean/var pass, then normalize pass
    "softmax": (3, 3),       # max, exp-sum, divide
    "residual_sum": (2, 1),  # two addends in, one sum out
}


def _layer_counts(layer: LayerSpec, inp: TensorShape, out: TensorShape) -> tuple[int, ...]:
    """``(macc, max_ops, add_div, exp_add_div, mul01, bias_add, read_elems,
    written_elems)`` of one layer on one sample; shapes are not checked."""
    kind = layer.kind
    macc = max_ops = add_div = exp_add_div = mul01 = bias_add = 0
    if kind == "conv":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height
        macc = window * (inp.channels // layer.groups) * out.channels
        if layer.has_bias:
            bias_add = out.channels
    elif kind == "fully_connected":
        macc = inp.elements * layer.units
    elif kind == "pool":
        window = layer.kernel_w * layer.kernel_h * out.width * out.height * inp.channels
        if layer.pool_kind == "average":
            add_div = window
        else:
            max_ops = window
    elif kind == "relu":
        max_ops = out.elements
    elif kind == "dropout":
        mul01 = out.elements
    elif kind == "batch_norm":
        add_div = 2 * out.elements
    elif kind == "softmax":
        exp_add_div = 3 * out.elements
    elif kind == "residual_sum":
        add_div = out.elements
    else:
        # local_response_norm: one add/div per window cell, like average pooling.
        add_div = layer.kernel_w * layer.kernel_h * out.width * out.height * out.channels
    read_mult, write_mult = _PASSES.get(kind, (1, 1))
    return (macc, max_ops, add_div, exp_add_div, mul01, bias_add,
            inp.elements * read_mult + arch.layer_weight_elems(layer, inp),
            out.elements * write_mult)


def layer_ops(layer: LayerSpec, inp: TensorShape, out: TensorShape) -> OpCount:
    """Operation counts of one layer applied to one sample.

    Raises:
        ShapeMismatchError: ``out`` is not what ``layer`` produces from ``inp``.
    """
    _check_shapes(layer, inp, out)
    return OpCount(*_layer_counts(layer, inp, out)[:6])


def layer_data(layer: LayerSpec, inp: TensorShape, out: TensorShape,
               element_bytes: int = 4) -> DataVolume:
    """Elements read and written by one layer on one sample: its input
    activations once per pass plus its full weight set, and its output
    activations once per pass (see module docstring).

    Raises:
        ShapeMismatchError: ``out`` is not what ``layer`` produces from ``inp``.
    """
    _check_shapes(layer, inp, out)
    read, written = _layer_counts(layer, inp, out)[6:]
    return DataVolume(read, written, element_bytes)


def network_cost(shaped: ShapedNetwork, element_bytes: int = 4) -> CostSummary:
    """Per-sample cost of a whole network. An input-only network yields
    all-zero totals and ``ctc=None``.

    Raises:
        ShapeMismatchError: a layer's output is not what it makes of its input.
        ValueError: ``element_bytes`` is below 1.
    """
    if element_bytes < 1:
        raise ValueError("element_bytes must be >= 1")
    rows = []
    for sl in shaped.per_layer:
        spec = sl.spec
        _check_shapes(spec, sl.input, sl.output)
        rows.append(LayerCost(spec.name, spec.kind, *_layer_counts(spec, sl.input, sl.output)))
    # The eight count columns; an input-only network has no rows to zip.
    columns = list(zip(*rows))[2:] if rows else [()] * 8
    *op_totals, read, written = map(sum, columns)
    ops = OpCount(*op_totals)
    return CostSummary(
        per_layer=tuple(rows),
        ops=ops,
        total_read_elems=read,
        total_written_elems=written,
        element_bytes=element_bytes,
        ctc=ops.total() / read if read > 0 else None,
    )


def batch_cost(summary: CostSummary, batch_size: int) -> CostSummary:
    """Scale a per-sample summary by ``batch_size``: every per-layer count
    and every total is multiplied exactly; ``ctc``, a ratio, is unchanged."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rows = tuple(
        LayerCost(name, kind, *[count * batch_size for count in counts])
        for name, kind, *counts in summary.per_layer
    )
    return CostSummary(
        per_layer=rows,
        ops=summary.ops.scaled(batch_size),
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
    nbytes = summary.element_bytes
    for row in summary.per_layer:
        out.write(f"{row.name},{row.kind},{row.macc},{row.max_ops},{row.add_div},"
                  f"{row.exp_add_div},{row.mul01},{row.bias_add},"
                  f"{row.read_elems * nbytes},{row.written_elems * nbytes}\n")
    total = summary.ops
    out.write(f"total,,{total.macc},{total.max_ops},{total.add_div},"
              f"{total.exp_add_div},{total.mul01},{total.bias_add},"
              f"{summary.total_read_bytes},{summary.total_written_bytes}\n")
    return out.getvalue()
