"""Operation counts and data volumes for shaped networks.

Each layer kind maps to a closed-form count of its dominant arithmetic
(multiply-accumulates, comparisons, adds/divides, ...) and to the tensor
elements it reads and writes. Traffic is physical: weights count at full
size (``k_w*k_h*(ch_in/groups)*ch_out`` plus bias for conv,
``in_elems*units`` for fc) and multi-pass layers touch activations once per
pass (batch_norm reads and writes twice, softmax three times, residual_sum
reads its two addends).

One function, :func:`layer_cost`, works out every count of a layer: its six
operation counts and the elements it reads and writes, as one flat
:class:`LayerCost` row of plain integers. :func:`network_cost` keeps one
such row per layer and sums the columns into ``CostSummary.total``, a row
of the same type; ``LayerCost.total_ops`` adds a row's six operation counts.

All counts are exact integers per sample; :func:`batch_cost` scales them
exactly by the batch size. A :class:`cnnergy.arch.ShapedLayer` carries the
output that :func:`cnnergy.arch.layer_output`, the one home of layer
geometry, works out for it, so the counts here take its shapes as given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

from . import arch
from ._tables import render
from .arch import ShapedLayer, ShapedNetwork


class LayerCost(NamedTuple):
    """One layer's costs on one sample (or a sum or multiple of such rows):
    six operation counts, then the tensor elements read and written."""

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

    @property
    def total_ops(self) -> int:
        """All operations summed; one macc counts as one operation."""
        return (self.macc + self.max_ops + self.add_div + self.exp_add_div
                + self.mul01 + self.bias_add)


@dataclass(frozen=True)
class CostSummary:
    """Whole-network cost: per-layer rows plus their column sums.

    ``per_layer`` holds one :class:`LayerCost` row per layer and ``total``
    the row ``LayerCost("total", "", ...)`` of their column sums; the
    ``total_*`` properties read it. ``ctc`` is the compute-to-traffic ratio
    total_ops / total_read_elems (operations per tensor element read);
    ``None`` for an empty network. An ``element_bytes`` below 1 raises
    ``ValueError``.
    """

    per_layer: tuple[LayerCost, ...]
    total: LayerCost
    element_bytes: int

    def __post_init__(self):
        if self.element_bytes < 1:
            raise ValueError("element_bytes must be >= 1")

    @property
    def total_ops(self) -> int:
        return self.total.total_ops

    @property
    def total_read_elems(self) -> int:
        return self.total.read_elems

    @property
    def total_written_elems(self) -> int:
        return self.total.written_elems

    @property
    def total_read_bytes(self) -> int:
        return self.total.read_elems * self.element_bytes

    @property
    def total_written_bytes(self) -> int:
        return self.total.written_elems * self.element_bytes

    @property
    def ctc(self) -> float | None:
        read = self.total.read_elems
        return self.total_ops / read if read > 0 else None


#: (reads of the input tensor, writes of the output tensor) for kinds that
#: touch an activation more than once.
_PASSES = {
    "batch_norm": (2, 2),    # mean/var pass, then normalize pass
    "softmax": (3, 3),       # max, exp-sum, divide
    "residual_sum": (2, 1),  # two addends in, one sum out
}


def layer_cost(shaped_layer: ShapedLayer) -> LayerCost:
    """Costs of one shaped layer applied to one sample: its operation counts,
    the elements it reads (its input activations once per pass plus its full
    weight set) and the elements it writes (its output once per pass)."""
    layer, inp, out = shaped_layer.spec, shaped_layer.input, shaped_layer.output
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
    return LayerCost(layer.name, kind, macc, max_ops, add_div, exp_add_div, mul01, bias_add,
                     inp.elements * read_mult + arch.layer_weight_elems(layer, inp),
                     out.elements * write_mult)


def network_cost(shaped: ShapedNetwork, element_bytes: int = 4) -> CostSummary:
    """Per-sample cost of a whole network. An input-only network yields
    all-zero totals and ``ctc=None``.

    Raises:
        ValueError: ``element_bytes`` is below 1.
    """
    rows = tuple(map(layer_cost, shaped.per_layer))
    # The eight count columns; an input-only network has no rows to zip.
    columns = list(zip(*rows))[2:] if rows else [()] * 8
    return CostSummary(rows, LayerCost("total", "", *map(sum, columns)), element_bytes)


@cache
def _builtin_rows(name: str) -> tuple[tuple[LayerCost, ...], LayerCost]:
    """The per-layer rows and total of a built-in network, worked out once
    per process; they do not depend on ``element_bytes``."""
    summary = network_cost(arch._builtin_shapes(name))
    return summary.per_layer, summary.total


def batch_cost(summary: CostSummary, batch_size: int) -> CostSummary:
    """Scale a per-sample summary by ``batch_size``: every per-layer count
    and every total is multiplied exactly; ``ctc``, a ratio, is unchanged."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    *rows, total = (
        LayerCost(name, kind, *[count * batch_size for count in counts])
        for name, kind, *counts in (*summary.per_layer, summary.total)
    )
    return CostSummary(tuple(rows), total, summary.element_bytes)


def _cost_rows(summary: CostSummary) -> list[tuple[str, ...]]:
    """The cells of :func:`cost_csv`: the header, one row per layer, then
    the ``total`` row."""
    nbytes = summary.element_bytes
    return [("layer", "kind", "macc", "max_ops", "add_div", "exp_add_div", "mul01",
             "bias_add", "read_bytes", "written_bytes"), *[
        (name, kind, str(macc), str(max_ops), str(add_div), str(exp_add_div), str(mul01),
         str(bias_add), str(read * nbytes), str(written * nbytes))
        for name, kind, macc, max_ops, add_div, exp_add_div, mul01, bias_add, read, written
        in (*summary.per_layer, summary.total)]]


def cost_csv(summary: CostSummary) -> str:
    """Per-layer cost report as CSV, ending with the ``total`` row."""
    return render((), _cost_rows(summary))
