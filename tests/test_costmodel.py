"""Operation counts, data volumes, and whole-network cost summaries."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnergy.arch import (
    LayerSpec,
    NetworkSpec,
    ShapedLayer,
    ShapedNetwork,
    TensorShape,
    builtin_network,
    infer_shapes,
    layer_weight_elems,
    parse_network,
)
from cnnergy.costmodel import (
    LayerCost,
    batch_cost,
    cost_csv,
    layer_cost,
    network_cost,
)
from cnnergy.errors import CnnergyError, ShapeMismatchError

from oracles import (
    conv_macc_by_enumeration,
    conv_macc_per_placement,
    pool_ops_per_placement,
    slide_positions,
)
from test_arch import arch_texts


def conv(k, co, stride=1, pad=0, groups=1, bias=False, name="c"):
    return LayerSpec(name, "conv", kernel_w=k, kernel_h=k, stride=stride,
                     padding=pad, out_channels=co, groups=groups, has_bias=bias)


def csv_row(row, element_bytes):
    """One line of ``cost_csv``: the row's counts, with elements as bytes."""
    return ",".join(map(str, (*row[:8], row.read_elems * element_bytes,
                              row.written_elems * element_bytes)))


def shaped_single(layer, inp):
    """Run shape inference for one layer and return (input, output)."""
    net = NetworkSpec("n", inp, (layer,))
    sl = infer_shapes(net).per_layer[0]
    return sl.input, sl.output


# ---------------------------------------------------------------------------
# Per-layer operation buckets
# ---------------------------------------------------------------------------

def test_conv_ops_small_case():
    layer = conv(2, 3, bias=True)
    inp, out = shaped_single(layer, TensorShape(4, 4, 2))
    ops = layer_cost(layer, inp, out)
    assert ops.macc == (2 * 2) * (3 * 3) * 2 * 3
    assert ops.bias_add == 3
    assert ops.total_ops == ops.macc + 3


def test_conv_ops_groups_divide_channels():
    plain = conv(3, 8, name="a")
    grouped = conv(3, 8, groups=2, name="b")
    inp, out = shaped_single(plain, TensorShape(6, 6, 4))
    assert layer_cost(grouped, inp, out).macc * 2 == layer_cost(plain, inp, out).macc


def test_two_d_cnn_first_conv_macc():
    shaped = infer_shapes(builtin_network("two_d_cnn"))
    first = shaped.per_layer[0]
    ops = layer_cost(first.spec, first.input, first.output)
    assert ops.macc == (7 * 7) * (54 * 54) * 50 * 96  # 685,843,200


def test_caffenet_grouped_conv2_macc():
    shaped = infer_shapes(builtin_network("caffenet"))
    conv2 = next(sl for sl in shaped.per_layer if sl.spec.name == "conv2")
    ops = layer_cost(conv2.spec, conv2.input, conv2.output)
    assert ops.macc == (5 * 5) * (27 * 27) * (96 // 2) * 256


@pytest.mark.parametrize("pool_kind,bucket", [("max", "max_ops"), ("average", "add_div")])
def test_pool_ops_bucket(pool_kind, bucket):
    layer = LayerSpec("p", "pool", kernel_w=2, kernel_h=2, stride=2,
                      pool_kind=pool_kind)
    inp, out = shaped_single(layer, TensorShape(4, 4, 2))
    ops = layer_cost(layer, inp, out)
    assert getattr(ops, bucket) == (2 * 2) * (2 * 2) * 2
    assert ops.total_ops == getattr(ops, bucket)


def test_elementwise_ops_buckets():
    shape = TensorShape(5, 5, 3)
    elems = shape.elements
    cases = [
        (LayerSpec("r", "relu"), "max_ops", elems),
        (LayerSpec("d", "dropout"), "mul01", elems),
        (LayerSpec("b", "batch_norm"), "add_div", 2 * elems),
        (LayerSpec("s", "softmax"), "exp_add_div", 3 * elems),
    ]
    for layer, bucket, expected in cases:
        ops = layer_cost(layer, shape, shape)
        assert getattr(ops, bucket) == expected, layer.kind
        assert ops.total_ops == expected


def test_residual_sum_ops():
    shape = TensorShape(5, 5, 3)
    layer = LayerSpec("sum", "residual_sum", skip="x")
    ops = layer_cost(layer, shape, shape)
    assert ops.add_div == shape.elements


def test_local_response_norm_ops():
    shape = TensorShape(5, 5, 2)
    layer = LayerSpec("n", "local_response_norm", kernel_w=3, kernel_h=3)
    ops = layer_cost(layer, shape, shape)
    assert ops.add_div == (3 * 3) * (5 * 5) * 2


def test_fully_connected_ops():
    layer = LayerSpec("f", "fully_connected", units=5)
    ops = layer_cost(layer, TensorShape(2, 2, 3), TensorShape(1, 1, 5))
    assert ops.macc == 12 * 5


def test_layer_cost_rejects_inconsistent_output():
    cases = [
        (conv(2, 3, name="wrong_out"), TensorShape(4, 4, 2), TensorShape(5, 5, 3)),
        (conv(3, 4, groups=3, name="bad_groups"), TensorShape(6, 6, 4), TensorShape(4, 4, 4)),
        (conv(5, 3, name="too_big"), TensorShape(3, 3, 2), TensorShape(1, 1, 3)),
        (LayerSpec("bad_softmax", "softmax", units=5), TensorShape(1, 1, 3),
         TensorShape(1, 1, 3)),
    ]
    for layer, inp, out in cases:
        shaped = ShapedNetwork(NetworkSpec("n", inp, (layer,)), (ShapedLayer(layer, inp, out),))
        for check in (lambda: layer_cost(layer, inp, out), lambda: network_cost(shaped)):
            with pytest.raises(ShapeMismatchError) as err:
                check()
            assert str(err.value).count(repr(layer.name)) == 1, str(err.value)


# ---------------------------------------------------------------------------
# Sliding-window oracle equivalence (the dense grid runs in acceptance)
# ---------------------------------------------------------------------------

def test_conv_macc_matches_oracles_small_grid():
    for w in range(1, 6):
        for h in range(1, 6):
            for k in (1, 2, 3):
                for s in (1, 2):
                    for p in (0, 1):
                        if not (slide_positions(w, k, s, p)
                                and slide_positions(h, k, s, p)):
                            continue
                        for ci, co, g in ((1, 1, 1), (2, 3, 1), (4, 2, 2)):
                            layer = conv(k, co, stride=s, pad=p, groups=g)
                            inp, out = shaped_single(layer, TensorShape(w, h, ci))
                            got = layer_cost(layer, inp, out).macc
                            assert got == conv_macc_per_placement(
                                w, h, ci, co, k, k, s, p, g)
                            assert got == conv_macc_by_enumeration(
                                w, h, ci, co, k, k, s, p, g)


def test_pool_ops_matches_oracle_small_grid():
    for w in range(1, 6):
        for k in (1, 2, 3):
            for s in (1, 2):
                if not slide_positions(w, k, s, 0):
                    continue
                layer = LayerSpec("p", "pool", kernel_w=k, kernel_h=k,
                                  stride=s, pool_kind="max")
                inp, out = shaped_single(layer, TensorShape(w, w, 3))
                got = layer_cost(layer, inp, out).max_ops
                assert got == pool_ops_per_placement(w, w, 3, k, k, s, 0)


# ---------------------------------------------------------------------------
# Data volumes
# ---------------------------------------------------------------------------

def test_conv_data_counts_full_weight_set():
    layer = conv(2, 3, bias=True)
    inp, out = shaped_single(layer, TensorShape(4, 4, 2))
    vol = layer_cost(layer, inp, out)
    # the input once plus every weight: k*k*ci*co and the bias vector
    assert vol.read_elems == 4 * 4 * 2 + (2 * 2 * 2 * 3 + 3)
    assert vol.written_elems == out.elements
    net = ShapedNetwork(NetworkSpec("n", inp, (layer,)), (ShapedLayer(layer, inp, out),))
    assert network_cost(net).total_read_bytes == vol.read_elems * 4


def test_pool_data_reads_only_its_input():
    layer = LayerSpec("p", "pool", kernel_w=3, kernel_h=3, stride=2,
                      pool_kind="max")
    inp, out = shaped_single(layer, TensorShape(7, 7, 2))
    vol = layer_cost(layer, inp, out)
    assert vol.read_elems == 7 * 7 * 2
    assert vol.written_elems == out.elements


def test_elementwise_data_multiplicities():
    shape = TensorShape(4, 4, 2)
    elems = shape.elements
    # normalization and softmax make extra passes
    expect = {"relu": (1, 1), "dropout": (1, 1), "batch_norm": (2, 2),
              "softmax": (3, 3)}
    for kind, (r, w) in expect.items():
        vol = layer_cost(LayerSpec("x", kind), shape, shape)
        assert (vol.read_elems, vol.written_elems) == (r * elems, w * elems), kind
    vol = layer_cost(LayerSpec("s", "residual_sum", skip="y"), shape, shape)
    assert (vol.read_elems, vol.written_elems) == (2 * elems, elems)


def test_fc_data_physical_includes_weights():
    layer = LayerSpec("f", "fully_connected", units=5)
    inp, out = TensorShape(2, 2, 3), TensorShape(1, 1, 5)
    assert layer_cost(layer, inp, out).read_elems == 12 + 12 * 5


def test_layer_weight_elems():
    assert layer_weight_elems(conv(3, 8), TensorShape(6, 6, 4)) == 3 * 3 * 4 * 8
    assert layer_weight_elems(conv(3, 8, groups=2), TensorShape(6, 6, 4)) \
        == 3 * 3 * 2 * 8
    assert layer_weight_elems(conv(3, 8, bias=True), TensorShape(6, 6, 4)) \
        == 3 * 3 * 4 * 8 + 8
    assert layer_weight_elems(LayerSpec("f", "fully_connected", units=5),
                              TensorShape(2, 2, 3)) == 60
    assert layer_weight_elems(LayerSpec("r", "relu"), TensorShape(2, 2, 3)) == 0


# ---------------------------------------------------------------------------
# Whole-network summaries (exact frozen totals)
# ---------------------------------------------------------------------------

EXPECTED_TOTALS = {
    # network: (ops, read_elems, written_elems)
    "two_d_cnn": (783_854_257, 19_345_905, 490_668),
    "caffenet": (729_009_656, 62_672_691, 1_564_448),
    "resnet_gait": (423_322_833, 21_732_017, 1_271_212),
    "resnet_im": (1_999_150_520, 25_938_040, 12_397_984),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_TOTALS))
def test_builtin_network_cost_totals(name):
    summary = network_cost(infer_shapes(builtin_network(name)))
    ops, read, written = EXPECTED_TOTALS[name]
    assert summary.total_ops == ops
    assert summary.total_read_elems == read
    assert summary.total_written_elems == written
    assert summary.ctc == pytest.approx(ops / read, rel=1e-12)
    assert summary.total_read_bytes == read * 4
    # totals equal the per-layer sums
    assert sum(r.macc + r.max_ops + r.add_div + r.exp_add_div + r.mul01 + r.bias_add
               for r in summary.per_layer) == ops
    assert sum(r.read_elems for r in summary.per_layer) == read


@given(arch_texts(), st.integers(min_value=1, max_value=4096))
@settings(max_examples=250, deadline=None)
def test_network_cost_totals_are_the_per_layer_sums(text, batch):
    try:
        shaped = infer_shapes(parse_network(text))
    except CnnergyError:
        return
    summary = network_cost(shaped)
    rows = summary.per_layer
    sums = [sum(row[i] for row in rows) for i in range(2, 8)]
    read = sum(row.read_elems for row in rows)
    written = sum(row.written_elems for row in rows)
    assert summary.total == LayerCost("total", "", *sums, read, written)
    assert summary.total_ops == sum(sums)
    assert (summary.total_read_elems, summary.total_written_elems) == (read, written)
    scaled = batch_cost(summary, batch)
    assert scaled.total == LayerCost("total", "", *(batch * total for total in sums),
                                     batch * read, batch * written)
    assert scaled.total_ops == batch * sum(sums)
    assert (scaled.total_read_elems, scaled.total_written_elems) == \
        (batch * read, batch * written)
    # int/int true division is correctly rounded, so scaling both sides
    # leaves the ratio bit for bit.
    assert scaled.ctc == summary.ctc
    # The CSV ends with the total row, written like every layer row.
    lines = cost_csv(summary).splitlines()
    assert lines[1:] == [csv_row(row, summary.element_bytes)
                         for row in (*rows, summary.total)]


def test_resnet_im_parameter_and_activation_counts():
    shaped = infer_shapes(builtin_network("resnet_im"))
    assert shaped.weight_elems == 12_010_688
    assert shaped.activation_elems == 10_037_712


@given(arch_texts(), st.integers(min_value=1, max_value=4096))
@settings(max_examples=200, deadline=None)
def test_network_cost_rows_are_the_per_layer_counts(text, batch):
    """Each row is what layer_cost gives for its layer, and batch_cost's row
    is that row times the batch."""
    try:
        shaped = infer_shapes(parse_network(text))
    except CnnergyError:
        return
    summary = network_cost(shaped)
    scaled = batch_cost(summary, batch)
    assert len(summary.per_layer) == len(scaled.per_layer) == len(shaped.per_layer)
    for sl, row, got in zip(shaped.per_layer, summary.per_layer, scaled.per_layer):
        assert row == layer_cost(sl.spec, sl.input, sl.output)
        assert got == LayerCost(row.name, row.kind, *(v * batch for v in row[2:]))


def test_network_cost_rejects_element_bytes_below_one():
    shaped = infer_shapes(builtin_network("two_d_cnn"))
    empty = infer_shapes(parse_network("input 4 4 1\n"))
    for net in (shaped, empty):
        with pytest.raises(ValueError, match="element_bytes must be >= 1"):
            network_cost(net, element_bytes=0)


def test_network_cost_element_bytes_scales_bytes_not_elems():
    shaped = infer_shapes(builtin_network("two_d_cnn"))
    half = network_cost(shaped, element_bytes=2)
    full = network_cost(shaped, element_bytes=4)
    assert half.total_read_elems == full.total_read_elems
    assert half.total_read_bytes * 2 == full.total_read_bytes


# ---------------------------------------------------------------------------
# Batch scaling
# ---------------------------------------------------------------------------

@given(batch=st.integers(min_value=1, max_value=4096))
@settings(max_examples=50, deadline=None)
def test_batch_cost_exact_linearity(batch):
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    scaled = batch_cost(summary, batch)
    assert scaled.total_ops == summary.total_ops * batch
    assert scaled.total_read_elems == summary.total_read_elems * batch
    assert scaled.total_written_elems == summary.total_written_elems * batch
    assert scaled.total_read_bytes == summary.total_read_bytes * batch
    assert scaled.ctc == summary.ctc
    assert len(scaled.per_layer) == len(summary.per_layer)
    for got, row in zip(scaled.per_layer, summary.per_layer):
        assert (got.name, got.kind) == (row.name, row.kind)
        assert (got.macc, got.max_ops, got.add_div, got.exp_add_div, got.mul01,
                got.bias_add) == tuple(v * batch for v in (
                    row.macc, row.max_ops, row.add_div, row.exp_add_div,
                    row.mul01, row.bias_add))
        assert (got.read_elems, got.written_elems) == \
            (row.read_elems * batch, row.written_elems * batch)
    assert scaled.element_bytes == summary.element_bytes


def test_batch_cost_rejects_nonpositive_batch():
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    with pytest.raises(ValueError):
        batch_cost(summary, 0)


# ---------------------------------------------------------------------------
# CSV report
# ---------------------------------------------------------------------------

def test_cost_csv_shape_and_totals_row():
    summary = network_cost(infer_shapes(builtin_network("two_d_cnn")))
    lines = cost_csv(summary).strip().splitlines()
    header = lines[0].split(",")
    assert header == ["layer", "kind", "macc", "max_ops", "add_div",
                      "exp_add_div", "mul01", "bias_add",
                      "read_bytes", "written_bytes"]
    assert len(lines) == 1 + len(summary.per_layer) + 1
    total = lines[-1].split(",")
    assert total[0] == "total"
    buckets = [int(x) for x in total[2:8]]
    assert sum(buckets) == summary.total_ops
    assert int(total[8]) == summary.total_read_bytes

