"""Architecture description, shape inference, and the parser/emitter."""
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnnergy import arch
from cnnergy.arch import (
    BUILTIN_NETWORK_NAMES,
    MAX_LAYERS,
    LayerSpec,
    NetworkSpec,
    TensorShape,
    builtin_network,
    conv_output_size,
    emit_network,
    infer_shapes,
    layer_output,
    parse_network,
)
from cnnergy.errors import (
    ArchSemanticError,
    ArchSyntaxError,
    CnnergyError,
    GroupMismatchError,
    NonPositiveOutputError,
    ShapeConflictError,
    UnknownNetworkError,
)

from oracles import (
    REFERENCE_LAYER_KINDS,
    check_layer_reference,
    emit_network_reference,
    residual_block_reference,
    slide_positions,
)


def conv(name, k, co, stride=1, pad=0, groups=1, bias=False):
    return LayerSpec(name, "conv", kernel_w=k, kernel_h=k, stride=stride,
                     padding=pad, out_channels=co, groups=groups, has_bias=bias)


def pool(name, k, stride, pad=0, kind="max"):
    return LayerSpec(name, "pool", kernel_w=k, kernel_h=k, stride=stride,
                     padding=pad, pool_kind=kind)


# ---------------------------------------------------------------------------
# TensorShape / output-size arithmetic
# ---------------------------------------------------------------------------

def test_tensor_shape_elements_and_str():
    shape = TensorShape(54, 54, 96)
    assert shape.elements == 54 * 54 * 96
    assert str(shape) == "54x54x96"


def test_tensor_shape_rejects_nonpositive_dims():
    with pytest.raises(ValueError):
        TensorShape(0, 5, 5)
    with pytest.raises(ValueError):
        TensorShape(5, 5, -1)


@pytest.mark.parametrize("size,k,s,p,expected", [
    (60, 7, 1, 0, 54),
    (227, 11, 4, 0, 55),
    (55, 3, 2, 0, 27),
    (224, 7, 2, 3, 112),
    (13, 3, 1, 1, 13),   # same-padding conv
    (5, 5, 1, 0, 1),     # kernel exactly covers the input
])
def test_conv_output_size_known_cases(size, k, s, p, expected):
    assert conv_output_size(size, k, s, p) == expected


def test_conv_output_size_matches_sliding_oracle():
    for size in range(1, 9):
        for k in range(1, 9):
            for s in (1, 2, 3):
                for p in (0, 1, 2):
                    expected = slide_positions(size, k, s, p)
                    if expected == 0:
                        with pytest.raises(NonPositiveOutputError):
                            conv_output_size(size, k, s, p)
                    else:
                        assert conv_output_size(size, k, s, p) == expected


def test_conv_output_size_kernel_too_large():
    with pytest.raises(NonPositiveOutputError):
        conv_output_size(4, 7, 1, 0)


# ---------------------------------------------------------------------------
# LayerSpec validation
# ---------------------------------------------------------------------------

def test_layer_spec_requires_kernel_only_for_windowed_kinds():
    with pytest.raises(ValueError):
        LayerSpec("r", "relu", kernel_w=3, kernel_h=3)
    with pytest.raises(ValueError):
        LayerSpec("c", "conv", out_channels=8)  # no kernel


def test_layer_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LayerSpec("x", "deconv", kernel_w=3, kernel_h=3)


def test_layer_spec_conv_needs_out_channels():
    with pytest.raises(ValueError):
        LayerSpec("c", "conv", kernel_w=3, kernel_h=3)


def test_layer_spec_pool_needs_pool_kind():
    with pytest.raises(ValueError):
        LayerSpec("p", "pool", kernel_w=2, kernel_h=2, stride=2)
    with pytest.raises(ValueError):
        LayerSpec("p", "pool", kernel_w=2, kernel_h=2, stride=2, pool_kind="median")


def test_layer_spec_groups_and_bias_are_conv_only():
    with pytest.raises(ValueError):
        LayerSpec("p", "pool", kernel_w=2, kernel_h=2, stride=2,
                  pool_kind="max", groups=2)
    with pytest.raises(ValueError):
        LayerSpec("f", "fully_connected", units=10, has_bias=True)


def test_layer_spec_skip_only_on_residual_sum():
    with pytest.raises(ValueError):
        LayerSpec("r", "relu", skip="conv1")
    LayerSpec("s", "residual_sum", skip="conv1")  # fine


def test_layer_spec_fc_needs_units():
    with pytest.raises(ValueError):
        LayerSpec("f", "fully_connected")


def test_layer_spec_rejects_bad_stride_padding():
    with pytest.raises(ValueError):
        conv("c", 3, 8, stride=0)
    with pytest.raises(ValueError):
        conv("c", 3, 8, pad=-1)


@pytest.mark.parametrize("kind, extra", [
    ("relu", {}), ("dropout", {}), ("batch_norm", {}), ("softmax", {}),
    ("residual_sum", {}), ("fully_connected", {"units": 4}),
    ("local_response_norm", {"kernel_w": 5, "kernel_h": 5}),
])
@pytest.mark.parametrize("geometry", [{"stride": 8}, {"padding": 1}])
def test_layer_spec_stride_and_pad_are_conv_and_pool_only(kind, extra, geometry):
    with pytest.raises(ValueError, match=f"^(stride|pad)= does not apply to {kind} layer 'x'$"):
        LayerSpec("x", kind, **extra, **geometry)


#: One layer each kind accepts, which the reference property then perturbs.
VALID_FIELDS = {
    "conv": {"kernel_w": 3, "kernel_h": 3, "out_channels": 4},
    "pool": {"kernel_w": 2, "kernel_h": 2, "pool_kind": "max"},
    "local_response_norm": {"kernel_w": 5, "kernel_h": 5},
    "fully_connected": {"units": 4},
    "residual_sum": {"skip": "l0"},
    "softmax": {}, "relu": {}, "dropout": {}, "batch_norm": {},
}
LAYER_FIELDS = list(LayerSpec._fields[2:])
INT_VALUES = [None, -1, 0, 1, 3, True, False]
TEXT_VALUES = [None, "max", "average", "other", "l0"]


def test_valid_fields_cover_every_kind():
    assert set(VALID_FIELDS) == REFERENCE_LAYER_KINDS
    for kind, base in VALID_FIELDS.items():
        check_layer_reference("x", kind, **base)
        LayerSpec("x", kind, **base)


def rejects(build, name, kind, kwargs):
    """Whether ``build(name, kind, **kwargs)`` refuses the layer. The
    reference raised TypeError for a None stride, padding or groups, where
    LayerSpec raises ValueError, as for every bad field."""
    errors = (ValueError, TypeError) if build is check_layer_reference else ValueError
    try:
        build(name, kind, **kwargs)
    except errors:
        return True
    return False


def emits_like_the_reference(layer):
    net = NetworkSpec("n", TensorShape(8, 8, 3), (layer,))
    return emit_network(net) == emit_network_reference(net)


def test_layer_spec_rejects_what_the_reference_rejects_field_by_field():
    for kind, base in [*VALID_FIELDS.items(), ("deconv", {})]:
        for field in LAYER_FIELDS:
            for value in TEXT_VALUES if field in ("pool_kind", "skip") else INT_VALUES:
                kwargs = {**base, field: value}
                rejected = rejects(LayerSpec, "x", kind, kwargs)
                assert rejected == rejects(check_layer_reference, "x", kind, kwargs), kwargs
                assert rejected or emits_like_the_reference(LayerSpec("x", kind, **kwargs))


@st.composite
def layer_args(draw):
    """A name, a kind (or an unknown one) and a valid layer of that kind with
    up to three fields set to values drawn from INT_VALUES or TEXT_VALUES."""
    kind = draw(st.sampled_from(sorted(VALID_FIELDS) + ["deconv"]))
    kwargs = dict(VALID_FIELDS.get(kind, {}))
    for field in draw(st.lists(st.sampled_from(LAYER_FIELDS), max_size=3, unique=True)):
        kwargs[field] = draw(st.sampled_from(
            TEXT_VALUES if field in ("pool_kind", "skip") else INT_VALUES))
    names = ["x", "x", "x", "x", "", "a,b", 'a"b', "a\nb", "a\rb", "total",
             "a b", "a#b", "a\x0cb"]
    return draw(st.sampled_from(names)), kind, kwargs


def breaks_cost_csv(name):
    """Whether ``name`` as a cost CSV cell would split or quote it, or pass
    for the totals row."""
    return name == "total" or any(c in name for c in ',"\r\n')


def breaks_layer_line(name):
    """Whether ``name`` as the name of an architecture line would read back
    as another name or none."""
    return "#" in name or name.split() != [name]


@given(layer_args())
@settings(max_examples=600, deadline=None)
def test_layer_spec_rejects_what_the_reference_rejects(args):
    # a name that would break the cost CSV or its layer line is refused besides
    name, kind, kwargs = args
    rejected = rejects(LayerSpec, name, kind, kwargs)
    assert rejected == (rejects(check_layer_reference, name, kind, kwargs)
                        or breaks_cost_csv(name) or breaks_layer_line(name))
    assert rejected or emits_like_the_reference(LayerSpec(name, kind, **kwargs))


def test_layer_names_may_not_hold_commas():
    with pytest.raises(ValueError, match="without commas"):
        LayerSpec("a,b", "relu")
    with pytest.raises(ArchSemanticError, match="^line 2: .*'a,b'"):
        parse_network("input 8 8 4\nrelu a,b\n")
    with pytest.raises(ArchSemanticError, match="^line 3: .*'a,b1_conv1'"):
        parse_network("input 8 8 4\nrelu r\nresblock a,b filters=4 count=1\n")


@pytest.mark.parametrize("name", ['"x', 'x"', "total"])
def test_parse_network_names_the_line_of_a_csv_breaking_layer_name(name):
    # layer_args draws such names for LayerSpec itself
    with pytest.raises(ArchSemanticError, match=f"^line 3: layer name must be .*{name!r}"):
        parse_network(f"input 8 8 4\nrelu r\nrelu {name}\n")


@pytest.mark.parametrize("name", ["a b", "a#b", "a\x0cb", " a"])
def test_layer_names_must_read_back_from_their_layer_line(name):
    # emit_network writes the name as the second word of a line
    with pytest.raises(ValueError, match=re.escape(
            f"layer name must be one word without '#', got {name!r}")):
        LayerSpec(name, "relu")


def test_resblock_names_may_start_with_total():
    net = parse_network("input 8 8 4\nrelu r\nresblock total filters=4 count=1\n")
    assert net.layers[1].name == "total1_conv1"


# ---------------------------------------------------------------------------
# NetworkSpec validation
# ---------------------------------------------------------------------------

def test_network_spec_rejects_duplicate_layer_names():
    with pytest.raises(ValueError):
        NetworkSpec("n", TensorShape(8, 8, 3),
                    (conv("c", 3, 4), conv("c", 3, 4)))


def test_network_spec_softmax_must_be_last_and_unique():
    with pytest.raises(ValueError):
        NetworkSpec("n", TensorShape(8, 8, 3),
                    (LayerSpec("s", "softmax"), conv("c", 3, 4)))
    with pytest.raises(ValueError):
        NetworkSpec("n", TensorShape(8, 8, 3),
                    (LayerSpec("s1", "softmax"), LayerSpec("s2", "softmax")))


# ---------------------------------------------------------------------------
# Shape inference on the built-ins
# ---------------------------------------------------------------------------

def shapes_by_name(shaped):
    return {sl.spec.name: sl.output for sl in shaped.per_layer}


def test_two_d_cnn_shapes():
    shaped = infer_shapes(builtin_network("two_d_cnn"))
    out = shapes_by_name(shaped)
    assert out["conv1"] == TensorShape(54, 54, 96)
    assert out["pool1"] == TensorShape(27, 27, 96)
    assert out["conv2"] == TensorShape(12, 12, 192)
    assert out["conv3"] == TensorShape(4, 4, 512)
    assert out["conv4"] == TensorShape(1, 1, 4096)
    assert out["fc5"] == TensorShape(1, 1, 2048)
    assert shaped.output == TensorShape(1, 1, 155)


def test_caffenet_shapes():
    shaped = infer_shapes(builtin_network("caffenet"))
    out = shapes_by_name(shaped)
    assert out["conv1"] == TensorShape(55, 55, 96)
    assert out["pool1"] == TensorShape(27, 27, 96)
    assert out["conv2"] == TensorShape(27, 27, 256)
    assert out["pool2"] == TensorShape(13, 13, 256)
    assert out["conv3"] == TensorShape(13, 13, 384)
    assert out["conv5"] == TensorShape(13, 13, 256)
    assert out["pool5"] == TensorShape(6, 6, 256)
    assert shaped.output == TensorShape(1, 1, 1000)


def test_resnet_im_shapes():
    shaped = infer_shapes(builtin_network("resnet_im"))
    out = shapes_by_name(shaped)
    assert out["conv1"] == TensorShape(112, 112, 64)
    assert out["pool1"] == TensorShape(56, 56, 64)
    # each later stage halves the grid and doubles the channels
    assert out["adapt2_conv"] == TensorShape(28, 28, 128)
    assert out["adapt3_conv"] == TensorShape(14, 14, 256)
    assert out["adapt4_conv"] == TensorShape(7, 7, 512)
    assert out["gap"] == TensorShape(1, 1, 512)
    assert shaped.output == TensorShape(1, 1, 1000)


def test_resnet_gait_shapes():
    shaped = infer_shapes(builtin_network("resnet_gait"))
    out = shapes_by_name(shaped)
    assert out["conv1"] == TensorShape(27, 27, 64)
    assert out["pool1"] == TensorShape(13, 13, 64)
    assert out["adapt2_conv"] == TensorShape(7, 7, 128)
    assert out["adapt4_conv"] == TensorShape(2, 2, 512)
    assert out["gap"] == TensorShape(1, 1, 512)
    assert shaped.output == TensorShape(1, 1, 155)


def test_builtin_network_unknown_name(monkeypatch):
    # a path-like name is refused by name, before any bundled file is read
    def no_read(relpath):
        raise AssertionError(f"read {relpath!r}")

    monkeypatch.setattr(arch._tables, "data_text", no_read)
    for name in ("alexnet", "../devices", "networks/caffenet", ""):
        with pytest.raises(UnknownNetworkError):
            builtin_network(name)


def test_builtin_network_names_constant():
    assert set(BUILTIN_NETWORK_NAMES) == {
        "two_d_cnn", "resnet_gait", "caffenet", "resnet_im"}


def test_shape_preserving_layers_keep_shape():
    net = NetworkSpec("n", TensorShape(6, 6, 4), (
        conv("c", 3, 8),
        LayerSpec("bn", "batch_norm"),
        LayerSpec("r", "relu"),
        LayerSpec("d", "dropout"),
    ))
    shaped = infer_shapes(net)
    for sl in shaped.per_layer[1:]:
        assert sl.input == sl.output == TensorShape(4, 4, 8)


def test_group_mismatch_raises():
    net = NetworkSpec("n", TensorShape(6, 6, 3), (conv("c", 3, 8, groups=2),))
    with pytest.raises(GroupMismatchError):
        infer_shapes(net)


def test_out_channels_must_divide_by_groups():
    net = NetworkSpec("n", TensorShape(6, 6, 4), (conv("c", 3, 9, groups=2),))
    with pytest.raises(GroupMismatchError):
        infer_shapes(net)


def test_residual_skip_shape_conflicts():
    base = TensorShape(8, 8, 4)
    # skip target does not exist
    net = NetworkSpec("n", base, (
        conv("c1", 3, 4, pad=1),
        LayerSpec("sum", "residual_sum", skip="ghost"),
    ))
    with pytest.raises(ShapeConflictError):
        infer_shapes(net)
    # skip target appears later than the sum
    net = NetworkSpec("n", base, (
        conv("c0", 3, 4, pad=1),
        LayerSpec("sum", "residual_sum", skip="c1"),
        conv("c1", 3, 4, pad=1),
    ))
    with pytest.raises(ShapeConflictError):
        infer_shapes(net)
    # shape mismatch between the running tensor and the skip source
    net = NetworkSpec("n", base, (
        conv("c1", 3, 4, pad=1),    # 8x8x4
        conv("c2", 3, 4),           # 6x6x4
        LayerSpec("sum", "residual_sum", skip="c1"),
    ))
    with pytest.raises(ShapeConflictError):
        infer_shapes(net)


def test_residual_sum_without_skip_rejected():
    net = NetworkSpec("n", TensorShape(8, 8, 4), (
        conv("c1", 3, 4, pad=1),
        LayerSpec("sum", "residual_sum"),
    ))
    with pytest.raises(ShapeConflictError):
        infer_shapes(net)


def test_residual_skip_matching_shapes():
    net = NetworkSpec("n", TensorShape(8, 8, 4), (
        conv("c1", 3, 4, pad=1),
        conv("c2", 3, 4, pad=1),
        LayerSpec("sum", "residual_sum", skip="c1"),
    ))
    assert infer_shapes(net).output == TensorShape(8, 8, 4)


def test_softmax_units_conflict():
    net = NetworkSpec("n", TensorShape(4, 4, 2), (
        LayerSpec("fc", "fully_connected", units=10),
        LayerSpec("soft", "softmax", units=11),
    ))
    with pytest.raises(ShapeConflictError):
        infer_shapes(net)


def test_kernel_larger_than_input_raises():
    net = NetworkSpec("n", TensorShape(4, 4, 2), (conv("c", 7, 8),))
    with pytest.raises(NonPositiveOutputError):
        infer_shapes(net)


def test_layer_output_errors_name_the_layer_once():
    cases = [
        (conv("too_big", 7, 8), TensorShape(4, 4, 2), NonPositiveOutputError),
        (pool("too_wide", 5, 1), TensorShape(4, 4, 2), NonPositiveOutputError),
        (conv("bad_groups", 3, 6, groups=3), TensorShape(6, 6, 4), GroupMismatchError),
        (LayerSpec("bad_softmax", "softmax", units=5), TensorShape(1, 1, 3), ShapeConflictError),
    ]
    for layer, inp, error in cases:
        for call in (lambda: layer_output(layer, inp),
                     lambda: infer_shapes(NetworkSpec("n", inp, (layer,)))):
            with pytest.raises(error) as err:
                call()
            assert str(err.value).count(repr(layer.name)) == 1, str(err.value)


def test_layer_output_is_every_shape_infer_shapes_records():
    for name in BUILTIN_NETWORK_NAMES:
        for sl in infer_shapes(builtin_network(name)).per_layer:
            assert layer_output(sl.spec, sl.input) == sl.output, (name, sl.spec.name)


# ---------------------------------------------------------------------------
# Parser and emitter
# ---------------------------------------------------------------------------

SMALL_ARCH = """\
# network: toy
input 8 8 3
conv c1 filters=4 k=3 stride=1 pad=1 bias=true
bn bn1
relu r1
pool p1 k=2 stride=2 type=max
fc f1 units=10
softmax out
"""


def test_parse_small_network():
    net = parse_network(SMALL_ARCH)
    assert net.name == "toy"
    assert net.input == TensorShape(8, 8, 3)
    kinds = [l.kind for l in net.layers]
    assert kinds == ["conv", "batch_norm", "relu", "pool",
                     "fully_connected", "softmax"]
    assert net.layers[0].has_bias
    assert infer_shapes(net).output == TensorShape(1, 1, 10)


def test_parse_name_argument_is_fallback():
    text = SMALL_ARCH.replace("# network: toy\n", "")
    assert parse_network(text, name="fallback").name == "fallback"
    assert parse_network(SMALL_ARCH, name="fallback").name == "toy"


def test_parse_rectangular_kernel_and_alias_kinds():
    net = parse_network("""\
input 9 7 2
conv c kw=3 kh=2 filters=4
lrn n k=3
sum s skip=n
""")
    assert net.layers[0].kernel_w == 3 and net.layers[0].kernel_h == 2
    assert net.layers[1].kind == "local_response_norm"
    assert net.layers[2].kind == "residual_sum"
    assert net.layers[2].skip == "n"


def test_parse_syntax_errors_carry_line_numbers():
    with pytest.raises(ArchSyntaxError) as err:
        parse_network("input 8 8 3\nconv c1 filters=four k=3\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ArchSyntaxError) as err:
        parse_network("conv c1 filters=4 k=3\n")
    assert "line 1" in str(err.value)


def test_parse_k_and_kw_conflict():
    with pytest.raises(ArchSyntaxError):
        parse_network("input 8 8 3\nconv c1 filters=4 k=3 kw=2 kh=2\n")


def test_parse_unknown_kind_and_key():
    with pytest.raises(ArchSyntaxError):
        parse_network("input 8 8 3\ndeconv c1 filters=4 k=3\n")
    with pytest.raises(ArchSyntaxError):
        parse_network("input 8 8 3\nconv c1 filters=4 k=3 dilation=2\n")


def test_parse_semantic_error_for_bad_layer():
    with pytest.raises(ArchSemanticError) as err:
        parse_network("input 8 8 3\nconv c1 k=3\n")  # missing filters
    assert "line 2" in str(err.value)


def test_parse_pool_type_defaults_to_max():
    net = parse_network("input 8 8 3\npool p1 k=2 stride=2\n")
    assert net.layers[0].pool_kind == "max"


def test_parse_resblock_expands_and_wires_skip():
    net = parse_network("""\
input 10 10 4
conv stem filters=4 k=3 pad=1
resblock b filters=4 count=2
""")
    names = [l.name for l in net.layers]
    assert "b1_sum" in names and "b2_sum" in names
    sums = [l for l in net.layers if l.kind == "residual_sum"]
    assert sums[0].skip == "stem"
    assert sums[1].skip == "b1_relu_out"
    shaped = infer_shapes(net)
    assert shaped.output == TensorShape(10, 10, 4)


def test_parse_resblock_single_conv_variant():
    net = parse_network("""\
input 8 8 4
conv stem filters=4 k=3 pad=1
resblock b filters=4 count=1 convs=1
""")
    kinds = [l.kind for l in net.layers[1:]]
    assert kinds == ["conv", "batch_norm", "relu", "residual_sum", "relu"]


def test_parse_resblock_cannot_lead():
    with pytest.raises(ArchSemanticError):
        parse_network("input 8 8 4\nresblock b filters=4 count=1\n")


def test_parse_refuses_a_convs_value_before_counting_its_layers():
    text = "input 8 8 4\nconv stem filters=4 k=3 pad=1\nresblock b filters=4 count=5 convs=1000\n"
    with pytest.raises(ArchSemanticError,
                       match="^line 3: residual blocks support convs=1 or convs=2$"):
        parse_network(text)


@given(st.text(st.characters(exclude_categories=("Z", "C"), exclude_characters='#,"'),
               min_size=1, max_size=6),
       st.integers(1, 64), st.integers(1, 4), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_resblock_parses_to_the_reference_blocks(name, filters, count, convs):
    net = parse_network(f"input 8 8 {filters}\nconv stem filters={filters} k=3 pad=1\n"
                        f"resblock {name} filters={filters} count={count} convs={convs}\n")
    expected = [net.layers[0]]
    for i in range(1, count + 1):
        expected += residual_block_reference(f"{name}{i}", filters, expected[-1].name, convs)
    assert net.layers == tuple(expected)


def test_parse_refuses_a_resblock_past_the_layer_limit_before_building_it():
    text = "input 8 8 4\nconv stem filters=4 k=3 pad=1\nresblock b filters=4 count=1000000000\n"
    start = time.perf_counter()
    with pytest.raises(ArchSemanticError, match=f"^line 3: .*limit is {MAX_LAYERS}$"):
        parse_network(text)
    assert time.perf_counter() - start < 1.0


def test_parse_layer_limit_counts_every_layer():
    # 1428 two-conv blocks are 9996 layers; the stem and 3 plain layers make
    # MAX_LAYERS exactly, and one more plain layer goes over.
    head = "input 8 8 4\nconv stem filters=4 k=3 pad=1\nresblock b filters=4 count=1428\n"
    full = head + "relu r1\nrelu r2\nrelu r3\n"
    assert len(parse_network(full).layers) == MAX_LAYERS
    with pytest.raises(ArchSemanticError, match="^line 7: "):
        parse_network(full + "relu r4\n")


@pytest.mark.parametrize("name", BUILTIN_NETWORK_NAMES)
def test_emit_parse_round_trip(name):
    net = builtin_network(name)
    text = emit_network(net)
    again = parse_network(text)
    assert again.name == net.name
    assert again.input == net.input
    assert again.layers == net.layers
    # and the round trip is a fixed point
    assert emit_network(again) == text


def test_emit_writes_no_skip_for_a_sum_without_one():
    net = parse_network("input 8 8 4\nrelu a\nsum s\n")
    assert emit_network(net).splitlines()[-1] == "sum s"
    assert parse_network(emit_network(net)) == net


# ---------------------------------------------------------------------------
# Parser properties on generated architecture text
# ---------------------------------------------------------------------------

GOOD_VALUES = {"bias": ["true", "false"], "type": ["max", "average"]}
BAD_VALUES = ["0", "-1", "max", "true", "x", "None", ""]
KIND_KEYS = {  # the keys a kind needs, then the keys it may take
    "conv": (["filters", "k"], ["stride", "pad", "groups", "bias", "kw"]),
    "pool": (["k"], ["stride", "pad", "type", "kh"]),
    "fc": (["units"], []), "fully_connected": (["units"], []), "softmax": ([], ["units"]),
    "lrn": (["k"], []), "sum": (["skip"], []), "residual_sum": (["skip"], []),
    "relu": ([], []), "bn": ([], []), "batch_norm": ([], []), "dropout": ([], []),
    "resblock": (["filters", "count"], ["convs"]),
}


@st.composite
def arch_texts(draw):
    """Architecture text that is mostly well formed: an input line, then
    layers that usually carry the keys their kind needs, small values and
    fresh names, with now and then a foreign key, a bad value, a repeated
    or CSV-breaking name or a bad line (resblock counts stay far below MAX_LAYERS)."""
    def rarely(a, b):
        return b if not draw(st.integers(0, 29)) else a

    dims = [draw(st.sampled_from(["1", "2", "4", "8", "16"])) for _ in range(3)]
    lines = [" ".join(["input", rarely(dims[0], "0")] + dims[1:])]
    if not draw(st.integers(0, 3)):
        lines.insert(0, "# network: " + draw(st.sampled_from(["toy", "", "a b"])))
    names = []
    for i in range(draw(st.integers(0, 8))):
        kind = rarely(draw(st.sampled_from(sorted(KIND_KEYS))), "bogus")
        need, may = KIND_KEYS.get(kind, ([], []))
        keys = [k for k in need if draw(st.integers(0, 19))]
        keys += draw(st.lists(st.sampled_from(may), max_size=2, unique=True)) if may else []
        keys += [] if draw(st.integers(0, 29)) else [draw(st.sampled_from(
            ["stride", "pad", "dilation"]))]
        name = rarely(f"l{i}", draw(st.sampled_from([*(names or ["l0"]), "total", 'q"'])))
        tokens = [kind, name]
        for key in dict.fromkeys(keys):
            pool = names or ["l0"] if key == "skip" else rarely(
                GOOD_VALUES.get(key, ["1", "2", "3", "4"]), BAD_VALUES)
            tokens.append(f"{key}={rarely(draw(st.sampled_from(pool)), 'x')}")
        lines.append(" ".join(tokens))
        names.append(name)
    return "\n".join(lines) + "\n"


@given(arch_texts())
@settings(max_examples=250, deadline=None)
def test_parse_network_returns_a_network_or_raises_cnnergy_error(text):
    try:
        net = parse_network(text)
    except CnnergyError:
        return
    assert isinstance(net, NetworkSpec)
    assert not any(breaks_cost_csv(layer.name) for layer in net.layers)


@given(arch_texts())
@settings(max_examples=250, deadline=None)
def test_emit_network_writes_what_the_reference_writes(text):
    try:
        net = parse_network(text)
    except CnnergyError:
        return
    assert emit_network(net) == emit_network_reference(net)


@given(arch_texts())
@settings(max_examples=250, deadline=None)
def test_emit_parse_round_trips_every_parsed_network(text):
    try:
        net = parse_network(text)
    except CnnergyError:
        return
    assert parse_network(emit_network(net)) == net
