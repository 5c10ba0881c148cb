"""CNN architectures as ordered layer lists, plus tensor-shape inference.

Networks are purely structural: no weights are stored and no tensor math is
performed. A :class:`NetworkSpec` holds an input shape and an ordered list of
:class:`LayerSpec`; :func:`infer_shapes` propagates the input shape through
the layer list, producing the per-layer input/output geometry every other
module consumes.

Every network, the four built-ins included, is written in one line-oriented
text format read by :func:`parse_network`; the built-ins ship as
``cnnergy/data/networks/<name>.net`` and :func:`builtin_network` reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from . import _tables
from .errors import (
    ArchSemanticError,
    ArchSyntaxError,
    GroupMismatchError,
    NonPositiveOutputError,
    ShapeConflictError,
    UnknownNetworkError,
)

LAYER_KINDS = frozenset({
    "conv",
    "fully_connected",
    "pool",
    "relu",
    "dropout",
    "batch_norm",
    "softmax",
    "residual_sum",
    "local_response_norm",
})

#: Kinds that carry a kernel window. conv and pool use it for geometry;
#: local_response_norm keeps its window purely for op accounting.
KERNEL_KINDS = frozenset({"conv", "pool", "local_response_norm"})

#: The bundled architectures, each shipped as ``cnnergy/data/networks/<name>.net``.
BUILTIN_NETWORK_NAMES = ("two_d_cnn", "resnet_gait", "caffenet", "resnet_im")

#: Most layers a parsed network may have, ``resblock`` expansions included;
#: about 67x the 149 layers of resnet_gait.
MAX_LAYERS = 10_000


@dataclass(frozen=True)
class TensorShape:
    """Spatial width/height plus channel count of one activation tensor."""

    width: int
    height: int
    channels: int

    def __post_init__(self):
        for name in ("width", "height", "channels"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"TensorShape.{name} must be a positive int, got {value!r}")

    @property
    def elements(self) -> int:
        return self.width * self.height * self.channels

    def __str__(self) -> str:
        return f"{self.width}x{self.height}x{self.channels}"


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a network: a kind plus the geometry that kind needs.

    Field usage by kind:

    * ``conv`` — kernel_w/h, stride, padding, out_channels, groups, has_bias
    * ``pool`` — kernel_w/h, stride, padding, pool_kind ("max"/"average")
    * ``local_response_norm`` — kernel_w/h (window used for op accounting only)
    * ``fully_connected`` — units
    * ``softmax`` — units optional; when given it must equal the input
      channel count (softmax rescales its input, it never reshapes it)
    * ``residual_sum`` — skip: name of the earlier layer whose output is the
      second addend
    * ``relu``/``dropout``/``batch_norm`` — no extra fields
    """

    name: str
    kind: str
    kernel_w: int | None = None
    kernel_h: int | None = None
    stride: int = 1
    padding: int = 0
    out_channels: int | None = None
    units: int | None = None
    groups: int = 1
    has_bias: bool = False
    pool_kind: str | None = None
    skip: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("layer name must be non-empty")
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in KERNEL_KINDS:
            if self.kernel_w is None or self.kernel_h is None:
                raise ValueError(f"{self.kind} layer {self.name!r} needs a kernel size")
            if self.kernel_w < 1 or self.kernel_h < 1:
                raise ValueError(f"kernel of layer {self.name!r} must be >= 1")
        elif self.kernel_w is not None or self.kernel_h is not None:
            raise ValueError(f"{self.kind} layer {self.name!r} must not have a kernel")
        if self.stride < 1:
            raise ValueError(f"stride of layer {self.name!r} must be >= 1")
        if self.padding < 0:
            raise ValueError(f"padding of layer {self.name!r} must be >= 0")
        if (self.stride, self.padding) != (1, 0) and self.kind not in ("conv", "pool"):
            raise ValueError(f"stride and pad only apply to conv and pool layers, not {self.kind}")
        if self.groups < 1:
            raise ValueError(f"groups of layer {self.name!r} must be >= 1")
        if self.groups != 1 and self.kind != "conv":
            raise ValueError(f"groups only applies to conv layers, not {self.kind}")
        if self.has_bias and self.kind != "conv":
            raise ValueError(f"bias only applies to conv layers, not {self.kind}")
        if self.kind == "conv":
            if self.out_channels is None or self.out_channels < 1:
                raise ValueError(f"conv layer {self.name!r} needs filters >= 1")
        elif self.out_channels is not None:
            raise ValueError(f"{self.kind} layer {self.name!r} must not set out_channels")
        if self.kind == "fully_connected":
            if self.units is None or self.units < 1:
                raise ValueError(f"fully_connected layer {self.name!r} needs units >= 1")
        elif self.kind == "softmax":
            if self.units is not None and self.units < 1:
                raise ValueError(f"softmax layer {self.name!r} units must be >= 1")
        elif self.units is not None:
            raise ValueError(f"{self.kind} layer {self.name!r} must not set units")
        if self.kind == "pool":
            if self.pool_kind not in ("max", "average"):
                raise ValueError(f"pool layer {self.name!r} needs type=max or type=average")
        elif self.pool_kind is not None:
            raise ValueError(f"{self.kind} layer {self.name!r} must not set pool_kind")
        if self.skip is not None and self.kind != "residual_sum":
            raise ValueError(f"skip= only applies to residual_sum, not {self.kind}")


@dataclass(frozen=True)
class NetworkSpec:
    """Named network: an input shape plus an ordered layer list."""

    name: str
    input: TensorShape
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        seen: set[str] = set()
        for layer in self.layers:
            if layer.name in seen:
                raise ValueError(f"duplicate layer name {layer.name!r}")
            seen.add(layer.name)
        softmax_positions = [i for i, l in enumerate(self.layers) if l.kind == "softmax"]
        if len(softmax_positions) > 1:
            raise ValueError("at most one softmax layer is allowed")
        if softmax_positions and softmax_positions[0] != len(self.layers) - 1:
            raise ValueError("softmax must be the last layer")


@dataclass(frozen=True)
class ShapedLayer:
    """A layer together with its inferred input and output shapes."""

    spec: LayerSpec
    input: TensorShape
    output: TensorShape


@dataclass(frozen=True)
class ShapedNetwork:
    """A network whose per-layer tensor geometry has been resolved."""

    spec: NetworkSpec
    per_layer: tuple[ShapedLayer, ...]

    @property
    def output(self) -> TensorShape:
        return self.per_layer[-1].output if self.per_layer else self.spec.input

    @cached_property
    def activation_elems(self) -> int:
        """Sum of every layer's output elements (per-sample activation
        footprint), computed once per object."""
        return sum(sl.output.elements for sl in self.per_layer)

    @cached_property
    def weight_elems(self) -> int:
        """Total parameter count, computed once per object."""
        return sum(layer_weight_elems(sl.spec, sl.input) for sl in self.per_layer)


def layer_weight_elems(layer: LayerSpec, inp: TensorShape) -> int:
    """Parameter count of one layer (conv/fc kernels plus conv bias)."""
    if layer.kind == "conv":
        n = layer.kernel_w * layer.kernel_h * (inp.channels // layer.groups) * layer.out_channels
        return n + (layer.out_channels if layer.has_bias else 0)
    if layer.kind == "fully_connected":
        return inp.elements * layer.units
    return 0


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output length of a conv/pool along one axis.

    Counts the positions at which a window of ``kernel`` fits into the padded
    input when slid in steps of ``stride``: floor((size - kernel + 2*padding)
    / stride) + 1.

    Raises:
        NonPositiveOutputError: the kernel does not fit even once.
    """
    span = size - kernel + 2 * padding
    if span < 0:
        raise NonPositiveOutputError(
            f"kernel {kernel} does not fit input of size {size} with padding {padding}"
        )
    return span // stride + 1


def layer_output(layer: LayerSpec, inp: TensorShape) -> TensorShape:
    """Output shape of ``layer`` applied to an ``inp``-shaped tensor.

    This is the only place the geometry of a layer is worked out. conv and
    pool slide their window (:func:`conv_output_size`), fully_connected
    yields ``1x1xunits``, and every other kind keeps its input's shape.
    A residual_sum's second addend is not checked here (see
    :func:`infer_shapes`). Each error message names the layer once.

    Raises:
        NonPositiveOutputError: a kernel is larger than its padded input.
        GroupMismatchError: conv groups do not divide both channel counts.
        ShapeConflictError: a softmax ``units`` does not match its input
            channels.
    """
    if layer.kind == "conv" and (inp.channels % layer.groups or layer.out_channels % layer.groups):
        raise GroupMismatchError(
            f"layer {layer.name!r}: groups={layer.groups} does not divide "
            f"channels {inp.channels}->{layer.out_channels}"
        )
    if layer.kind in ("conv", "pool"):
        try:
            width = conv_output_size(inp.width, layer.kernel_w, layer.stride, layer.padding)
            height = conv_output_size(inp.height, layer.kernel_h, layer.stride, layer.padding)
        except NonPositiveOutputError as exc:
            raise NonPositiveOutputError(f"layer {layer.name!r}: {exc}") from None
        return TensorShape(width, height,
                           layer.out_channels if layer.kind == "conv" else inp.channels)
    if layer.kind == "fully_connected":
        return TensorShape(1, 1, layer.units)
    if layer.kind == "softmax" and layer.units is not None and layer.units != inp.channels:
        raise ShapeConflictError(
            f"softmax {layer.name!r} has units={layer.units} but its input "
            f"carries {inp.channels} channels"
        )
    return inp


def infer_shapes(net: NetworkSpec) -> ShapedNetwork:
    """Propagate the input shape through every layer of ``net``.

    Returns a :class:`ShapedNetwork` whose ``per_layer[i].output`` equals
    ``per_layer[i+1].input``; each output is :func:`layer_output`'s.
    residual_sum layers take the running tensor plus the output of the
    layer named by their ``skip`` field; both must have the same shape.

    Raises:
        NonPositiveOutputError: a kernel is larger than its padded input.
        GroupMismatchError: conv groups do not divide both channel counts.
        ShapeConflictError: residual_sum inputs differ (or a softmax
            ``units`` does not match its input channels).
    """
    current = net.input
    outputs: dict[str, TensorShape] = {}
    shaped: list[ShapedLayer] = []
    for layer in net.layers:
        inp = current
        if layer.kind == "residual_sum":
            if layer.skip is None:
                raise ShapeConflictError(
                    f"residual_sum {layer.name!r} needs skip=<layer> to name its second input"
                )
            if layer.skip not in outputs:
                raise ShapeConflictError(
                    f"residual_sum {layer.name!r}: skip target {layer.skip!r} is not an "
                    "earlier layer"
                )
            other = outputs[layer.skip]
            if other != inp:
                raise ShapeConflictError(
                    f"residual_sum {layer.name!r}: inputs {inp} and {other} (from "
                    f"{layer.skip!r}) differ"
                )
        out = layer_output(layer, inp)
        shaped.append(ShapedLayer(layer, inp, out))
        outputs[layer.name] = out
        current = out
    return ShapedNetwork(net, tuple(shaped))


# ---------------------------------------------------------------------------
# Built-in networks
# ---------------------------------------------------------------------------

def builtin_network(name: str) -> NetworkSpec:
    """Return one of the four bundled architectures by name, parsed from
    its architecture file ``cnnergy/data/networks/<name>.net``.

    Raises:
        UnknownNetworkError: ``name`` is not in :data:`BUILTIN_NETWORK_NAMES`
            (checked before any file is opened).
    """
    if name not in BUILTIN_NETWORK_NAMES:
        raise UnknownNetworkError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NETWORK_NAMES)}"
        )
    return parse_network(_tables.data_text(f"networks/{name}.net"))


@cache
def _builtin_shapes(name: str) -> ShapedNetwork:
    """``infer_shapes(builtin_network(name))``, built once per process; the
    result is immutable, so every caller shares it."""
    return infer_shapes(builtin_network(name))


# ---------------------------------------------------------------------------
# Line-oriented architecture files
# ---------------------------------------------------------------------------

_KIND_ALIASES = {
    "conv": "conv",
    "fc": "fully_connected",
    "fully_connected": "fully_connected",
    "pool": "pool",
    "relu": "relu",
    "dropout": "dropout",
    "batch_norm": "batch_norm",
    "bn": "batch_norm",
    "softmax": "softmax",
    "sum": "residual_sum",
    "residual_sum": "residual_sum",
    "lrn": "local_response_norm",
    "local_response_norm": "local_response_norm",
}

_EMIT_KIND = {
    "conv": "conv",
    "fully_connected": "fc",
    "pool": "pool",
    "relu": "relu",
    "dropout": "dropout",
    "batch_norm": "batch_norm",
    "softmax": "softmax",
    "residual_sum": "sum",
    "local_response_norm": "lrn",
}

_INT_KEYS = {"filters", "units", "k", "kw", "kh", "stride", "pad", "groups", "count", "convs"}


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, object]:
    kv: dict[str, object] = {}
    for token in tokens:
        if "=" not in token:
            raise ArchSyntaxError(f"expected key=value, got {token!r}", lineno)
        key, _, raw = token.partition("=")
        if key in kv:
            raise ArchSyntaxError(f"duplicate key {key!r}", lineno)
        if key in _INT_KEYS:
            try:
                kv[key] = int(raw)
            except ValueError:
                raise ArchSyntaxError(f"key {key} needs an integer, got {raw!r}", lineno) from None
        elif key == "bias":
            if raw not in ("true", "false"):
                raise ArchSyntaxError(f"bias must be true or false, got {raw!r}", lineno)
            kv[key] = raw == "true"
        elif key in ("type", "skip"):
            kv[key] = raw
        else:
            raise ArchSyntaxError(f"unknown key {key!r}", lineno)
    return kv


def _layer_from_kv(kind: str, name: str, kv: dict[str, object], lineno: int) -> LayerSpec:
    kernel_w = kv.pop("kw", None)
    kernel_h = kv.pop("kh", None)
    k = kv.pop("k", None)
    if k is not None:
        if kernel_w is not None or kernel_h is not None:
            raise ArchSyntaxError("give either k= or kw=/kh=, not both", lineno)
        kernel_w = kernel_h = k
    fields = dict(
        kernel_w=kernel_w,
        kernel_h=kernel_h,
        stride=kv.pop("stride", 1),
        padding=kv.pop("pad", 0),
        out_channels=kv.pop("filters", None),
        units=kv.pop("units", None),
        groups=kv.pop("groups", 1),
        has_bias=kv.pop("bias", False),
        pool_kind=kv.pop("type", "max" if kind == "pool" else None),
        skip=kv.pop("skip", None),
    )
    if kv:
        raise ArchSyntaxError(f"unexpected keys for {kind}: {sorted(kv)}", lineno)
    try:
        return LayerSpec(name, kind, **fields)
    except ValueError as exc:
        raise ArchSemanticError(str(exc), lineno) from None


def _check_room(n_layers: int, lineno: int) -> None:
    if n_layers > MAX_LAYERS:
        raise ArchSemanticError(f"network would have {n_layers} layers; the limit is "
                                f"{MAX_LAYERS}", lineno)


def _residual_block(prefix: str, channels: int, skip_from: str, convs: int = 2) -> list[LayerSpec]:
    """Expand one residual block into explicit layers.

    ``convs=2`` gives the classic expansion conv-bn-relu-conv-bn-sum-relu;
    ``convs=1`` gives the lighter conv-bn-relu-sum-relu variant. The sum's
    second input is the output of ``skip_from`` (the block's input), so the
    caller must keep channel counts aligned across the block.
    """
    conv = dict(kernel_w=3, kernel_h=3, padding=1, out_channels=channels)
    if convs == 2:
        layers = [
            LayerSpec(f"{prefix}_conv1", "conv", **conv),
            LayerSpec(f"{prefix}_bn1", "batch_norm"),
            LayerSpec(f"{prefix}_relu1", "relu"),
            LayerSpec(f"{prefix}_conv2", "conv", **conv),
            LayerSpec(f"{prefix}_bn2", "batch_norm"),
        ]
    elif convs == 1:
        layers = [
            LayerSpec(f"{prefix}_conv", "conv", **conv),
            LayerSpec(f"{prefix}_bn", "batch_norm"),
            LayerSpec(f"{prefix}_relu", "relu"),
        ]
    else:
        raise ValueError("residual blocks support convs=1 or convs=2")
    layers.append(LayerSpec(f"{prefix}_sum", "residual_sum", skip=skip_from))
    layers.append(LayerSpec(f"{prefix}_relu_out", "relu"))
    return layers


def parse_network(text: str, name: str | None = None) -> NetworkSpec:
    """Parse the line-oriented architecture format.

    Grammar: ``#`` starts a comment; the first non-comment line is
    ``input <w> <h> <ch>``; each following line is ``<kind> <name>
    key=value ...`` with keys ``filters,units,k,kw,kh,stride,pad,groups,
    bias,type,skip``. ``resblock <name> filters=<n> count=<m> [convs=1|2]``
    expands to that many residual blocks, ``<name>1``, ``<name>2``, ...,
    wired to the running tensor. A ``# network: <name>`` comment names the
    network. ``stride`` and ``pad`` apply only to conv and pool, and a
    network has at most :data:`MAX_LAYERS` layers.

    Raises:
        ArchSyntaxError: malformed line (with its line number).
        ArchSemanticError: well-formed line violating a layer/network
            invariant, or a line that would take the network past
            :data:`MAX_LAYERS` (checked before any of its layers is built).
    """
    input_shape: TensorShape | None = None
    layers: list[LayerSpec] = []
    file_name = None
    prev_layer_name: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        comment = raw_line.split("#", 1)[1].strip() if "#" in raw_line else ""
        if comment.startswith("network:"):
            file_name = comment.split(":", 1)[1].strip()
        if not line:
            continue
        tokens = line.split()
        if input_shape is None:
            if tokens[0] != "input" or len(tokens) != 4:
                raise ArchSyntaxError("first line must be: input <w> <h> <ch>", lineno)
            try:
                w, h, ch = (int(t) for t in tokens[1:])
                input_shape = TensorShape(w, h, ch)
            except ValueError as exc:
                raise ArchSemanticError(str(exc), lineno) from None
            continue
        kind_token, *rest = tokens
        if kind_token == "input":
            raise ArchSyntaxError("duplicate input line", lineno)
        if not rest:
            raise ArchSyntaxError(f"layer line needs a name: {line!r}", lineno)
        layer_name, *kv_tokens = rest
        kv = _parse_kv(kv_tokens, lineno)
        if kind_token == "resblock":
            filters = kv.pop("filters", None)
            count = kv.pop("count", None)
            convs = kv.pop("convs", 2)
            if kv:
                raise ArchSyntaxError(f"unexpected keys for resblock: {sorted(kv)}", lineno)
            if filters is None or count is None or count < 1:
                raise ArchSyntaxError("resblock needs filters=<n> count=<m>", lineno)
            if prev_layer_name is None:
                raise ArchSemanticError("resblock cannot be the first layer", lineno)
            # a block is convs x (conv, bn) + relu + sum + relu_out (_residual_block)
            _check_room(len(layers) + count * (2 * convs + 3), lineno)
            prev = prev_layer_name
            try:
                for i in range(1, count + 1):
                    block = _residual_block(f"{layer_name}{i}", filters, skip_from=prev,
                                            convs=convs)
                    layers += block
                    prev = block[-1].name
            except ValueError as exc:
                raise ArchSemanticError(str(exc), lineno) from None
            prev_layer_name = prev
            continue
        kind = _KIND_ALIASES.get(kind_token)
        if kind is None:
            raise ArchSyntaxError(f"unknown layer kind {kind_token!r}", lineno)
        _check_room(len(layers) + 1, lineno)
        layers.append(_layer_from_kv(kind, layer_name, kv, lineno))
        prev_layer_name = layer_name
    if input_shape is None:
        raise ArchSyntaxError("missing input line")
    net_name = file_name or name or "network"
    try:
        return NetworkSpec(net_name, input_shape, tuple(layers))
    except ValueError as exc:
        raise ArchSemanticError(str(exc)) from None


def emit_network(net: NetworkSpec) -> str:
    """Serialize ``net`` to the canonical file form (parse round-trips it)."""
    lines = [f"# network: {net.name}",
             f"input {net.input.width} {net.input.height} {net.input.channels}"]
    for layer in net.layers:
        parts = [_EMIT_KIND[layer.kind], layer.name]
        if layer.kind in KERNEL_KINDS:
            if layer.kernel_w == layer.kernel_h:
                parts.append(f"k={layer.kernel_w}")
            else:
                parts.append(f"kw={layer.kernel_w}")
                parts.append(f"kh={layer.kernel_h}")
        if layer.kind == "conv":
            parts.append(f"filters={layer.out_channels}")
        if layer.kind in ("conv", "pool"):
            parts.append(f"stride={layer.stride}")
            parts.append(f"pad={layer.padding}")
        if layer.kind == "conv" and layer.groups != 1:
            parts.append(f"groups={layer.groups}")
        if layer.kind == "conv" and layer.has_bias:
            parts.append("bias=true")
        if layer.kind == "pool":
            parts.append(f"type={layer.pool_kind}")
        if layer.kind == "fully_connected" or (layer.kind == "softmax" and layer.units is not None):
            parts.append(f"units={layer.units}")
        if layer.skip is not None:
            parts.append(f"skip={layer.skip}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
