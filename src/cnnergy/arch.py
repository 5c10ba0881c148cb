"""CNN architectures as ordered layer lists, plus tensor-shape inference.

Networks are purely structural: no weights are stored and no tensor math is
performed. A :class:`NetworkSpec` holds an input shape and an ordered list of
:class:`LayerSpec`; :func:`infer_shapes` propagates the input shape through
the layer list, producing the per-layer input/output geometry every other
module consumes.

Every network, the four built-ins included, is written in one line-oriented
text format read by :func:`parse_network`; the built-ins ship as
``cnnergy/data/networks/<name>.net`` and :func:`builtin_network` reads them.

``_KINDS`` is the one home of each kind's keys; :class:`LayerSpec`'s checks,
the parser's kind spellings and keys and :func:`emit_network` all derive from it.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import NamedTuple

from . import _tables
from ._tables import Checked, checked
from .errors import (
    ArchSemanticError,
    ArchSyntaxError,
    GroupMismatchError,
    NonPositiveOutputError,
    ShapeConflictError,
    UnknownNetworkError,
)

#: Every layer kind: its spelling in architecture files, the LayerSpec fields
#: it always has, and the fields it may set. Every other field must keep its
#: default.
_KINDS = {
    "conv": ("conv", ("kernel_w", "kernel_h", "out_channels", "stride", "padding"),
             ("groups", "has_bias")),
    "pool": ("pool", ("kernel_w", "kernel_h", "stride", "padding", "pool_kind"), ()),
    # the window is kept for op accounting only
    "local_response_norm": ("lrn", ("kernel_w", "kernel_h"), ()),
    "fully_connected": ("fc", ("units",), ()),
    # units, when given, must equal the input channel count (layer_output)
    "softmax": ("softmax", (), ("units",)),
    # skip names the earlier layer whose output is the second addend
    "residual_sum": ("sum", (), ("skip",)),
    "relu": ("relu", (), ()),
    "dropout": ("dropout", (), ()),
    "batch_norm": ("batch_norm", (), ()),
}

#: Each field's key in architecture files and the values a set field may
#: take (a lowest value or a tuple of choices), in the order they are written.
_FIELDS = {"kernel_w": ("kw", 1), "kernel_h": ("kh", 1), "out_channels": ("filters", 1),
           "stride": ("stride", 1), "padding": ("pad", 0), "groups": ("groups", 1),
           "has_bias": ("bias", None), "pool_kind": ("type", ("max", "average")),
           "units": ("units", 1), "skip": ("skip", None)}

#: The bundled architectures, each shipped as ``cnnergy/data/networks/<name>.net``.
BUILTIN_NETWORK_NAMES = ("two_d_cnn", "resnet_gait", "caffenet", "resnet_im")

#: Most layers a parsed network may have, ``resblock`` expansions included;
#: about 67x the 149 layers of resnet_gait.
MAX_LAYERS = 10_000


@checked
class TensorShape(NamedTuple):
    """Spatial width/height plus channel count of one activation tensor."""

    width: int
    height: int
    channels: int

    def _check(self):
        for name in ("width", "height", "channels"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"TensorShape.{name} must be a positive int, got {value!r}")

    @property
    def elements(self) -> int:
        return self.width * self.height * self.channels

    def __str__(self) -> str:
        return f"{self.width}x{self.height}x{self.channels}"


@checked
class LayerSpec(NamedTuple):
    """One layer of a network: a kind plus the geometry that kind needs.

    ``_KINDS`` says which fields each kind has; the rest keep their defaults.
    A name is a cell of the cost CSV: it is non-empty, holds no comma, double
    quote or line break, and is not ``total``, the name of the totals row.
    It is also the second word of its architecture line, so it is one
    ``str.split()`` word without ``#``.
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

    def _check(self):
        _tables.check_cell("layer name", self.name, refused=("", "total"))
        if "#" in self.name or self.name.split() != [self.name]:
            raise ValueError(f"layer name must be one word without '#', got {self.name!r}")
        if self.kind not in _RULES:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        needed, ranged, fixed = _RULES[self.kind]
        for attr, key in needed:
            if getattr(self, attr) is None:
                raise ValueError(f"{self.kind} layer {self.name!r} needs {key}=")
        for attr, bound, wanted in ranged:
            value = getattr(self, attr)
            if value is not None and (value not in bound if type(bound) is tuple
                                      else value < bound):
                raise ValueError(f"{self.kind} layer {self.name!r} needs {wanted}, got {value!r}")
        for attr, key, default in fixed:
            value = getattr(self, attr)
            if value is not None and value != default:
                raise ValueError(f"{key}= does not apply to {self.kind} layer {self.name!r}")


def _kind_rules(always: tuple[str, ...], may: tuple[str, ...]):
    """A kind's checks: the fields that may not be None (those it always has
    and the bounded ones with a default), the bounds of the fields it has,
    and the fields that must keep their default (or be None)."""
    has = always + may
    needed = tuple((f, key) for f, (key, bound) in _FIELDS.items()
                   if f in always or (bound is not None and _DEFAULTS[f] is not None))
    ranged = tuple((f, bound, " or ".join(f"{key}={c}" for c in bound)
                    if type(bound) is tuple else f"{key}={bound} or more")
                   for f, (key, bound) in _FIELDS.items() if f in has and bound is not None)
    fixed = tuple((f, key, _DEFAULTS[f]) for f, (key, _) in _FIELDS.items() if f not in has)
    return needed, ranged, fixed


_DEFAULTS = LayerSpec._field_defaults
_RULES = {kind: _kind_rules(always, may) for kind, (_, always, may) in _KINDS.items()}


class NetworkSpec(Checked, NamedTuple("NetworkSpec", [
        ("name", str), ("input", TensorShape), ("layers", tuple[LayerSpec, ...])])):
    """Named network: an input shape plus an ordered layer list."""

    __slots__ = ()

    def __new__(cls, name: str, input: TensorShape, layers):
        return super().__new__(cls, name, input, tuple(layers))

    def _check(self):
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


class ShapedLayer(NamedTuple("ShapedLayer", [
        ("spec", LayerSpec), ("input", TensorShape), ("output", TensorShape)])):
    """A layer applied to an input shape. ``output`` is worked out at
    construction by :func:`layer_output`, so a layer that does not fit its
    input is refused with the error that names it; ``_replace`` works it out
    again and takes no ``output``."""

    __slots__ = ()

    def __new__(cls, spec: LayerSpec, input: TensorShape):
        return super().__new__(cls, spec, input, layer_output(spec, input))

    def __getnewargs__(self):  # pickle and copy build through __new__
        return self.spec, self.input

    def _replace(self, **changes):
        return ShapedLayer(**{"spec": self.spec, "input": self.input, **changes})


class ShapedNetwork(NamedTuple("ShapedNetwork", [
        ("spec", NetworkSpec), ("per_layer", tuple[ShapedLayer, ...])])):
    """A network whose per-layer tensor geometry has been resolved. It has a
    ``__dict__``, which holds its cached sums."""

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
        sl = ShapedLayer(layer, inp)
        shaped.append(sl)
        outputs[layer.name] = current = sl.output
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
    _check_builtin(name)
    return parse_network(_tables.data_text(f"networks/{name}.net"))


def _check_builtin(name: str) -> None:
    """Raise UnknownNetworkError unless ``name`` is in :data:`BUILTIN_NETWORK_NAMES`."""
    if name not in BUILTIN_NETWORK_NAMES:
        raise UnknownNetworkError(
            f"unknown builtin {name!r}; choose from {', '.join(BUILTIN_NETWORK_NAMES)}"
        )


@cache
def _builtin_shapes(name: str) -> ShapedNetwork:
    """``infer_shapes(builtin_network(name))``, built once per process; the
    result is immutable, so every caller shares it."""
    return infer_shapes(builtin_network(name))


# ---------------------------------------------------------------------------
# Line-oriented architecture files
# ---------------------------------------------------------------------------

#: Each kind's own name and its file spelling, plus ``bn`` for batch_norm.
_KIND_ALIASES = {"bn": "batch_norm", **{kind: kind for kind in _KINDS},
                 **{spelling: kind for kind, (spelling, _, _) in _KINDS.items()}}

#: Per kind: its spelling, then (field, key, always written?, default) in order.
_EMIT = {kind: (spelling, tuple((f, key, f in always, _DEFAULTS[f])
                                for f, (key, _) in _FIELDS.items() if f in always + may))
         for kind, (spelling, always, may) in _KINDS.items()}

#: Each architecture-file key: how its text reads and the LayerSpec fields it
#: sets. A field with a bool default reads as the ``bias`` flag (``bool``),
#: one with a lowest value as ``int`` and any other as ``str``. ``k`` sets
#: both kernel fields; resblock's ``count`` and ``convs`` set none.
_KEYS = {**{key: (bool if type(_DEFAULTS[f]) is bool else int if type(bound) is int else str,
                  (f,)) for f, (key, bound) in _FIELDS.items()},
         "k": (int, ("kernel_w", "kernel_h")), "count": (int, ()), "convs": (int, ())}

#: The layer lines one residual block stands for, per ``convs`` value: ``{b}``
#: is the block's name, ``{f}`` its filters and ``{s}`` the layer before the
#: block, whose output the sum adds.
_BLOCK_LINES = {
    2: ("conv {b}_conv1 filters={f} k=3 pad=1", "bn {b}_bn1", "relu {b}_relu1",
        "conv {b}_conv2 filters={f} k=3 pad=1", "bn {b}_bn2", "sum {b}_sum skip={s}",
        "relu {b}_relu_out"),
    1: ("conv {b}_conv filters={f} k=3 pad=1", "bn {b}_bn", "relu {b}_relu",
        "sum {b}_sum skip={s}", "relu {b}_relu_out"),
}


def _parse_kv(tokens: list[str], lineno: int) -> dict[str, object]:
    kv: dict[str, object] = {}
    for token in tokens:
        if "=" not in token:
            raise ArchSyntaxError(f"expected key=value, got {token!r}", lineno)
        key, _, raw = token.partition("=")
        if key in kv:
            raise ArchSyntaxError(f"duplicate key {key!r}", lineno)
        if key not in _KEYS:
            raise ArchSyntaxError(f"unknown key {key!r}", lineno)
        read = _KEYS[key][0]
        if read is int:
            try:
                kv[key] = int(raw)
            except ValueError:
                raise ArchSyntaxError(f"key {key} needs an integer, got {raw!r}", lineno) from None
        elif read is bool:
            if raw not in ("true", "false"):
                raise ArchSyntaxError(f"bias must be true or false, got {raw!r}", lineno)
            kv[key] = raw == "true"
        else:
            kv[key] = raw
    return kv


def _read_layer(tokens: list[str], lineno: int) -> LayerSpec:
    """The layer of one ``<kind> <name> key=value ...`` line, split into words."""
    kind_token, name, *kv_tokens = tokens
    kv = _parse_kv(kv_tokens, lineno)
    kind = _KIND_ALIASES.get(kind_token)
    if kind is None:
        raise ArchSyntaxError(f"unknown layer kind {kind_token!r}", lineno)
    args: dict[str, object] = {}
    for key, value in kv.items():
        for f in _KEYS[key][1]:
            if f in args:  # only k= and kw=/kh= set one field twice
                raise ArchSyntaxError("give either k= or kw=/kh=, not both", lineno)
            args[f] = value
    unexpected = [key for key in kv if not _KEYS[key][1]]
    if unexpected:
        raise ArchSyntaxError(f"unexpected keys for {kind}: {sorted(unexpected)}", lineno)
    if kind == "pool":
        args.setdefault("pool_kind", "max")
    try:
        return LayerSpec(name, kind, **args)
    except ValueError as exc:
        raise ArchSemanticError(str(exc), lineno) from None


def _check_room(n_layers: int, lineno: int) -> None:
    if n_layers > MAX_LAYERS:
        raise ArchSemanticError(f"network would have {n_layers} layers; the limit is "
                                f"{MAX_LAYERS}", lineno)


def parse_network(source, name: str | None = None) -> NetworkSpec:
    """Parse the line-oriented architecture format, text or a text stream.

    Grammar: ``#`` starts a comment; the first non-comment line is
    ``input <w> <h> <ch>``; each following line is ``<kind> <name>
    key=value ...``, with the keys of ``_KEYS``. ``resblock <name>
    filters=<n> count=<m> [convs=1|2]`` stands for that many residual blocks,
    ``<name>1``, ``<name>2``, ..., each read as its ``_BLOCK_LINES``. A
    ``# network: <name>`` comment names the network. ``_KINDS`` says which
    keys each kind takes, and a network has at most :data:`MAX_LAYERS` layers.

    Raises:
        ArchSyntaxError: malformed line (with its line number).
        ArchSemanticError: well-formed line violating a layer/network
            invariant, or a line that would take the network past
            :data:`MAX_LAYERS` (checked before any of its layers is built).
    """
    input_shape: TensorShape | None = None
    layers: list[LayerSpec] = []
    file_name = None
    for lineno, raw_line in _tables.numbered_lines(source):
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
        if tokens[0] == "input":
            raise ArchSyntaxError("duplicate input line", lineno)
        if len(tokens) < 2:
            raise ArchSyntaxError(f"layer line needs a name: {line!r}", lineno)
        if tokens[0] != "resblock":
            _check_room(len(layers) + 1, lineno)
            layers.append(_read_layer(tokens, lineno))
            continue
        kv = _parse_kv(tokens[2:], lineno)
        filters = kv.pop("filters", None)
        count = kv.pop("count", None)
        convs = kv.pop("convs", 2)
        if kv:
            raise ArchSyntaxError(f"unexpected keys for resblock: {sorted(kv)}", lineno)
        if filters is None or count is None or count < 1:
            raise ArchSyntaxError("resblock needs filters=<n> count=<m>", lineno)
        if not layers:
            raise ArchSemanticError("resblock cannot be the first layer", lineno)
        if convs not in _BLOCK_LINES:
            raise ArchSemanticError("residual blocks support convs=1 or convs=2", lineno)
        block = _BLOCK_LINES[convs]
        _check_room(len(layers) + count * len(block), lineno)
        for i in range(1, count + 1):
            fills = {"b": f"{tokens[1]}{i}", "f": filters, "s": layers[-1].name}
            layers += [_read_layer(text.format_map(fills).split(), lineno) for text in block]
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
        spelling, written = _EMIT[layer.kind]
        parts = [spelling, layer.name]
        for field, key, always, default in written:
            value = getattr(layer, field)
            if field == "kernel_h" and value == layer.kernel_w:
                parts[-1] = f"k={layer.kernel_w}"
            elif always or (value is not None and value != default):
                parts.append(f"{key}={'true' if key == 'bias' else value}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"
