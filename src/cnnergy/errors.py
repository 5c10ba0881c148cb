"""Exception hierarchy shared by all cnnergy modules."""


class CnnergyError(Exception):
    """Base class for all errors raised by this package."""


# --- architecture / shape inference ---------------------------------------

class NonPositiveOutputError(CnnergyError):
    """A conv/pool kernel does not fit in its (padded) input."""


class GroupMismatchError(CnnergyError):
    """Convolution groups do not divide the input or output channels."""


class ShapeConflictError(CnnergyError):
    """Two tensors that must agree in shape do not."""


class UnknownNetworkError(CnnergyError):
    """Requested built-in network name does not exist."""


class _LineError(CnnergyError):
    """An error at an optional line number, kept as ``.line`` and prefixed
    to the message as ``line N: ``."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ArchSyntaxError(_LineError):
    """Architecture file could not be tokenized/parsed."""


class ArchSemanticError(_LineError):
    """Architecture file parsed but violates a structural invariant."""


# --- power traces -----------------------------------------------------------

class TraceFormatError(CnnergyError):
    """Power-trace or region CSV is malformed."""


class NonMonotoneTimeError(CnnergyError):
    """Trace timestamps decrease."""


class ChannelCountMismatchError(CnnergyError):
    """Sample rows disagree on the number of power channels."""


class EmptyRegionError(CnnergyError):
    """A measurement region does not overlap the trace."""


class InsufficientSamplesError(CnnergyError):
    """Too few samples to integrate over the requested region."""


class TraceTooLargeError(CnnergyError):
    """A requested synthetic trace exceeds the sample-count limit."""


# --- bundled/user data files --------------------------------------------------

class DataFormatError(CnnergyError):
    """An input table, model file or command-line value is malformed."""


# --- measurements / calibration ----------------------------------------------

class InsufficientDataError(CnnergyError):
    """A calibration group has fewer than two distinct batch sizes."""


class MismatchedRecordsError(CnnergyError):
    """Paired measurement records do not describe the same configuration."""


class KeyMismatchError(CnnergyError):
    """Two record sets share no (network, step, gpus, batch) keys."""


# --- multi-GPU -----------------------------------------------------------------

class IndivisibleBatchError(CnnergyError):
    """Batch size is not divisible by the GPU count."""


class MissingDeviceError(CnnergyError):
    """A GPU-set member has no per-device value supplied."""


# --- tuner ----------------------------------------------------------------------

class NoDataForConfigError(CnnergyError):
    """No measurement or calibrated model covers a training configuration."""


class NothingFeasibleError(CnnergyError):
    """A command has nothing to produce: no feasible configuration remains to
    rank, or no group can be fitted."""
