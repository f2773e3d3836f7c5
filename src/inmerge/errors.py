"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 2,
dataset/checkpoint problems exit 3, numeric failures exit 4.
"""


class InmergeError(Exception):
    """Base class for every error raised by this package."""


class NumericError(InmergeError, ArithmeticError):
    """A numeric contract was violated (e.g. NaN/Inf where finite values
    are required, or a zero-norm vector fed to a direction metric)."""


class ConfigError(InmergeError, ValueError):
    """A configuration value, document, or preset is invalid."""


class ShapeError(ConfigError):
    """Operand shapes are inconsistent with an operation's contract."""


class DataError(InmergeError, ValueError):
    """Base class for dataset container problems."""


class DatasetMissingFileError(DataError):
    """A required file of the dataset directory format is absent."""


class DatasetSizeError(DataError):
    """A binary blob's byte count disagrees with the meta descriptor."""


class LabelDomainError(DataError):
    """A label value lies outside its declared domain."""


class UndefinedMetricError(DataError):
    """A metric is undefined for the given inputs (e.g. AUROC on a
    single-class label vector)."""


class CheckpointError(InmergeError, ValueError):
    """Base class for checkpoint file problems."""


class CorruptHeaderError(CheckpointError):
    """Magic bytes, header length, or header/trailer text unreadable."""


class HeaderLayoutError(CheckpointError):
    """Tensor offsets overlap, descend, or fail to cover the payload."""


class UnknownDtypeError(CheckpointError):
    """A tensor entry declares a dtype this reader does not support."""


class TruncatedFileError(CheckpointError):
    """The file ends before the bytes the header promises."""
