"""Exception hierarchy for the aucal library."""


class AucalError(Exception):
    """Base class for all library errors."""


# --- data loading / validation ---

class MissingColumn(AucalError):
    def __init__(self, column: str):
        super().__init__(f"required column missing: {column!r}")
        self.column = column


class ParseError(AucalError):
    def __init__(self, row: int, column: str, message: str = ""):
        detail = f" ({message})" if message else ""
        super().__init__(f"row {row}, column {column!r}: unparseable value{detail}")
        self.row = row
        self.column = column


class EmptyDataset(AucalError):
    pass


class InconsistentFeatureDim(AucalError):
    pass


class UnknownAu(AucalError):
    def __init__(self, au_id: str):
        super().__init__(f"unknown AU id: {au_id!r}")
        self.au_id = au_id


class UnknownGroupLevel(AucalError):
    def __init__(self, level: str):
        super().__init__(f"unknown group level: {level!r}")
        self.level = level


class NotBinarized(AucalError):
    pass


# --- statistics ---

class LengthMismatch(AucalError):
    pass


class EmptyInput(AucalError):
    pass


class InsufficientData(AucalError):
    pass


class InvalidCounts(AucalError):
    pass


class Separation(AucalError):
    pass


class SingularDesign(AucalError):
    pass


# --- model / training ---

class IndexOutOfRange(AucalError):
    pass


class InvalidLabel(AucalError):
    pass


class NoFeatures(AucalError):
    pass


class EmptyTrainSplit(AucalError):
    pass


class DimensionMismatch(AucalError):
    pass


class Diverged(AucalError):
    pass


# --- metrics ---

class MissingGroup(AucalError):
    def __init__(self, level: str):
        super().__init__(f"group level not present: {level!r}")
        self.level = level


class SingleClass(AucalError):
    pass


class Misaligned(AucalError):
    pass


class InfeasibleBalance(AucalError):
    pass


# --- synth / relabel ---

class InvalidConfig(AucalError):
    pass


class InvalidCount(AucalError):
    pass


class IoError(AucalError):
    pass
