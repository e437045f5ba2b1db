"""Exception types shared across the package."""


class DegenerateQuadError(ValueError):
    """Quadrilateral has (near-)zero area or self-intersects."""


class DomainError(ValueError):
    """Scalar argument outside its mathematical domain."""


class ShapeMismatchError(ValueError):
    """Array dimensions inconsistent with the operation's contract."""


class InfeasibleTargetError(ValueError):
    """CTC target cannot be emitted in the given number of timesteps."""


class ImageIdMismatchError(ValueError):
    """Ground-truth and prediction records refer to different images."""


class ParseError(ValueError):
    """Malformed line in an annotation, prediction, or alphabet file."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix += f"{path}:"
        if line is not None:
            prefix += f"{line}:"
        super().__init__(f"{prefix} {message}" if prefix else message)
