"""Exception types shared across the repbench modules.  An error in the
content of an input file is a ParseError, so the loader can put the file's
path on it."""


class RepbenchError(Exception):
    """Base class for all repbench errors."""


class PointAtInfinity(RepbenchError):
    """Projective division would divide by a near-zero homogeneous weight."""


class DegenerateRegion(RepbenchError):
    """A region transport produced a shape matrix that is not positive definite."""


class ParseError(RepbenchError):
    """Malformed input text.

    `line` is the 1-based line number when the error is attributable to one,
    `path` the file the text came from when it was read from one, and
    `reason` the message without either prefix.
    """

    def __init__(self, reason, line=None, path=None):
        self.reason = reason
        self.line = line
        self.path = path
        message = reason
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)

    def with_path(self, path):
        """The same error, of the same type, attributed to file `path`."""
        return type(self)(self.reason, line=self.line, path=path)


class InvalidRegion(ParseError):
    """A parsed keypoint region violates positive definiteness or finiteness."""


class ManifestError(ParseError):
    """A dataset manifest is structurally valid JSON but violates the schema."""


class SingularHomography(ParseError):
    """A 3x3 matrix whose determinant at unit scale is zero cannot act as a
    homography."""


class DescriptorUnavailable(RepbenchError):
    """Descriptor matching was requested on sets without usable descriptors."""

