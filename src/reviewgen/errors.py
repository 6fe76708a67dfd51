"""Exception types shared across the reviewgen pipeline."""


class ReviewgenError(Exception):
    """Base class for all reviewgen errors."""


class ParseError(ReviewgenError):
    """A document could not be parsed (malformed syntax or wrong field types)."""


class ValidationError(ReviewgenError):
    """A parsed document violates a structural invariant."""


class CutoffMismatchError(ReviewgenError):
    """A background index cannot be widened to a later cutoff year."""


class FormatVersionError(ReviewgenError):
    """A persisted file has an unknown format marker or version."""


class ShapeMismatchError(ReviewgenError):
    """Tensor shapes do not line up with the declared model dimensions."""


class EmptySequenceError(ReviewgenError):
    """An operation requiring a non-empty sequence received an empty one."""


class EmptyDatasetError(ReviewgenError):
    """Training or evaluation was requested on an empty dataset."""


class MissingModelError(ReviewgenError):
    """No trained model is available for a requested category."""

    def __init__(self, category_name: str):
        # the category alone is the argument, so that unpickling, which
        # calls the class with the arguments, rebuilds the same error
        super().__init__(category_name)
        self.category_name = category_name

    def __str__(self) -> str:
        return f"no model for category: {self.category_name}"


class UnsupportedRelationError(ReviewgenError):
    """A relation type has no realization phrase."""
