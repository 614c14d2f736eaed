"""Exception types shared across the engine.

Division by zero is reported with the builtin ZeroDivisionError.
"""


class ClusterError(Exception):
    """Base class for all domain errors raised by this package.

    Every subclass takes the same keyword-only context: the seed, and
    direction, path, position and step, 0-based; each is None unless set.
    The CLI writes each of the last four that is set, 1-based, into its
    JSON error.
    """

    code = "cluster_error"

    def __init__(self, message, *, seed=None, direction=None, path=None, position=None, step=None):
        super().__init__(message)
        self.seed, self.direction, self.path = seed, direction, path
        self.position, self.step = position, step


class NotDivisibleError(ClusterError):
    """Exact division has no solution in the ring.

    During a seed mutation this would refute the Laurent phenomenon, so
    the error carries enough context (seed, direction, path or step) to
    reproduce the failure.  It is never swallowed by the library.
    """

    code = "not_divisible"


class IncompatibleError(ClusterError):
    """The pair (Lambda, B) fails the compatibility condition.

    ``position`` is the offending 0-based (i, j) entry of the product
    B^T * Lambda, when known.
    """

    code = "incompatible"


class NotSymmetrizableError(ClusterError):
    """No positive integer skew-symmetrizer exists for the matrix."""

    code = "not_symmetrizable"


class FrameMismatchError(ClusterError):
    """Two torus elements live over different skew matrices.

    Mixing frames would corrupt q-exponents invisibly, so it is always
    an error, never a coercion.
    """

    code = "frame_mismatch"
