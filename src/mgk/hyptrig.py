"""The error type shared by every module of the package."""


class DomainError(ValueError):
    """Input outside the geometric domain: a bad signature, angles outside
    (0, pi), a slope below the hyperbolicity threshold, a malformed entry."""
