"""Covering numbers of finite simple groups and their wreath products S ≀ C_m.

Exact enumeration, branch-and-bound minimal covers, product-type membership
tests, definite-unbeatability certificates, and big-integer formula checks.
"""


class InputError(ValueError):
    """Input the program refuses: malformed, unknown, or over a cap.  The
    CLI reports it with exit status 2; any other exception is a bug."""


from .perm import Perm  # noqa: E402  (perm imports InputError from here)

__version__ = "0.1.0"

__all__ = ["InputError", "Perm", "__version__"]
