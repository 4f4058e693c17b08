"""Covering numbers of finite simple groups and their wreath products S ≀ C_m.

Exact enumeration, branch-and-bound minimal covers, product-type membership
tests, definite-unbeatability certificates, and big-integer formula checks.
"""

from .perm import Perm

__version__ = "0.1.0"

__all__ = ["Perm", "__version__"]
