"""Shared pytest setup for tests/ and perfbench/tests."""

import warnings

# Hypothesis's pytest plugin imports this module to print a patch for a
# failing example. Its libcst import raises a DeprecationWarning, which
# filterwarnings = ["error"] would turn into an INTERNALERROR that ends the
# session, so it is imported once here with that warning ignored.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401
