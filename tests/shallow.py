"""A guard for tests that walk 10^4-deep formulas and terms."""

import pytest


def shallow(f, *args):
    """f(*args), with a RecursionError turned into a plain failure: pytest
    compares the locals of the frames of a deep recursion, here deep
    formulas or terms, and would take minutes to report it."""
    try:
        return f(*args)
    except RecursionError:
        pass
    pytest.fail(f"{getattr(f, '__name__', f)} recursed once per level")
