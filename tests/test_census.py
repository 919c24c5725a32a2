"""The static lists of ``tests/census.py`` as tier-1 checks: every function,
method and class the package defines is used by the package or by
``bench/``, so a helper that only tests call fails here, and so does a
return value that every such caller discards."""

import census


def test_no_definition_is_used_by_tests_alone():
    assert census.unused_names() == []


def test_no_return_value_is_discarded_by_every_caller():
    assert census.discarded_returns() == []
