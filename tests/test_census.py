"""The static half of ``tests/census.py`` as a tier-1 check: every function,
method and class the package defines is used by the package or by
``bench/``, so a helper that only tests call fails here."""

import census


def test_no_definition_is_used_by_tests_alone():
    assert census.unused_names() == []
