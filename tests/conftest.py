"""Test-wide configuration: the property tests draw the same examples on
every run. The profile derives each test's examples from the test itself
(`derandomize`) and keeps no example database, so a counterexample found
once is found on every run until it is fixed; the examples a test must
always cover are its explicit `@example`s."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
