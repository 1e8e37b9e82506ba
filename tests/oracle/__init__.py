"""Test-only oracles for the batched search (see :mod:`.serial`)."""
