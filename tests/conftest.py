"""Suite-wide test configuration.

Hypothesis runs derandomized and without an example database, so the
examples every property test draws depend only on the code under test:
the same commit passes or fails the same way on every machine and every
run, regardless of seed or a local ``.hypothesis/`` directory.  Inputs a
property must always cover are pinned with ``@example``.
"""

from hypothesis import settings

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")
