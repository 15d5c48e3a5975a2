"""Suite-wide Hypothesis settings.

Examples are derived from each test's source rather than drawn at random,
so every run checks the same cases; no example database is kept; and there
is no per-example deadline, since timing belongs to the benchmark, not to a
test.
"""

import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves without it
    pass
else:
    settings.register_profile(
        "oscisel", derandomize=True, database=None, deadline=None, max_examples=150
    )
    settings.load_profile("oscisel")
    # Hypothesis also caches the constants it reads from the source code;
    # that cache goes to a directory removed at exit, not into the checkout
    _storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(_storage.name)
