import warnings

from hypothesis import settings

# Derandomized: every run draws the same examples, so a property cannot flake.
settings.register_profile("icsim", derandomize=True, deadline=None)
settings.load_profile("icsim")

# Hypothesis's pytest plugin imports this module, and through it libcst where
# libcst is installed, as it reports a falsifying example.  libcst's import
# warns that mypy_extensions.TypedDict is deprecated, which under
# `-W error` ends the session in INTERNALERROR instead of the failure.  So
# import it here first, with only that warning ignored.
try:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                                DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass
