from hypothesis import settings

# Derandomized: every run draws the same examples, so a property cannot flake.
settings.register_profile("icsim", derandomize=True, deadline=None)
settings.load_profile("icsim")
