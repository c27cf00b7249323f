from hypothesis import settings

# Every property test draws the same examples on every run, so the suite is
# deterministic; each test sets only its own max_examples.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
