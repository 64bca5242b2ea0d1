from cartierv.suites import random_poly  # noqa: F401  (shared by the test modules)
