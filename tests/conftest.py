import os
import sys

from hypothesis import settings

# make the shared oracle helpers importable from every test module
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and never fail on
# wall-clock time, so tier-1 stays reproducible on slow machines.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")
