import pytest

from nwgame import StudentStrategy

from helpers import reference_instance

# Every tier-1 run, however launched, runs under this address-space cap (it
# peaks near 91 MiB, 109 MiB under -X dev), so a fault that allocates without
# end, such as a plan drawn past a 2^64 step budget, fails with MemoryError
# instead of exhausting the host's memory.  The cap lowers the soft limit
# only, never raising one already in force, and leaves the hard limit alone.
ADDRESS_SPACE_CAP = 1 << 30
try:
    from resource import RLIM_INFINITY, RLIMIT_AS, getrlimit, setrlimit
except ImportError:  # no resource module, as on Windows, or no RLIMIT_AS
    pass
else:
    soft, hard = getrlimit(RLIMIT_AS)
    if soft == RLIM_INFINITY or soft > ADDRESS_SPACE_CAP:
        setrlimit(RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))


@pytest.fixture(scope="session")
def inst_a():
    return reference_instance(c=1)


@pytest.fixture(scope="session")
def inst_a_c2():
    return reference_instance(c=2)


@pytest.fixture
def game_loop_only(monkeypatch):
    """While active, every `StudentStrategy` built, whether by a library
    builder, `strategy_from_spec`, `compose` or `dataclasses.replace`, has
    its `plan` cleared, so every scan, sample, predictor batch and in-process
    `nwgame` command plays the game loop.  A later fast path that a strategy
    field selects must be cleared here too."""
    post_init = StudentStrategy.__post_init__

    def loop_only(self):
        post_init(self)
        object.__setattr__(self, "plan", None)

    monkeypatch.setattr(StudentStrategy, "__post_init__", loop_only)
