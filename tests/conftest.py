import pytest

from commcount.groups import make_group


@pytest.fixture(scope="module")
def shared_group():
    """make_group for tests that only read the group: ``symmetric:7``, the
    largest group the suite builds, is built once per test file and shared
    with its memo; any other spec is built anew."""
    built = {}

    def make(spec):
        if spec != "symmetric:7":
            return make_group(spec)
        if spec not in built:
            built[spec] = make_group(spec)
        return built[spec]

    return make
