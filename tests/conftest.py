import pytest


@pytest.fixture(scope="session")
def _cache_dir(tmp_path_factory):
    """One lattice cache directory for the whole session, for the tests that
    name one."""
    return str(tmp_path_factory.mktemp("lattice-cache"))


@pytest.fixture(scope="session")
def a5():
    from wreathcover import catalog

    return catalog.load("A5")


@pytest.fixture(scope="session")
def m11():
    from wreathcover import catalog

    return catalog.load("M11")


@pytest.fixture(scope="session")
def psl11():
    from wreathcover import catalog

    return catalog.load("PSL(2,11)")


@pytest.fixture(scope="session")
def psl7():
    from wreathcover import catalog

    return catalog.load("PSL(2,7)")


@pytest.fixture(scope="session")
def m11_lattice(m11, _cache_dir):
    from wreathcover.lattice import all_subgroup_classes

    return all_subgroup_classes(m11.table, cache_dir=_cache_dir)
