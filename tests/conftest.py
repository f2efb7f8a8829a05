import pytest

from wl2link.harness import Corpus, fixtures_corpus, power_check, random_corpus


@pytest.fixture(scope="session")
def default_corpus():
    return Corpus.merge(fixtures_corpus(), random_corpus())


@pytest.fixture(scope="session")
def default_power_report(default_corpus):
    """The expensive full-corpus report, shared by every test that needs it."""
    return power_check(default_corpus)
