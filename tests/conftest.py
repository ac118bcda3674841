import pytest

from ltwist import report


@pytest.fixture
def rows_in_calling_process(monkeypatch):
    """Run every report row in the calling process, as on one core.

    report_all forks workers for the rows on a host with more cores, and a
    row run in a worker records nothing in this process: a test that watches
    the rows' side effects here (calls through a patch, the global random
    state) takes this fixture.  A patch alone still reaches a worker, which
    inherits it.
    """
    monkeypatch.setattr(report, "_cores", lambda: 1)
