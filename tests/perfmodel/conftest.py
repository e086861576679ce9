"""Fixtures shared by the flow-evaluator suites."""

import pytest

from repro.perfmodel import flowsim


@pytest.fixture
def deliver_widths(monkeypatch):
    """Batch width of every ``flowsim.deliver`` call made during the test.

    A count that repeats exactly, where a host-clock bound would flake.
    ``reference_flow`` binds ``deliver`` at import, so the oracle's calls
    are not seen.
    """
    widths = []
    deliver = flowsim.deliver

    def spy(t_send, trains, stages):
        widths.append(t_send.size)
        return deliver(t_send, trains, stages)

    monkeypatch.setattr(flowsim, "deliver", spy)
    return widths
