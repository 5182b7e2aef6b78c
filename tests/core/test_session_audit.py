"""Per-probe audit of the timing session the flow's loops drive.

The assignment and ECO stages each run their STA-in-the-loop on one
incremental :class:`~repro.timing.session.TimingSession`.  Here the
stages build an audited subclass instead: every ``report()`` and every
arrivals-only ``wns()`` (the bisection probes) is checked against a
fresh :class:`~repro.timing.sta.TimingAnalyzer` run on the same
netlist with the session's parasitics, derates and clock arrivals.  A
loop that edits the netlist without reporting the edit to its session
shows up as a mismatch at the next probe.

s344 at margin 0.12 with no assignment guardband makes the ECO setup
fixer swap cells in all three techniques, so the audit covers the
assignment bisection, the setup-repair swaps and the hold fixing.
"""

import pytest

from repro.benchcircuits.suite import load_circuit
from repro.config import FlowConfig, Technique
from repro.core import stages
from repro.core.flow import SelectiveMtFlow
from repro.timing.session import TimingSession
from repro.timing.sta import TimingAnalyzer


def _summary(report):
    # Per-net slack is what DualVthAssigner._slack_of sorts candidates
    # by, so a stale required time anywhere in the design shows here.
    return (report.wns, report.tns, report.hold_wns, report.hold_tns,
            [(check.endpoint, check.kind, check.slack)
             for check in report.endpoint_checks],
            {net: node.slack for net, node in report.node_timing.items()})


@pytest.mark.parametrize("technique", list(Technique),
                         ids=lambda technique: technique.value)
def test_every_session_probe_matches_a_fresh_analyzer(library, monkeypatch,
                                                      technique):
    probes = {"report": 0, "wns": 0}
    mismatches = []

    class AuditedSession(TimingSession):
        def _fresh(self):
            return TimingAnalyzer(
                self.netlist, self.library, self.constraints,
                parasitics=self.net_model.parasitics, derates=self.derates,
                clock_arrivals=self.clock_arrivals).run()

        def report(self):
            probes["report"] += 1
            report = super().report()
            fresh = self._fresh()
            if _summary(report) != _summary(fresh):
                mismatches.append((dict(probes), report.summary(),
                                   fresh.summary()))
            return report

        def wns(self):
            probes["wns"] += 1
            wns = super().wns()
            fresh = self._fresh().wns
            if wns != fresh:
                mismatches.append((dict(probes), wns, fresh))
            return wns

    monkeypatch.setattr(stages, "TimingSession", AuditedSession)
    result = SelectiveMtFlow(
        load_circuit("s344"), library, technique,
        FlowConfig(timing_margin=0.12, assignment_guardband=0.0)).run()

    assert result.stage("eco_and_sta").details["setup_swaps"] > 0
    assert probes["report"] > 0 and probes["wns"] > 0
    assert mismatches == []
