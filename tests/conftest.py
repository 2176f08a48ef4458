"""Terminal summary for the acceptance suite: one PASS/FAIL line per
criterion, printed after the normal pytest output; state labels name
parametrized tests by their wire form ("00", not "PpsLabel.P00")."""

from ppsrelax.spins import PpsLabel

CRITERIA = {
    "test_criterion_1_oracle_equivalence": "1 exact propagator vs RK4 oracle",
    "test_criterion_2_auto_only_degeneracy": "2 interference-free 00/11 degeneracy",
    "test_criterion_3_interference_ordering": "3 interference ordering inequalities",
    "test_criterion_4_closed_form_fixtures": "4 closed-form deviation fixtures",
    "test_criterion_5_linear_differential_decay": "5 linearity of differential decay",
    "test_criterion_6_excess_asymmetry": "6 spin-1 vs spin-2 excess asymmetry",
    "test_criterion_7_measurement_round_trip": "7 measurement round trip",
    "test_criterion_8_numerical_hygiene": "8 numerical hygiene",
}

_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.split("::")[-1]
    if name in CRITERIA:
        _results[name] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in CRITERIA.items():
        if name in _results:
            outcome = "PASS" if _results[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"criterion {label}: {outcome}")


def pytest_make_parametrize_id(config, val, argname):
    return val.value if isinstance(val, PpsLabel) else None
