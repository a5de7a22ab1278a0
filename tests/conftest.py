"""The acceptance verdicts are replayed after the run."""


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-criterion verdict lines after the test run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    if mod is None:
        return
    CRITERION_LINES = getattr(mod, "CRITERION_LINES", [])
    if not CRITERION_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in sorted(CRITERION_LINES):
        terminalreporter.line(line)
