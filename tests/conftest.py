import sys

from hypothesis import settings

# Every run of the property tests draws the same examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance PASS/FAIL lines even when capture is on."""
    module = sys.modules.get("test_acceptance") \
        or sys.modules.get("tests.test_acceptance")
    lines = getattr(module, "REPORT_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
