import re
import tempfile

from hypothesis import Phase, settings
from hypothesis.configuration import set_hypothesis_home_dir

# property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
# tests/mutants.py needs only to see a test fail, so it skips shrinking the
# failing example (--hypothesis-profile=mutants)
settings.register_profile("mutants", settings.get_profile("deterministic"),
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))
settings.load_profile("deterministic")


def pytest_configure(config):
    # hypothesis still caches the constants it reads from local modules;
    # keep that cache in a directory removed after the run, not in the tree
    config.hypothesis_home = tempfile.TemporaryDirectory()
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    config.hypothesis_home.cleanup()

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status, tag in (("passed", "PASS"), ("failed", "FAIL"),
                        ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if m:
                num, slug = int(m.group(1)), m.group(2).replace("_", " ")
                lines.append((num, f"[{tag}] criterion {num}: {slug}"))
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.line(line)
