"""Detail cases for the concurrency family (R101, R102, R104, R105).

The fixture trees under ``fixtures/r10x`` cover the canonical positive
and negative shape of each rule (``test_rules`` runs them); this module
exercises the edges: scope boundaries and the sanctioned idioms.
"""

from pathlib import Path

from repro.analysis import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def _write_tree(root: Path, files: dict) -> None:
    for rel, text in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)


def _rule_ids(report):
    return [f.rule_id for f in report.new_findings]


# ----------------------------------------------------------------------
# R101
# ----------------------------------------------------------------------
def test_r101_ignores_module_level_locks_outside_worker_trees(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "experiments/driver.py": (
                "import threading\n\nGUARD = threading.Lock()\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert report.new_findings == [], report.render()


def test_r101_flags_import_time_open_and_class_body_state(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "runtime/handles.py": (
                "import threading\n"
                "\n"
                'LOG = open("fleet.log")\n'
                "\n"
                "\n"
                "class Router:\n"
                "    guard = threading.Lock()\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert _rule_ids(report) == ["R101", "R101"]


# ----------------------------------------------------------------------
# R102
# ----------------------------------------------------------------------
def test_r102_bans_tempfile_and_non_tmp_renames(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "learn/registry.py": (
                "import os\n"
                "import tempfile\n"
                "\n"
                "\n"
                "def publish(path, payload):\n"
                "    handle = tempfile.NamedTemporaryFile(delete=False)\n"
                "    handle.write(payload)\n"
                "    os.replace(handle.name, path)\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    # tempfile use and the rename-from-non-tmp are separate findings
    # (plus R101 is silent: the handle is created inside a function).
    assert _rule_ids(report) == ["R102", "R102"]


def test_r102_accepts_the_tmp_sibling_convention(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "experiments/cache.py": (
                "import os\n"
                "\n"
                "\n"
                "def publish(path, payload):\n"
                '    tmp = f"{path}.{os.getpid()}.tmp"\n'
                '    with open(tmp, "wb") as handle:\n'
                "        handle.write(payload)\n"
                "    os.replace(tmp, path)\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert report.new_findings == [], report.render()


def test_r102_does_not_apply_outside_the_publish_modules(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "experiments/report.py": (
                "def dump(path, text):\n"
                '    with open(path, "w") as handle:\n'
                "        handle.write(text)\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert report.new_findings == [], report.render()


# ----------------------------------------------------------------------
# R104
# ----------------------------------------------------------------------
def test_r104_flags_function_local_callables_in_payloads(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "serve/router.py": (
                "def dispatch(pipe, items):\n"
                "    def score(item):\n"
                "        return item * 2\n"
                '    pipe.send(("score", score, items))\n'
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert _rule_ids(report) == ["R104"]
    assert "'score'" in report.new_findings[0].message


def test_r104_allows_module_level_callables_in_payloads(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "serve/router.py": (
                "def score(item):\n"
                "    return item * 2\n"
                "\n"
                "\n"
                "def dispatch(pipe, items):\n"
                '    pipe.send(("score", score, items))\n'
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert report.new_findings == [], report.render()


# ----------------------------------------------------------------------
# R105
# ----------------------------------------------------------------------
def test_r105_covers_kwonly_lambda_and_comprehension_defaults(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "learn/hooks.py": (
                "def record(event, *, sinks={}):\n"
                "    return sinks\n"
                "\n"
                "\n"
                "tap = lambda x, acc=[]: acc  # noqa: E731\n"
                "\n"
                "\n"
                "def explode(n, cells=[0 for _ in range(4)]):\n"
                "    return cells\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert _rule_ids(report) == ["R105", "R105", "R105"]


def test_r105_ignores_immutable_and_none_defaults(tmp_path):
    _write_tree(
        tmp_path / "pkg",
        {
            "runtime/workers.py": (
                "def launch(count=4, names=(), config=None, tag=\"x\"):\n"
                "    return (count, names, config, tag)\n"
            ),
        },
    )
    report = run_lint(package_root=tmp_path / "pkg")
    assert report.new_findings == [], report.render()
