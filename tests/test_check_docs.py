"""The docs checker reports backticked source paths and flags that do not exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_missing_path_is_reported():
    text = ("`src/repro/cli.py` and `tests/test_engine.py::test_x` exist, "
            "`tools/check_docs.py --help` too; `src/repro/gone.py` and "
            "`tests/test_gone.py::test_y` do not; `docs/other.py` is not checked.")
    assert _check_docs().missing_paths([text]) == ["src/repro/gone.py", "tests/test_gone.py"]


def test_the_docs_name_no_missing_path():
    docs = [(ROOT / name).read_text(encoding="utf-8")
            for name in ("README.md", "DESIGN.md", "ROADMAP.md")]
    assert _check_docs().missing_paths(docs) == []


def test_an_undeclared_flag_is_reported():
    check_docs = _check_docs()
    declared = check_docs.declared_flags()
    assert {"--workers", "--log-level", "--stall-after", "--seconds"} <= declared
    text = ("`repro sweep --workers 2` and `repro watch --once --json` are\n"
            "declared; `--no-such-flag` and `repro queue-status\n--stale-flag` are not.\n"
            "```bash\npython -m pytest --benchmark-only\n```\n")
    assert check_docs.undeclared_flags([text], declared) == ["--no-such-flag", "--stale-flag"]


def test_the_docs_name_no_undeclared_flag():
    check_docs = _check_docs()
    docs = [(ROOT / name).read_text(encoding="utf-8") for name in ("README.md", "DESIGN.md")]
    assert check_docs.undeclared_flags(docs, check_docs.declared_flags()) == []
