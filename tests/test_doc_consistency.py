"""CLI/doc consistency: every flag the docs mention exists in the parser.

Drives ``tools/check_cli_docs.py`` — the same checker CI runs — over
the real repo documents, plus unit coverage of its detection logic on
synthetic markdown.
"""

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_cli_docs  # noqa: E402  (path-injected tool module)


def _table():
    from repro.cli import build_parser

    return check_cli_docs.collect_options(build_parser())


def test_repo_docs_are_consistent(capsys):
    docs = [REPO_ROOT / name for name in check_cli_docs.DEFAULT_DOCS]
    assert check_cli_docs.main([str(d) for d in docs]) == 0
    out = capsys.readouterr()
    assert "consistent" in out.out


def test_option_table_covers_new_fabric_flags():
    table = _table()
    assert "--topology" in table[("exchange",)]
    assert "--tenants" in table[("exchange",)]
    assert "--prioritize" in table[("exchange",)]
    assert "--tenant-seed" in table[("exchange",)]
    assert "--topology" in table[("sanitize",)]
    assert "--topology" in table[("train",)]


def test_unknown_flag_in_fenced_block_is_caught(tmp_path):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "Usage:\n\n```\nrepro exchange --no-such-flag 3\n```\n",
        encoding="utf-8",
    )
    errors = check_cli_docs.check_document(doc, _table())
    assert len(errors) == 1
    assert "--no-such-flag" in errors[0]
    assert "repro exchange" in errors[0]


def test_flag_on_wrong_subcommand_is_caught(tmp_path):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "```\nrepro train --tenants train:4\n```\n", encoding="utf-8"
    )
    errors = check_cli_docs.check_document(doc, _table())
    assert len(errors) == 1
    assert "another subcommand" in errors[0]


def test_valid_command_lines_pass(tmp_path):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "```\n"
        "repro exchange --workers 6 --topology fat-tree:k=4 \\\n"
        "    --tenants train:4,infer:4 --prioritize\n"
        "repro sanitize --topology fat-tree:k=4\n"
        "```\n",
        encoding="utf-8",
    )
    assert check_cli_docs.check_document(doc, _table()) == []


def test_inline_code_span_flags_validated(tmp_path):
    doc = tmp_path / "DOC.md"
    doc.write_text(
        "Use `--topology` to pick a fabric, but `--warp-speed` is fiction.\n",
        encoding="utf-8",
    )
    errors = check_cli_docs.check_document(doc, _table())
    assert len(errors) == 1
    assert "--warp-speed" in errors[0]


def test_lint_rule_codes_match_docs():
    """DESIGN.md's rule table and README's ``--list-rules`` comment list
    exactly the codes in ``ALL_RULES`` (the table once lost R12)."""
    from repro.analysis import ALL_RULES

    codes = {cls.code for cls in ALL_RULES}
    design = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8")
    assert set(re.findall(r"^\| (R\d+) \|", design, flags=re.M)) == codes
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    comment = re.search(r"--list-rules +#.*\n(?: +#.*\n)*", readme)
    assert comment is not None
    assert set(re.findall(r"\bR\d+\b", comment.group(0))) == codes
