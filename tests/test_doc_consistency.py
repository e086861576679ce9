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


def test_retired_flags_pass_only_in_the_experiment_records(tmp_path):
    # A record says what was run; the live docs say what runs.
    live = set().union(*_table().values())
    assert not live & set(check_cli_docs.RETIRED_FLAGS)
    text = (
        "Ran `repro train --workers 4 --compress` and `--compress`.\n\n"
        "```\nrepro train --iterations 4 --compress\n```\n"
    )
    for name in check_cli_docs.RECORD_DOCS:
        record = tmp_path / name
        record.write_text(text + "`--warp-speed`\n", encoding="utf-8")
        (error,) = check_cli_docs.check_document(record, _table())
        assert "--warp-speed" in error
    for name in ("README.md", "DESIGN.md"):
        doc = tmp_path / name
        doc.write_text(text, encoding="utf-8")
        errors = check_cli_docs.check_document(doc, _table())
        assert len(errors) == 3
        assert all("--compress" in error for error in errors)


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
