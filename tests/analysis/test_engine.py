"""Engine behavior: suppressions, syntax errors, output formats, CLI."""

import json

import pytest

from repro.analysis import format_human, format_json, lint_paths
from repro.analysis.engine import SYNTAX_ERROR_CODE, module_name, package_of
from repro.analysis.output import JSON_SCHEMA_VERSION
from repro.analysis.rules import ALL_RULES, RETIRED, rules_by_code, select_rules
from repro.analysis.rules.dtype import DtypeDisciplineRule
from repro.cli import main


class TestSuppressions:
    def test_same_line_disable(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10)  # repro-lint: disable=R1 -- measurement scratch
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    def test_disable_by_rule_name(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10)  # repro-lint: disable=dtype-discipline
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    def test_disable_next_line(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            # repro-lint: disable-next-line=R1
            g = np.zeros(10)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    def test_disable_all(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10)  # repro-lint: disable=all
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    def test_wrong_code_does_not_suppress(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10)  # repro-lint: disable=R5
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert [f.rule for f in findings] == ["R1"]

    def test_suppression_on_other_line_does_not_leak(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            a = np.zeros(10)  # repro-lint: disable=R1
            b = np.zeros(10)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert len(findings) == 1
        assert findings[0].line == 4


class TestEngineBasics:
    def test_syntax_error_reported_not_raised(self, lint_snippet):
        findings = lint_snippet("core/x.py", "def broken(:\n")
        assert [f.rule for f in findings] == [SYNTAX_ERROR_CODE]
        assert findings[0].name == "syntax-error"

    def test_module_name_anchors_at_repro(self, tmp_path):
        from pathlib import Path

        assert (
            module_name(Path("/tmp/x/repro/core/codec.py")) == "repro.core.codec"
        )
        assert module_name(Path("src/repro/network/__init__.py")) == (
            "repro.network"
        )
        assert module_name(Path("/somewhere/scratch.py")) == "scratch"

    def test_package_of(self):
        assert package_of("repro.core.codec") == "core"
        assert package_of("repro.cli") == "cli"
        assert package_of("scratch") == ""

    def test_findings_sorted_by_location(self, lint_tree):
        findings = lint_tree(
            {
                "repro/core/b.py": "import numpy as np\ng = np.zeros(3)\n",
                "repro/core/a.py": "import numpy as np\ng = np.zeros(3)\n",
            },
            rules=[DtypeDisciplineRule()],
        )
        assert len(findings) == 2
        assert findings[0].path < findings[1].path

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["/nonexistent/nowhere.txt"])


class TestRuleSelection:
    def test_rules_by_code_covers_codes_and_names(self):
        table = rules_by_code()
        assert "R1" in table and "DTYPE-DISCIPLINE" in table
        assert table["R1"] is table["DTYPE-DISCIPLINE"]

    def test_select_rules_instantiates(self):
        rules = select_rules(["R1", "iteration-order"])
        assert [r.code for r in rules] == ["R1", "R10"]

    def test_select_unknown_rule_raises(self):
        with pytest.raises(KeyError, match="unknown rule 'R99'; known rules: R1, R5"):
            select_rules(["R99"])

    @pytest.mark.parametrize("code", sorted(RETIRED))
    def test_select_retired_rule_says_what_enforces_it_now(self, code):
        with pytest.raises(KeyError) as excinfo:
            select_rules([code.lower()])
        assert excinfo.value.args[0] == f"{code} was retired: {RETIRED[code]}"
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--select", code])
        assert exit_info.value.code == f"--select: {code} was retired: {RETIRED[code]}"

    def test_retired_codes_are_never_reused(self):
        assert not set(RETIRED) & {cls.code for cls in ALL_RULES}


class TestOutputFormats:
    def _findings(self, lint_snippet):
        return lint_snippet(
            "core/x.py",
            "import numpy as np\ng = np.zeros(3)\n",
            rules=[DtypeDisciplineRule()],
        )

    def test_json_schema(self, lint_snippet):
        findings = self._findings(lint_snippet)
        doc = json.loads(format_json(findings, files_checked=1))
        assert doc["version"] == JSON_SCHEMA_VERSION
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"R1": 1}
        (entry,) = doc["findings"]
        assert set(entry) == {"rule", "name", "path", "line", "col", "message"}
        assert entry["rule"] == "R1"
        assert entry["line"] == 2

    def test_human_format_summary(self, lint_snippet):
        findings = self._findings(lint_snippet)
        text = format_human(findings, files_checked=1)
        assert "R1[dtype-discipline]" in text
        assert "1 finding(s) in 1 file(s) (R1: 1)" in text

    def test_human_format_clean(self):
        assert format_human([], files_checked=7) == "0 findings in 7 file(s)"


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        (target / "ok.py").write_text(
            "import numpy as np\n\n"
            "def f(x: int) -> int:\n"
            "    return x\n"
        )
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_and_json(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "import numpy as np\ng = np.zeros(3)\n"
        )
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"].get("R1") == 1

    def test_select_limits_rules(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(
            "import numpy as np\ng = np.zeros(3)\n\n"
            "def f(x):\n"
            "    return x\n"
        )
        assert main(["lint", str(tmp_path), "--select", "R5"]) == 1
        out = capsys.readouterr().out
        assert "R5" in out and "R1" not in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "R1", "R5", "R8", "R9", "R10", "R11", "R12"
        ]
        # The code column is padded: every rule name starts in one column.
        assert {line.index(line.split()[1]) for line in lines} == {5}

    def test_repro_cli_exposes_lint(self, tmp_path, capsys):
        target = tmp_path / "repro" / "core"
        target.mkdir(parents=True)
        (target / "ok.py").write_text("X: int = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out
