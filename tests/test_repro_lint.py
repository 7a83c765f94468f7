"""repro-lint: framework, rules (via the fixture corpus), config, CLI.

The fixture files under ``tests/lint_fixtures/`` are parsed, never
imported; each rule has one file packed with true positives and one
that must come back clean.  The final test is the tree-wide gate: the
real source tree, under the real ``repro-lint.toml``, must lint clean.
"""

from pathlib import Path

import pytest

from repro.lint import (
    ALL_RULES,
    LintConfig,
    LintError,
    Violation,
    load_config,
    main,
    parse_suppressions,
    resolve_rules,
    run_lint,
)
from repro.lint.config import RuleScope, find_config

REPO = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint_fixture(name: str, *codes: str) -> list[Violation]:
    """Lint one fixture with the given rules and an everywhere-scope config."""
    return run_lint(
        [FIXTURES / name], config=LintConfig(root=FIXTURES), select=list(codes)
    )


# ---------------------------------------------------------------------------
# Per-rule fixture corpus: true positives (with exact lines) and clean files.
# ---------------------------------------------------------------------------

VIOLATION_CASES = [
    ("REP001", "rep001_violation.py", {4, 8, 19, 20, 21, 26, 27}),
    ("REP002", "rep002_violation.py", {13, 22, 23, 24, 28}),
    ("REP003", "rep003_violation.py", {3, 4, 9}),
    ("REP004", "rep004_violation.py", {5, 6, 9, 14, 24, 29}),
    ("REP005", "rep005_violation.py", {6, 13, 18}),
    ("REP006", "rep006_violation.py", {5, 9}),
]


@pytest.mark.parametrize(
    "code, fixture, lines", VIOLATION_CASES, ids=[c[0] for c in VIOLATION_CASES]
)
def test_rule_flags_every_planted_violation(code, fixture, lines):
    found = lint_fixture(fixture, code)
    assert found, f"{code} found nothing in {fixture}"
    assert all(v.code == code for v in found)
    assert {v.line for v in found} == lines


@pytest.mark.parametrize(
    "code, fixture",
    [
        ("REP001", "rep001_clean.py"),
        ("REP002", "rep002_clean.py"),
        ("REP003", "rep003_clean.py"),
        ("REP004", "rep004_clean.py"),
        ("REP005", "rep005_clean.py"),
        ("REP006", "rep006_clean.py"),
    ],
    ids=lambda v: v if str(v).startswith("REP") else "",
)
def test_rule_accepts_the_clean_twin(code, fixture):
    assert lint_fixture(fixture, code) == []


def test_purity_reports_name_the_reaching_hook():
    """REP002 messages carry call-chain provenance, not just a location."""
    found = lint_fixture("rep002_violation.py", "REP002")
    transitive = [v for v in found if v.line == 13]
    assert len(transitive) == 1
    assert "ImpurePlugin.row -> _stamp -> _timed_helper" in transitive[0].message


# ---------------------------------------------------------------------------
# Suppression comments.
# ---------------------------------------------------------------------------


def test_suppression_fixture_end_to_end():
    found = lint_fixture("suppressed.py", "REP004", "REP006")
    assert [(v.line, v.code) for v in found] == [
        (9, "REP004"),  # wrong code in the skip[] -> still flagged
        (11, "REP004"),  # no suppression at all
        (21, "REP006"),  # the suppression one line up covers only line 20
    ]


def test_parse_suppressions_trailing_and_multi_code():
    source = "X = 1  # repro-lint: skip[REP001] reason\n" \
             "Y = 2  # repro-lint: skip[REP004, REP006] two codes\n"
    assert parse_suppressions(source) == {
        1: frozenset({"REP001"}),
        2: frozenset({"REP004", "REP006"}),
    }


def test_parse_suppressions_standalone_attaches_past_comment_block():
    source = (
        "# repro-lint: skip[REP004] a long reason that\n"
        "# continues on a second comment line\n"
        "\n"
        "MAGIC = b'XXXXYYYY'\n"
    )
    assert parse_suppressions(source) == {4: frozenset({"REP004"})}


def test_parse_suppressions_inert_inside_strings():
    source = 'DOC = """\n# repro-lint: skip[REP001] not a comment\n"""\n'
    assert parse_suppressions(source) == {}


# ---------------------------------------------------------------------------
# Config: globs, scopes, options, error shapes.
# ---------------------------------------------------------------------------


def test_rule_scope_glob_semantics():
    scope = RuleScope.build(
        include=("src/**", "benchmarks/*.py"), exclude=("src/repro/cli.py",)
    )
    assert scope.matches("src/repro/quic/frames.py")
    assert scope.matches("benchmarks/bench_engine.py")
    assert not scope.matches("benchmarks/sub/bench_engine.py")  # * stops at /
    assert not scope.matches("src/repro/cli.py")  # exclude wins
    assert not scope.matches("tests/test_codec.py")


def test_load_config_scopes_and_options(tmp_path):
    config_path = tmp_path / "repro-lint.toml"
    config_path.write_text(
        "[lint.rules.REP005]\n"
        'include = ["src/hot/**"]\n'
        'exclude = ["src/hot/cold.py"]\n'
        'exempt_bases = ["LegacyBase"]\n'
    )
    config = load_config(config_path)
    assert config.root == tmp_path
    assert config.scope_for("REP005").matches("src/hot/a.py")
    assert not config.scope_for("REP005").matches("src/hot/cold.py")
    assert config.options["REP005"] == {"exempt_bases": ["LegacyBase"]}
    # Unconfigured rules default to everywhere.
    assert config.scope_for("REP001").matches("anything/at/all.py")


@pytest.mark.parametrize(
    "text",
    [
        "[lint.rules.REP001\n",  # invalid TOML
        "[lint.rules]\nREP001 = 3\n",  # rule entry is not a table
        '[lint.rules.REP001]\ninclude = "src"\n',  # include not an array
        '[lint.rules.REP001]\nexclude = [3]\n',  # exclude not strings
    ],
)
def test_load_config_rejects_bad_shapes(tmp_path, text):
    config_path = tmp_path / "repro-lint.toml"
    config_path.write_text(text)
    with pytest.raises(LintError):
        load_config(config_path)


def test_find_config_walks_up(tmp_path):
    (tmp_path / "repro-lint.toml").write_text("")
    nested = tmp_path / "a" / "b"
    nested.mkdir(parents=True)
    assert find_config(nested) == tmp_path / "repro-lint.toml"
    assert find_config(Path("/")) is None or find_config(Path("/")) != tmp_path


def test_resolve_rules():
    assert resolve_rules(None) == ALL_RULES
    assert resolve_rules(["REP003"])[0].code == "REP003"
    with pytest.raises(LintError, match="unknown rule code 'REP999'"):
        resolve_rules(["REP999"])


def test_rule_registry_metadata():
    codes = [rule.code for rule in ALL_RULES]
    assert codes == ["REP001", "REP002", "REP003", "REP004", "REP005", "REP006"]
    for rule in ALL_RULES:
        assert rule.name and rule.rationale


# ---------------------------------------------------------------------------
# CLI: exit codes and output formats.
# ---------------------------------------------------------------------------


def run_cli(*argv: str):
    import io

    out, err = io.StringIO(), io.StringIO()
    status = main(list(argv), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def everywhere_config(tmp_path):
    """An empty config file: every rule applies everywhere, no options."""
    path = tmp_path / "repro-lint.toml"
    path.write_text("")
    return str(path)


def test_cli_clean_exits_zero(everywhere_config):
    status, out, err = run_cli(
        str(FIXTURES / "rep006_clean.py"),
        "--select", "REP006", "--config", everywhere_config,
    )
    assert status == 0
    assert out == ""
    assert "repro-lint: clean" in err


def test_cli_text_format_and_exit_one(everywhere_config):
    status, out, err = run_cli(
        str(FIXTURES / "rep006_violation.py"),
        "--select", "REP006", "--config", everywhere_config,
    )
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("rep006_violation.py:5:4: REP006 " + lines[0].split("REP006 ")[1])
    assert "repro-lint: 2 violation(s)" in err


def test_cli_github_format(everywhere_config):
    status, out, _ = run_cli(
        str(FIXTURES / "rep006_violation.py"),
        "--select", "REP006", "--format", "github", "--config", everywhere_config,
    )
    assert status == 1
    first = out.splitlines()[0]
    assert first.startswith("::error file=")
    assert "line=5,col=4,title=REP006::" in first


def test_cli_unknown_select_exits_two(everywhere_config):
    status, _, err = run_cli(
        str(FIXTURES), "--select", "NOPE", "--config", everywhere_config
    )
    assert status == 2
    assert "unknown rule code" in err


def test_cli_bad_config_exits_two(tmp_path):
    bad = tmp_path / "repro-lint.toml"
    bad.write_text("[lint.rules.REP001\n")
    status, _, err = run_cli(str(FIXTURES), "--config", str(bad))
    assert status == 2
    assert "invalid TOML" in err


def test_cli_list_rules():
    status, out, _ = run_cli("--list-rules")
    assert status == 0
    for rule in ALL_RULES:
        assert rule.code in out


# ---------------------------------------------------------------------------
# The gates: central magic registry sanity, and the tree lints clean.
# ---------------------------------------------------------------------------


def test_magic_registry_is_consistent():
    from repro.util import magics

    assert set(magics.FRAME_MAGICS.values()) >= {
        magics.SHARD_RESULT_MAGIC,
        magics.WORLD_SNAPSHOT_MAGIC,
        magics.CHECKPOINT_MAGIC,
    }
    values = list(magics.FRAME_MAGICS.values())
    assert len(values) == len(set(values)), "frame magics must be unique"
    assert all(len(m) == 8 for m in values), "frame magics are 8 bytes"


def test_docs_and_sources_name_only_registered_magics():
    """Every frame magic the docs or the sources name is a current one,
    so a format bump cannot leave a stale version behind."""
    import re

    from repro.util.magics import FRAME_MAGICS

    current = {magic.decode("ascii") for magic in FRAME_MAGICS.values()}
    paths = [
        *sorted((REPO / "docs").glob("*.md")),
        *sorted((REPO / "src" / "repro").rglob("*.py")),
    ]
    stale = [
        f"{path.relative_to(REPO)}:{lineno}: {token}"
        for path in paths
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        for token in re.findall(r"ECN[A-Z]{4}\d", line)
        if token not in current
    ]
    assert stale == [], "\n".join(stale)


def test_tree_lints_clean_under_repo_config():
    """The repository's own invariants hold: src/ and benchmarks/ are clean."""
    config = load_config(REPO / "repro-lint.toml")
    violations = run_lint([REPO / "src", REPO / "benchmarks"], config=config)
    assert violations == [], "\n" + "\n".join(v.text() for v in violations)
