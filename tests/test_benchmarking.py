"""Tests for the microbenchmark runner's provenance fields."""

import subprocess

import pytest

from repro import benchmarking


def _git(repo, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        cwd=repo,
        check=True,
        capture_output=True,
    )


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A one-commit git repository that ``_git_commit`` reports on."""
    _git(tmp_path, "init", "-q")
    (tmp_path / "tracked.txt").write_text("a\n")
    _git(tmp_path, "add", "tracked.txt")
    _git(tmp_path, "commit", "-q", "-m", "initial")
    monkeypatch.setattr(benchmarking, "__file__", str(tmp_path / "module.py"))
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.strip()
    return tmp_path, head


class TestGitCommit:
    def test_clean_tree_is_head(self, repo):
        _, head = repo
        assert benchmarking._git_commit() == head

    def test_untracked_files_keep_it_clean(self, repo):
        path, head = repo
        (path / "untracked.txt").write_text("new\n")
        assert benchmarking._git_commit() == head

    def test_modified_tracked_file_marks_dirty(self, repo):
        path, head = repo
        (path / "tracked.txt").write_text("b\n")
        assert benchmarking._git_commit() == f"{head}-dirty"

    def test_staged_change_marks_dirty(self, repo):
        path, head = repo
        (path / "added.txt").write_text("c\n")
        _git(path, "add", "added.txt")
        assert benchmarking._git_commit() == f"{head}-dirty"

    def test_outside_a_repository_is_none(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchmarking, "__file__", str(tmp_path / "module.py"))
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert benchmarking._git_commit() is None
