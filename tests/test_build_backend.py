"""The in-tree build backend writes wheels pip can install offline."""

import base64
import hashlib
import tarfile
import zipfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def backend(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "backend"))
    import boxball_build

    return boxball_build


def wheel_entries(path):
    with zipfile.ZipFile(path) as zf:
        return {name: zf.read(name) for name in zf.namelist()}


def assert_record_matches(files):
    info = next(name.split("/")[0] for name in files if name.endswith(".dist-info/RECORD"))
    rows = [row.split(",") for row in files[f"{info}/RECORD"].decode().splitlines()]
    assert {name for name, _, _ in rows} == set(files)
    for name, digest, size in rows:
        if name == f"{info}/RECORD":
            assert digest == size == ""
            continue
        want = base64.urlsafe_b64encode(hashlib.sha256(files[name]).digest()).rstrip(b"=")
        assert digest == "sha256=" + want.decode() and int(size) == len(files[name])


def test_hooks_need_nothing(backend):
    assert backend.get_requires_for_build_wheel() == []
    assert backend.get_requires_for_build_editable() == []
    assert backend.get_requires_for_build_sdist() == []


def test_wheel_holds_the_package_and_its_metadata(backend, tmp_path):
    name = backend.build_wheel(str(tmp_path))
    assert name == "boxball-0.1.0-py3-none-any.whl"
    files = wheel_entries(tmp_path / name)
    sources = sorted(p.name for p in (ROOT / "src" / "boxball").glob("*.py"))
    assert sorted(n.split("/")[1] for n in files if n.startswith("boxball/")) == sources
    info = "boxball-0.1.0.dist-info"
    metadata = files[f"{info}/METADATA"].decode()
    assert "Name: boxball\n" in metadata and "Requires-Dist: numpy>=1.24\n" in metadata
    # tomllib (the backend) and BaseException.add_note (difftest) need 3.11
    assert "Requires-Python: >=3.11\n" in metadata
    assert 'Requires-Dist: pytest; extra == "dev"\n' in metadata
    assert files[f"{info}/entry_points.txt"].decode() == (
        "[console_scripts]\nboxball = boxball.cli:main\n"
    )
    assert_record_matches(files)


def test_editable_wheel_points_at_src(backend, tmp_path):
    files = wheel_entries(tmp_path / backend.build_editable(str(tmp_path)))
    assert files["__editable__.boxball-0.1.0.pth"].decode() == f"{ROOT / 'src'}\n"
    assert not any(n.startswith("boxball/") for n in files)
    assert_record_matches(files)


def test_sdist_carries_the_backend(backend, tmp_path):
    with tarfile.open(tmp_path / backend.build_sdist(str(tmp_path))) as tf:
        names = set(tf.getnames())
    assert {
        "boxball-0.1.0/pyproject.toml",
        "boxball-0.1.0/backend/boxball_build.py",
        "boxball-0.1.0/src/boxball/difftest.py",
        "boxball-0.1.0/PKG-INFO",
    } <= names
