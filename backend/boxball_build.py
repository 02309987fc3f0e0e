"""A stdlib-only PEP 517 / PEP 660 build backend for this package.

pyproject.toml points `build-backend` here through `backend-path`, so

    pip install -e . --no-build-isolation --no-index
    pip install . --no-build-isolation --no-index

work offline with nothing but the interpreter and pip: no setuptools and
no `wheel` package are needed.  The metadata comes from the `[project]`
table of pyproject.toml, read with `tomllib` (Python >= 3.11), and the
package is every file under src/boxball except byte-code.
"""

from __future__ import annotations

import base64
import hashlib
import io
import tarfile
import tomllib
import zipfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TAG = "py3-none-any"


def _project() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _dist(project: dict) -> str:
    return f"{project['name'].replace('-', '_')}-{project['version']}"


def _metadata(project: dict) -> str:
    lines = [
        "Metadata-Version: 2.1",
        f"Name: {project['name']}",
        f"Version: {project['version']}",
        f"Summary: {project.get('description', '')}",
    ]
    if "requires-python" in project:
        lines.append(f"Requires-Python: {project['requires-python']}")
    lines += [f"Requires-Dist: {req}" for req in project.get("dependencies", [])]
    for extra, reqs in project.get("optional-dependencies", {}).items():
        lines.append(f"Provides-Extra: {extra}")
        lines += [f'Requires-Dist: {req}; extra == "{extra}"' for req in reqs]
    return "\n".join(lines) + "\n"


def _package_files() -> list:
    return sorted(
        path for path in (SRC / "boxball").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts and path.suffix != ".pyc"
    )


def _write_wheel(wheel_directory: str, files: dict) -> str:
    """Write {archive name: bytes} plus the dist-info files as a wheel;
    returns its file name."""
    project = _project()
    dist = _dist(project)
    info = f"{dist}.dist-info"
    files = dict(files)
    files[f"{info}/METADATA"] = _metadata(project).encode()
    files[f"{info}/WHEEL"] = (
        f"Wheel-Version: 1.0\nGenerator: boxball_build\nRoot-Is-Purelib: true\nTag: {TAG}\n"
    ).encode()
    scripts = project.get("scripts", {})
    if scripts:
        entries = "".join(f"{name} = {target}\n" for name, target in scripts.items())
        files[f"{info}/entry_points.txt"] = f"[console_scripts]\n{entries}".encode()
    record = []
    for name, data in files.items():
        digest = base64.urlsafe_b64encode(hashlib.sha256(data).digest()).rstrip(b"=")
        record.append(f"{name},sha256={digest.decode()},{len(data)}\n")
    record.append(f"{info}/RECORD,,\n")
    files[f"{info}/RECORD"] = "".join(record).encode()
    wheel_name = f"{dist}-{TAG}.whl"
    with zipfile.ZipFile(Path(wheel_directory) / wheel_name, "w", zipfile.ZIP_DEFLATED) as zf:
        for name, data in files.items():
            zf.writestr(name, data)
    return wheel_name


def get_requires_for_build_wheel(config_settings=None) -> list:
    return []


def get_requires_for_build_editable(config_settings=None) -> list:
    return []


def get_requires_for_build_sdist(config_settings=None) -> list:
    return []


def build_wheel(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    return _write_wheel(
        wheel_directory,
        {path.relative_to(SRC).as_posix(): path.read_bytes() for path in _package_files()},
    )


def build_editable(wheel_directory, config_settings=None, metadata_directory=None) -> str:
    """A wheel whose only content is a .pth file that puts src/ on sys.path."""
    pth = f"__editable__.{_dist(_project())}.pth"
    return _write_wheel(wheel_directory, {pth: f"{SRC}\n".encode()})


def build_sdist(sdist_directory, config_settings=None) -> str:
    project = _project()
    dist = _dist(project)
    files = [ROOT / "pyproject.toml", ROOT / "README.md", Path(__file__).resolve()]
    files += _package_files()
    sdist_name = f"{dist}.tar.gz"
    with tarfile.open(Path(sdist_directory) / sdist_name, "w:gz") as tf:
        for path in files:
            tf.add(path, arcname=f"{dist}/{path.relative_to(ROOT).as_posix()}")
        pkg_info = _metadata(project).encode()
        member = tarfile.TarInfo(f"{dist}/PKG-INFO")
        member.size = len(pkg_info)
        tf.addfile(member, io.BytesIO(pkg_info))
    return sdist_name
