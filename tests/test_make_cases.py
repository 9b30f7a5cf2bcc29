import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_bundled_cases_regenerate_byte_identical(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_cases", os.path.join(ROOT, "scripts", "make_cases.py"))
    make_cases = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_cases)
    monkeypatch.setattr(make_cases, "OUT", tmp_path)
    make_cases.main()
    for name in ("case39.json", "case118.json"):
        with open(os.path.join(ROOT, "data", name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
