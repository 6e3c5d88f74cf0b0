"""The spec and config examples in docs/formats.md load as written.

The readers reject unknown keys, so a key the documentation shows but a
key table lacks would fail here.
"""

import os
import re

import condinv as ci

_FORMATS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs", "formats.md"
)


def _yaml_blocks() -> list[str]:
    with open(_FORMATS, encoding="utf-8") as fh:
        return re.findall(r"^```yaml\n(.*?)^```$", fh.read(), flags=re.M | re.S)


def test_documented_spec_and_config_load(tmp_path):
    (spec,) = [b for b in _yaml_blocks() if "experiment:" not in b]
    (config,) = [b for b in _yaml_blocks() if "experiment:" in b]
    assert "synthetic: spec.yaml" in config
    (tmp_path / "spec.yaml").write_text(spec, encoding="utf-8")
    (tmp_path / "config.yaml").write_text(config, encoding="utf-8")
    loaded = ci.load_spec(tmp_path / "spec.yaml")
    assert loaded.seed == 7 and loaded.total == 30
    parsed = ci.config_from_file(str(tmp_path / "config.yaml"))
    assert parsed.dataset == loaded
    assert parsed.methods == ("raw_knn", "kpca", "dica_marginal", "kfda", "cidg")
    assert parsed.grids == ci.Grids() and parsed.kernel == ci.KernelSpec()
