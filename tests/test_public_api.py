import ast
import re
from pathlib import Path

import fmuod

README = Path(__file__).resolve().parents[1] / "README.md"

# What a user calls or constructs; everything else is imported from its module.
PUBLIC_NAMES = {
    "__version__",
    "FunctionalDataset",
    "MultivariateFunctionalDataset",
    "reference_from_sample",
    "compute_index_table",
    "classify_outliers",
    "generate_directions",
    "collect_votes",
    "detect_marginal",
    "detect_stringed",
    "detect_projection",
    "select_thresholds",
    "ThresholdTriple",
    "Baselines",
    "SimulationSpec",
    "generate",
    "MethodConfig",
    "run_method",
    "run_benchmark",
    "threshold_sweep",
    "estimate_null_baselines",
    "FmuodError",
    "ParseError",
    "InvalidCurve",
    "InvalidConfig",
    "InvalidDirection",
    "DegenerateReference",
    "InsufficientData",
}


def test_public_names_resolve_once():
    missing = [name for name in fmuod.__all__ if not hasattr(fmuod, name)]
    assert missing == []
    assert len(set(fmuod.__all__)) == len(fmuod.__all__)


def test_public_names_are_the_entry_points():
    assert set(fmuod.__all__) == PUBLIC_NAMES
    assert len(fmuod.__all__) == 28


def test_readme_imports_only_public_names():
    imported = set()
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "fmuod":
                imported.update(alias.name for alias in node.names)
    assert imported
    assert imported <= set(fmuod.__all__)


def test_readme_lists_the_public_names():
    section = re.search(r"## Public API\n(.*?)\n## ", README.read_text(), re.S).group(1)
    listed = section[section.index("\n- "):]
    assert set(re.findall(r"`(\w+)`", listed)) == set(fmuod.__all__)
