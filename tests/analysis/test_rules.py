"""Per-rule fixtures: what each rule must flag and must not flag."""

import pytest

from repro.analysis.rules.agg_site import AggregationSiteRule
from repro.analysis.rules.annotations import AnnotationsRule
from repro.analysis.rules.dtype import DtypeDisciplineRule


def codes(findings):
    return [f.rule for f in findings]


class TestDtypeDiscipline:
    def test_flags_constructor_without_dtype(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert codes(findings) == ["R1"]
        assert "explicit dtype" in findings[0].message

    def test_explicit_dtype_is_fine(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.zeros(10, dtype=np.float32)
            idx = np.arange(5, dtype=np.intp)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    def test_astype_wrap_counts_as_explicit(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            import numpy as np
            g = np.arange(10).astype(np.float32)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []

    @pytest.mark.parametrize(
        "expr",
        [
            "np.zeros(4, dtype=np.float64)",
            "np.asarray(x, dtype=float)",
            'np.empty(4, dtype="float64")',
            "x.astype(np.float64)",
            "np.float64(1.5)",
        ],
    )
    def test_flags_float64_spellings(self, lint_snippet, expr):
        findings = lint_snippet(
            "dnn/x.py",
            f"""
            import numpy as np
            x = np.ones(4, dtype=np.float32)
            y = {expr}
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert codes(findings) == ["R1"]

    def test_outside_gradient_path_not_checked(self, lint_snippet):
        findings = lint_snippet(
            "analysis/x.py",
            """
            import numpy as np
            g = np.zeros(10)
            """,
            rules=[DtypeDisciplineRule()],
        )
        assert findings == []


class TestAnnotations:
    def test_flags_missing_return_annotation(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            def scale(x: float):
                return 2 * x
            """,
            rules=[AnnotationsRule()],
        )
        assert codes(findings) == ["R5"]
        assert "return" in findings[0].message

    def test_flags_missing_param_annotation(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            def scale(x) -> float:
                return 2.0 * x
            """,
            rules=[AnnotationsRule()],
        )
        assert codes(findings) == ["R5"]
        assert "'scale'" in findings[0].message

    def test_self_exempt_but_not_staticmethod(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            class Model:
                def forward(self, x: int) -> int:
                    return x

                @staticmethod
                def helper(self) -> int:
                    return 0
            """,
            rules=[AnnotationsRule()],
        )
        assert len(findings) == 1
        assert "'helper'" in findings[0].message

    def test_private_and_nested_skipped_by_default(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            def _helper(x):
                return x

            def outer() -> int:
                def inner(y):
                    return y
                return inner(1)
            """,
            rules=[AnnotationsRule()],
        )
        assert findings == []

    def test_strict_mode_covers_private_functions(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            def _helper(x):
                return x
            """,
            rules=[AnnotationsRule(strict=True)],
        )
        assert codes(findings) == ["R5"]

    def test_package_scoping(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            def scale(x):
                return x
            """,
            rules=[AnnotationsRule(packages=("core", "network"))],
        )
        assert findings == []

    def test_vararg_annotations_required(self, lint_snippet):
        findings = lint_snippet(
            "core/x.py",
            """
            def combine(*parts, **options) -> str:
                return ""
            """,
            rules=[AnnotationsRule()],
        )
        assert codes(findings) == ["R5"]
        assert "*parts" in findings[0].message
        assert "**options" in findings[0].message

    def test_network_module_requires_docstring(self, lint_snippet):
        findings = lint_snippet(
            "network/x.py",
            """
            X = 1
            """,
            rules=[AnnotationsRule()],
        )
        assert codes(findings) == ["R5"]
        assert "docstring" in findings[0].message

    def test_network_module_docstring_satisfies(self, lint_snippet):
        findings = lint_snippet(
            "network/x.py",
            '''
            """States this module's invariants."""

            X = 1
            ''',
            rules=[AnnotationsRule()],
        )
        assert findings == []

    def test_docstring_not_required_outside_network(self, lint_snippet):
        findings = lint_snippet(
            "dnn/x.py",
            """
            X = 1
            """,
            rules=[AnnotationsRule()],
        )
        assert findings == []

    def test_docstring_check_survives_package_scoping(self, lint_snippet):
        # Annotation scoping narrowed away from network: the module
        # docstring requirement still applies there, the annotation
        # check does not.
        findings = lint_snippet(
            "network/x.py",
            """
            def scale(x):
                return x
            """,
            rules=[AnnotationsRule(packages=("core",))],
        )
        assert codes(findings) == ["R5"]
        assert "docstring" in findings[0].message


AGGREGATION_LAYER = """
def combine_parts(stream, parts):
    return stream.aggregate_compressed(parts)


def aggregate_endpoint(stream, gradients):
    parts = [stream.compress(g) for g in gradients]
    return stream.aggregate_compressed(parts)
"""

INLINE_REAGGREGATION = """
def fold(codec, payloads):
    total = None
    for payload in payloads:
        grad = codec.decompress(payload)
        total = grad if total is None else total + grad
    return codec.compress(total)
"""


class TestAggregationSite:
    def test_flags_inline_decompress_sum_recompress(self, lint_tree):
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER,
                "repro/distributed/custom.py": INLINE_REAGGREGATION,
            },
            rules=[AggregationSiteRule()],
        )
        assert codes(findings) == ["R12"]
        assert "aggregate_compressed" in findings[0].message
        assert findings[0].path.endswith("distributed/custom.py")

    def test_aggregation_layer_itself_is_exempt(self, lint_tree):
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER
                + INLINE_REAGGREGATION,
            },
            rules=[AggregationSiteRule()],
        )
        assert findings == []

    def test_codec_modules_are_exempt(self, lint_tree):
        # A codec may reconstruct and re-encode internally (error
        # feedback); only call sites outside codec modules are confined.
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER,
                "repro/core/mycodec.py": """
                def compress(values, bound):
                    return values


                def decompress(wire):
                    return wire


                def fold(payloads):
                    total = decompress(payloads[0]) + decompress(payloads[1])
                    return compress(total, 10)
                """,
            },
            rules=[AggregationSiteRule()],
        )
        assert findings == []

    def test_decompress_without_sum_is_fine(self, lint_tree):
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER,
                "repro/perfmodel/roundtrip.py": """
                def roundtrip(codec, grad):
                    wire = codec.compress(grad)
                    return codec.decompress(wire)
                """,
            },
            rules=[AggregationSiteRule()],
        )
        assert findings == []

    def test_cost_models_do_not_match(self, lint_tree):
        # compression_time/decompression_time are throughput models,
        # not payload operations: word-boundary matching skips them.
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER,
                "repro/baselines/cost.py": """
                def roundtrip_time(codec, nbytes):
                    total = nbytes + 1
                    return codec.compression_time(total) + (
                        codec.decompression_time(total)
                    )
                """,
            },
            rules=[AggregationSiteRule()],
        )
        assert findings == []

    def test_no_aggregation_layer_means_no_checks(self, lint_snippet):
        findings = lint_snippet(
            "distributed/custom.py",
            INLINE_REAGGREGATION,
            rules=[AggregationSiteRule()],
        )
        assert findings == []

    def test_suppression_comment_silences_r12(self, lint_tree):
        findings = lint_tree(
            {
                "repro/transport/aggregation.py": AGGREGATION_LAYER,
                "repro/distributed/custom.py": """
                def fold(codec, payloads):
                    total = sum(codec.decompress(p) for p in payloads)
                    return codec.compress(total)  # repro-lint: disable=R12 legacy shim
                """,
            },
            rules=[AggregationSiteRule()],
        )
        assert findings == []
