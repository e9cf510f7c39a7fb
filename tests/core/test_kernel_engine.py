"""Full-search parity for the columnar kernels (the kernel audit).

The kernels claim bit-identity with the naive row-at-a-time path by
construction; this module proves it end-to-end: a complete standardize()
run with the shadow audit on (``LSConfig.audit``) must finish with zero
mismatches and return exactly what the unaudited run returns.
"""

import pytest

from repro.core import LSConfig, LucidScript, TableJaccardIntent
from repro.minipandas import kernels


class TestKernelSearchParity:
    def _run(self, diabetes_corpus, diabetes_dir, alex_script, **overrides):
        config = LSConfig(seq=4, beam_size=2, sample_rows=150, **overrides)
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=config,
        )
        return system.standardize(alex_script)

    def test_verify_kernels_audits_clean_full_search(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        audited = self._run(
            diabetes_corpus, diabetes_dir, alex_script, audit=True
        )
        plain = self._run(diabetes_corpus, diabetes_dir, alex_script)
        # zero mismatches: the audited run completed without an
        # AuditMismatchError, and both runs agree exactly
        assert audited.output_script == plain.output_script
        assert audited.re_after == plain.re_after
        assert audited.intent_delta == plain.intent_delta
        assert audited.intent_satisfied == plain.intent_satisfied

    def test_audit_flag_is_scoped_to_the_run(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        assert not kernels.audit_enabled()
        self._run(diabetes_corpus, diabetes_dir, alex_script, audit=True)
        assert not kernels.audit_enabled()
