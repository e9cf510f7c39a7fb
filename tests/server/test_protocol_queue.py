"""Unit tests: wire protocol, job canonicalization, and the job queue."""

import pytest

from repro.core import LSConfig
from repro.corpus import clear_corpus_cache, corpus_key
from repro.server import protocol
from repro.server.jobs import (
    JobError,
    normalize_job,
    resolve_job,
    system_key,
)
from repro.server.queue import Job, JobQueue, QueueFullError


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


class TestProtocol:
    def test_roundtrip(self):
        message = {"id": 7, "op": "ping", "params": {"b": 1, "a": 2}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encode_is_canonical_one_line(self):
        wire = protocol.encode({"b": 1, "a": 2})
        assert wire == b'{"a":2,"b":1}\n'

    def test_decode_rejects_non_objects(self):
        with pytest.raises(ValueError):
            protocol.decode(b"[1,2,3]\n")

    def test_error_response_derives_retryable(self):
        retryable = protocol.error_response(1, "queue_full", "full")
        terminal = protocol.error_response(1, "bad_request", "nope")
        assert retryable["error"]["retryable"] is True
        assert terminal["error"]["retryable"] is False

    def test_parity_payload_strips_serving_detail(self):
        ok = protocol.ok_response(3, {"score": 1.0}, meta={"warm": True})
        assert protocol.parity_payload(ok) == {
            "id": 3,
            "ok": True,
            "result": {"score": 1.0},
        }
        err = protocol.error_response(4, "queue_full", "full", meta={"x": 1})
        assert protocol.parity_payload(err) == {
            "id": 4,
            "ok": False,
            "error": {"kind": "queue_full", "message": "full"},
        }


class TestNormalizeJob:
    def _raw(self, corpus, **params):
        return {
            "op": params.pop("op", "score"),
            "params": {"script": "df = 1", "corpus": corpus, **params},
        }

    def test_canonical_job_is_self_contained(self, diabetes_corpus):
        job = normalize_job(self._raw(diabetes_corpus))
        assert job["op"] == "score"
        assert job["params"]["corpus"] == diabetes_corpus
        assert job["params"]["intent"] is None  # score has no intent
        assert job["params"]["config"] == {}

    def test_default_intent_is_table_jaccard(self, diabetes_corpus):
        job = normalize_job(self._raw(diabetes_corpus, op="standardize"))
        assert job["params"]["intent"] == {"kind": "table_jaccard", "tau": 0.9}

    def test_target_shorthand_switches_intent(self, diabetes_corpus):
        job = normalize_job(
            self._raw(diabetes_corpus, op="standardize", target="Outcome")
        )
        assert job["params"]["intent"] == {
            "kind": "model_performance",
            "target": "Outcome",
            "tau": 1.0,
        }

    def test_rejects_unknown_op(self, diabetes_corpus):
        with pytest.raises(JobError) as excinfo:
            normalize_job({"op": "evaporate", "params": {}})
        assert excinfo.value.kind == "bad_request"

    def test_rejects_missing_script(self, diabetes_corpus):
        with pytest.raises(JobError):
            normalize_job({"op": "score", "params": {"corpus": diabetes_corpus}})

    @pytest.mark.parametrize(
        "name",
        [
            "warp_speed",
            # the sharded worker engine's knobs, deleted with it
            "parallel_workers",
            "pool_respawn_limit",
            "verify_parallel",
            "shard_affinity",
            "worker_output_cache_limit",
            "worker_intent_cache_limit",
            "worker_source_cache_limit",
            # the dual-path toggles and the snapshot budget, deleted with
            # the naive production paths they selected
            "incremental_exec",
            "incremental_scoring",
            "incremental_intent",
            "corpus_cache",
            "snapshot_budget",
            # implementation knobs no caller set, now constants or defaults
            "max_step_candidates",
            "score_band",
            "random_state",
            "statement_timeout_s",
        ],
    )
    def test_rejects_unknown_config_field(self, name, diabetes_corpus):
        with pytest.raises(JobError) as excinfo:
            normalize_job(self._raw(diabetes_corpus, config={name: 9}))
        assert excinfo.value.kind == "bad_request"
        assert name in str(excinfo.value)

    def test_rejects_invalid_config_value(self, diabetes_corpus):
        with pytest.raises(JobError):
            normalize_job(self._raw(diabetes_corpus, config={"beam_size": 0}))

    @pytest.mark.parametrize(
        "config",
        [
            {"seq": 2.5},
            {"exec_timeout_s": float("inf")},
            {"sample_rows": 10.5},
            {"seq": True},
            {"retrieval_k": False},
            {"diversity_clusters": 2.0},
            {"exec_timeout_s": float("nan")},
            {"exec_timeout_s": "1"},
            {"diversity": 1},
            {"dialect": 5},
        ],
        ids=repr,
    )
    def test_rejects_a_config_value_of_the_wrong_type(self, config, diabetes_corpus):
        """Each field's type is checked at admission, so a float, NaN or
        bool in the wrong field never reaches the search."""
        with pytest.raises(JobError) as excinfo:
            normalize_job(self._raw(diabetes_corpus, op="standardize", config=config))
        assert excinfo.value.kind == "bad_request"
        (name,) = config
        assert str(excinfo.value).startswith(f"invalid config: {name} must be ")

    def test_corpus_dir_resolved_at_admission(self, tmp_path):
        (tmp_path / "a.py").write_text("df = 1\n")
        job = normalize_job(
            {
                "op": "score",
                "params": {"script": "df = 1", "corpus_dir": str(tmp_path)},
            }
        )
        assert job["params"]["corpus"] == ["df = 1\n"]

    def test_empty_corpus_dir_is_bad_request(self, tmp_path):
        with pytest.raises(JobError) as excinfo:
            normalize_job(
                {
                    "op": "score",
                    "params": {"script": "df = 1", "corpus_dir": str(tmp_path)},
                }
            )
        assert excinfo.value.kind == "bad_request"


class TestSystemKey:
    def test_same_inputs_share_a_key(self, diabetes_corpus):
        raw = {
            "op": "standardize",
            "params": {"script": "df = 1", "corpus": diabetes_corpus},
        }
        assert system_key(normalize_job(raw)) == system_key(normalize_job(raw))

    def test_key_prefix_is_the_corpus_key(self, diabetes_corpus):
        job = normalize_job(
            {"op": "score", "params": {"script": "df = 1", "corpus": diabetes_corpus}}
        )
        assert resolve_job(job).key.startswith(corpus_key(diabetes_corpus) + ":")

    def test_intent_and_config_change_the_shape_half(self, diabetes_corpus):
        base = normalize_job(
            {
                "op": "standardize",
                "params": {"script": "df = 1", "corpus": diabetes_corpus},
            }
        )
        other = normalize_job(
            {
                "op": "standardize",
                "params": {
                    "script": "df = 1",
                    "corpus": diabetes_corpus,
                    "config": {"seq": 2},
                },
            }
        )
        assert system_key(base) != system_key(other)
        assert system_key(base).split(":")[0] == system_key(other).split(":")[0]

    def test_script_does_not_change_the_key(self, diabetes_corpus):
        """Warm state is per (corpus, shape), never per input script."""
        first = normalize_job(
            {"op": "score", "params": {"script": "df = 1", "corpus": diabetes_corpus}}
        )
        second = normalize_job(
            {"op": "score", "params": {"script": "df = 2", "corpus": diabetes_corpus}}
        )
        assert system_key(first) == system_key(second)

    def test_resolved_config_applies_overrides(self, diabetes_corpus):
        job = normalize_job(
            {
                "op": "score",
                "params": {
                    "script": "df = 1",
                    "corpus": diabetes_corpus,
                    "config": {"seq": 2, "beam_size": 1},
                },
            }
        )
        resolved = resolve_job(job)
        assert resolved.config.seq == 2
        assert resolved.config.beam_size == 1
        assert resolved.config.sample_rows == LSConfig().sample_rows


def _job(request_id, corpus="a", deadline_s=None):
    return Job(
        request_id=request_id,
        job={"op": "score", "params": {"corpus": [corpus]}},
        future=None,
        deadline_s=deadline_s,
    )


class TestJobQueue:
    def test_bounded_admission(self):
        queue = JobQueue(limit=2)
        queue.admit(_job(1))
        queue.admit(_job(2))
        with pytest.raises(QueueFullError):
            queue.admit(_job(3))
        assert queue.depth == 2
        assert queue.peak_depth == 2

    def test_interleaved_corpora_leave_in_arrival_order(self):
        queue = JobQueue()
        for request_id, corpus in enumerate("abaab", start=1):
            queue.admit(_job(request_id, corpus))
        # jobs of corpus a do not jump ahead of the older job of b
        assert [j.request_id for j in queue.take_wave(1)] == [1]
        assert [j.request_id for j in queue.take_wave(1)] == [2]
        queue.admit(_job(6, "b"))
        # at most max_wave jobs, from the head
        assert [j.request_id for j in queue.take_wave(2)] == [3, 4]
        assert [j.request_id for j in queue.take_wave(8)] == [5, 6]
        assert queue.take_wave(1) == []
        assert queue.depth == 0

    def test_pop_expired_removes_only_overdue_jobs(self):
        queue = JobQueue()
        queue.admit(_job(1, deadline_s=1e-9))
        queue.admit(_job(2))  # no deadline
        queue.admit(_job(3, deadline_s=3600.0))
        expired = queue.pop_expired()
        assert [j.request_id for j in expired] == [1]
        assert queue.depth == 2

    def test_drain_returns_everything_oldest_first(self):
        queue = JobQueue()
        queue.admit(_job(1, "a"))
        queue.admit(_job(2, "b"))
        queue.admit(_job(3, "a"))
        drained = queue.drain()
        assert [j.request_id for j in drained] == [1, 2, 3]
        assert queue.depth == 0
        assert queue.take_wave(8) == []
