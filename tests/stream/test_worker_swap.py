"""FineTuneWorker: ingest validation, incremental steps, hot-swap semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.serialization import checkpoint_meta
from repro.serve.registry import Scenario
from repro.stream import StreamConfig, StreamManager, parse_events

from .conftest import make_service


def _ingest(worker, payloads):
    return worker.ingest(parse_events(payloads))


def _interactions(dataset, count, rng):
    events = []
    for _ in range(count):
        user = int(rng.integers(0, dataset.num_users))
        seq = dataset.sequences[user]
        events.append({"user": user,
                       "item": int(seq[rng.integers(0, len(seq))])})
    return events


def test_ingest_receipt_and_counters(worker, rng):
    dataset = worker.data
    events = _interactions(dataset, 6, rng)
    events.append({"item": {"text_tokens": [5, 6], "topic": 0}})
    receipt = _ingest(worker, events)
    assert receipt["accepted"] == 7
    assert receipt["interactions"] == 6 and receipt["cold_items"] == 1
    assert receipt["cold_item_ids"] == [dataset.num_items]
    assert receipt["events_total"] == 7
    stats = worker.stats_json()
    assert stats["events_total"] == 7
    assert stats["cold_items"] == 1
    assert stats["catalogue_items"] == stats["published_items"] + 1


def test_ingest_batch_is_atomic_on_invalid_event(worker):
    items_before = worker.data.num_items
    users_before = worker.data.num_users
    bad = [{"item": {"text_tokens": [1, 2]}},          # valid cold item
           {"user": 0, "item": 10_000}]                 # out of range
    with pytest.raises(ValueError, match=r"event\[1\].*item id"):
        _ingest(worker, bad)
    # Nothing from the batch was applied — not even the valid cold item.
    assert worker.data.num_items == items_before
    assert worker.data.num_users == users_before
    assert worker.log.total == 0


def test_ingest_rejects_malformed_cold_payload_up_front(worker):
    """Bad modality payloads fail at ingest, not later in the worker.

    Both are rejected before anything applies — a deferred crash inside
    the fine-tune thread or the swap encode would be far from the
    offending request (and would break batch atomicity).
    """
    items_before = worker.data.num_items
    with pytest.raises(ValueError, match=r"event\[1\].*token ids"):
        _ingest(worker, [{"user": 0, "item": 1},
                         {"item": {"text_tokens": [10_000_000]}}])
    with pytest.raises(ValueError, match=r"event\[0\].*image shape"):
        _ingest(worker, [{"item": {"text_tokens": [3],
                                   "image": [[[0.0] * 3] * 2] * 2}}])
    assert worker.data.num_items == items_before
    assert worker.log.total == 0


def test_background_thread_survives_round_errors(rng):
    """A failing round is recorded on /stats, never a silent dead thread."""
    from repro.stream import FineTuneWorker, StreamConfig
    service = make_service()
    try:
        worker = FineTuneWorker(
            service, ("kwai_food", "pmmrec-text"),
            StreamConfig(min_events_per_round=2, round_timeout_s=0.05,
                         seed=0),
            start=True)
        boom = RuntimeError("poisoned batch")

        def exploding_round():
            raise boom

        worker._round = exploding_round
        worker.ingest(parse_events(_interactions(worker.data, 4, rng)))
        import time
        deadline = time.monotonic() + 10
        while worker.stats_json()["round_errors"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = worker.stats_json()
        assert stats["round_errors"] >= 1
        assert "poisoned batch" in stats["last_error"]
        assert worker._thread.is_alive()    # the learner did not die
        # And it recovers: un-poison, ingest again, a real round runs.
        del worker._round                    # restore the class method
        worker.ingest(parse_events(_interactions(worker.data, 4, rng)))
        deadline = time.monotonic() + 10
        while worker.stats_json()["steps"] < 1 \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert worker.stats_json()["steps"] >= 1
        worker.close()
    finally:
        service.close()


def test_interaction_may_reference_cold_item_from_same_batch(worker):
    new_id = worker.data.num_items + 1
    receipt = _ingest(worker, [
        {"item": {"text_tokens": [3, 4], "topic": 0}},
        {"user": 0, "item": new_id},
        {"user": 0, "item": new_id},
    ])
    assert receipt["cold_item_ids"] == [new_id]
    np.testing.assert_array_equal(worker.data.sequences[0][-2:],
                                  [new_id, new_id])


def test_cold_items_rejected_for_id_based_models(rng):
    service = make_service("kwai_food:sasrec")
    try:
        manager = StreamManager(service, StreamConfig(seed=0), start=False)
        worker = manager.worker("kwai_food", "sasrec")
        assert not worker.supports_cold_items
        # Interactions stream fine...
        receipt = _ingest(worker, _interactions(worker.data, 4, rng))
        assert receipt["accepted"] == 4
        # ...but cold items cannot exist without modality encoders.
        with pytest.raises(ValueError, match="ID-based"):
            _ingest(worker, [{"item": {"text_tokens": [1]}}])
    finally:
        service.close()


def test_unstreamable_models_are_reported_not_fatal():
    service = make_service("kwai_food:pop")
    try:
        manager = StreamManager(service, StreamConfig(seed=0), start=False)
        assert len(manager) == 0
        stats = manager.stats()
        assert "kwai_food:pop" in stats["unstreamable"]
        with pytest.raises(ValueError, match="cannot stream"):
            manager.ingest("kwai_food", "pop", [{"user": 0, "item": 1}])
    finally:
        service.close()


def test_run_steps_trains_the_shadow_not_serving(worker, rng):
    service = worker.service
    serving_model = service.registry.get(*worker.key).model
    before = {k: v.copy() for k, v in serving_model.state_dict().items()}
    _ingest(worker, _interactions(worker.data, 8, rng))
    done = worker.run_steps(2)
    assert done == 2
    stats = worker.stats_json()
    assert stats["steps"] == 2 and np.isfinite(stats["last_loss"])
    # Serving weights untouched until the swap publishes.
    for name, value in serving_model.state_dict().items():
        np.testing.assert_array_equal(value, before[name])
    shadow_state = worker.shadow.state_dict()
    assert any(not np.array_equal(shadow_state[n], before[n])
               for n in before)


def test_full_swap_publishes_new_generation(tmp_path, rng):
    service = make_service()
    try:
        manager = StreamManager(
            service, StreamConfig(batch_size=4, steps_per_swap=2, seed=0,
                                  checkpoint_dir=str(tmp_path)),
            start=False)
        service.attach_stream(manager)
        worker = manager.worker("kwai_food", "pmmrec-text")
        old = service.registry.get(*worker.key)
        version_before = old.recommender.index_version
        receipt = _ingest(worker, _interactions(worker.data, 8, rng) + [
            {"user": 0, "item": {"text_tokens": [7, 8], "topic": 0}}])
        cold_id = receipt["cold_item_ids"][0]
        worker.run_steps(2)
        report = worker.swap()
        assert report.kind == "full"
        assert report.version == version_before + 1
        assert report.steps == 2 and report.new_items == 1
        assert report.reencoded_items == worker.data.num_items
        new = service.registry.get(*worker.key)
        assert new is not old and new.model is not old.model
        assert new.dataset.num_items == old.dataset.num_items + 1
        assert new.recommender.index_version == version_before + 1
        # Published weights == shadow weights (bitwise).
        for name, value in worker.shadow.state_dict().items():
            np.testing.assert_array_equal(new.model.state_dict()[name],
                                          value)
        # The old generation object is fully intact (in-flight safety).
        assert old.dataset.num_items + 1 == new.dataset.num_items
        assert old.recommender.index_version == version_before
        # The cold item is servable on the new generation only.
        answer = new.recommender.recommend([cold_id], k=5)
        assert answer.index_version == version_before + 1
        with pytest.raises(ValueError):
            old.recommender.recommend([cold_id], k=5)
        # Versioned checkpoint with streaming metadata.
        assert report.checkpoint is not None
        meta = checkpoint_meta(report.checkpoint)
        assert meta["swap_version"] == 1
        assert meta["fine_tune_steps"] == 2
        assert meta["scenario"] == "kwai_food:pmmrec-text"
    finally:
        service.close()


def test_catalog_swap_reencodes_only_new_rows(worker):
    service = worker.service
    old = service.registry.get(*worker.key)
    old_matrix, old_version = old.recommender.index.snapshot()
    receipt = _ingest(worker, [
        {"item": {"text_tokens": [5, 6, 7], "topic": 0}}])
    cold_id = receipt["cold_item_ids"][0]
    report = worker.swap()
    assert report.kind == "catalog"
    assert report.steps == 0
    assert report.reencoded_items == 1
    new = service.registry.get(*worker.key)
    # Same weights → the serving model object is shared, not copied.
    assert new.model is old.model
    matrix, version = new.recommender.index.snapshot()
    assert version == old_version + 1
    assert matrix.shape[0] == old_matrix.shape[0] + 1
    # Old rows are reused bitwise; only the new row was encoded.
    np.testing.assert_array_equal(matrix[:old_matrix.shape[0]], old_matrix)
    expected = old.model.encode_item_rows(new.dataset,
                                          np.array([cold_id]))
    np.testing.assert_allclose(matrix[cold_id],
                               expected[0].astype(matrix.dtype))


def test_swap_with_nothing_to_publish_is_skipped(worker):
    report = worker.swap()
    assert report.kind == "skipped"
    assert worker.stats_json()["swaps"] == 0


def test_swap_invalidates_request_cache_through_new_batcher(worker, rng):
    service = worker.service
    dataset = service.registry.get(*worker.key).dataset
    history = [int(i) for i in dataset.split.test[0].history]
    first = service.recommend("kwai_food", "pmmrec-text", history, k=5)
    assert service.recommend("kwai_food", "pmmrec-text", history,
                             k=5)["cached"] is True
    _ingest(worker, _interactions(worker.data, 8, rng))
    worker.run_steps(2)
    report = worker.swap()
    fresh = service.recommend("kwai_food", "pmmrec-text", history, k=5)
    # The swap dropped the batcher's LRU: the same request is re-scored
    # against the new generation, never served stale.
    assert fresh["cached"] is False
    assert fresh["index_version"] == report.version \
        == first["index_version"] + 1
    assert service.recommend("kwai_food", "pmmrec-text", history,
                             k=5)["cached"] is True


def test_registry_publish_requires_loaded_scenario(service):
    scenario = service.registry.get("kwai_food", "pmmrec-text")
    ghost = Scenario(spec=type(scenario.spec)(dataset="hm", model="sasrec"),
                     dataset=scenario.dataset, model=scenario.model,
                     recommender=scenario.recommender)
    with pytest.raises(KeyError, match="cannot publish"):
        service.registry.publish(ghost)


def test_ingest_after_close_refuses(worker):
    worker.close()
    with pytest.raises(RuntimeError, match="closed"):
        _ingest(worker, [{"user": 0, "item": 1}])
