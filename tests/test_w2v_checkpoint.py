import numpy as np
import pytest

from repro.text.synthetic import SyntheticCorpusSpec, generate_corpus
from repro.w2v.distributed import GraphWord2Vec
from repro.w2v.io import CheckpointError, CheckpointState, save_checkpoint_blob
from repro.w2v.params import Word2VecParams


@pytest.fixture(scope="module")
def corpus():
    spec = SyntheticCorpusSpec(
        num_tokens=6000, pairs_per_family=4, filler_vocab=100, questions_per_family=4
    )
    return generate_corpus(spec, seed=1)[0]


PARAMS = Word2VecParams(dim=16, epochs=4, negatives=4, window=3, subsample_threshold=1e-2)


def make(corpus, **kw):
    defaults = dict(num_hosts=3, seed=5)
    defaults.update(kw)
    return GraphWord2Vec(corpus, PARAMS, **defaults)


class TestUntilEpoch:
    def test_pause_and_continue_same_trainer(self, corpus):
        straight = make(corpus).train().model
        paused = make(corpus)
        paused.train(until_epoch=2)
        assert paused._completed_epochs == 2
        final = paused.train().model
        assert final == straight

    def test_until_epoch_beyond_budget_clamped(self, corpus):
        trainer = make(corpus)
        trainer.train(until_epoch=100)
        assert trainer._completed_epochs == PARAMS.epochs


class TestCheckpoint:
    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_resume_reproduces_uninterrupted_run(self, corpus, plan):
        straight = make(corpus, plan=plan).train().model

        first = make(corpus, plan=plan)
        first.train(until_epoch=2)
        blob = first.save_checkpoint()

        resumed = make(corpus, plan=plan)
        assert resumed.load_checkpoint(blob) == 2
        final = resumed.train().model
        assert final == straight

    def test_save_load_roundtrip(self, corpus):
        trainer = make(corpus)
        trainer.train()
        blob = trainer.save_checkpoint()
        fresh = make(corpus)
        next_epoch = fresh.load_checkpoint(blob)
        assert next_epoch == PARAMS.epochs
        assert fresh.canonical_model() == trainer.canonical_model()
        # Fully trained checkpoint: train() is a no-op.
        model_before = fresh.canonical_model()
        fresh.train()
        assert fresh.canonical_model() == model_before

    def test_mismatched_config_rejected(self, corpus):
        trainer = make(corpus)
        trainer.train(until_epoch=1)
        blob = trainer.save_checkpoint()
        other = make(corpus, seed=6)
        with pytest.raises(ValueError, match="different training configuration"):
            other.load_checkpoint(blob)
        other_plan = make(corpus, plan="naive")
        with pytest.raises(ValueError):
            other_plan.load_checkpoint(blob)

    def test_checkpoint_between_every_epoch(self, corpus):
        """Resume is exact regardless of where the boundary falls."""
        straight = make(corpus).train().model
        for boundary in (1, 2, 3):
            a = make(corpus)
            a.train(until_epoch=boundary)
            b = make(corpus)
            b.load_checkpoint(a.save_checkpoint())
            assert b.train().model == straight, f"boundary {boundary}"


class TestRoundGranularCheckpoint:
    """A run killed at an arbitrary *round* boundary resumes exactly."""

    def test_until_round_pauses_mid_epoch(self, corpus):
        trainer = make(corpus)
        S = trainer.sync_rounds
        kill_at = S + S // 2  # strictly inside epoch 1
        trainer.train(until_round=kill_at)
        assert trainer._completed_epochs == 1
        assert trainer._completed_rounds == kill_at - S

    @pytest.mark.parametrize("plan", ["opt", "naive", "pull"])
    def test_mid_epoch_resume_reproduces_uninterrupted_run(self, corpus, plan):
        straight = make(corpus, plan=plan).train()

        first = make(corpus, plan=plan)
        S = first.sync_rounds
        first.train(until_round=S + S // 2)
        blob = first.save_checkpoint()

        resumed = make(corpus, plan=plan)
        resumed.load_checkpoint(blob)
        final = resumed.train()
        assert final.model == straight.model
        assert final.epoch_pairs == straight.epoch_pairs
        assert final.report.pairs_processed == straight.report.pairs_processed

    def test_resume_at_every_round_of_first_epoch(self, corpus):
        probe = make(corpus)
        S = probe.sync_rounds
        straight = make(corpus).train().model
        for kill_at in range(1, S + 1):
            a = make(corpus)
            a.train(until_round=kill_at)
            b = make(corpus)
            b.load_checkpoint(a.save_checkpoint())
            assert b.train().model == straight, f"killed at round {kill_at}"

    def test_double_pause_same_trainer(self, corpus):
        straight = make(corpus).train().model
        trainer = make(corpus)
        S = trainer.sync_rounds
        trainer.train(until_round=S // 2)
        trainer.train(until_round=2 * S + 1)
        assert trainer.train().model == straight

    def test_pair_accounting_survives_resume(self, corpus):
        straight = make(corpus).train()
        a = make(corpus)
        a.train(until_round=a.sync_rounds + 2)
        b = make(corpus)
        b.load_checkpoint(a.save_checkpoint())
        result = b.train()
        assert sum(result.epoch_pairs) == sum(straight.epoch_pairs)
        assert result.epoch_pairs == straight.epoch_pairs

    def test_epoch_granular_blob_still_loads(self, corpus):
        """Blobs without a round cursor (the old format) decode cleanly."""
        import io

        import numpy as np

        trainer = make(corpus)
        trainer.train(until_epoch=2)
        model = trainer.canonical_model()
        buf = io.BytesIO()
        np.savez_compressed(
            buf,
            embedding=model.embedding,
            training=model.training,
            completed_epochs=np.int64(2),
            fingerprint=np.frombuffer(
                trainer._config_fingerprint().encode(), dtype=np.uint8
            ),
        )
        fresh = make(corpus)
        assert fresh.load_checkpoint(buf.getvalue()) == 2
        assert fresh._completed_rounds == 0
        straight = make(corpus).train().model
        assert fresh.train().model == straight


def trainer_state(trainer):
    """Every replica, base and canonical array, plus the round cursor."""
    arrays = [
        a.copy()
        for sync_field in trainer._fields.values()
        for a in [*sync_field.arrays, *sync_field.bases, sync_field.canonical]
    ]
    return arrays, (trainer._completed_epochs, trainer._completed_rounds)


def assert_untouched(trainer, before):
    arrays, cursor = trainer_state(trainer)
    assert cursor == before[1]
    assert len(arrays) == len(before[0])
    for got, want in zip(arrays, before[0]):
        assert np.array_equal(got, want)


class TestCheckpointErrors:
    """A bad blob raises a named error and leaves the trainer untouched."""

    @pytest.fixture()
    def blob_and_trainer(self, corpus):
        donor = make(corpus)
        donor.train(until_epoch=1)
        trainer = make(corpus)
        trainer.train(until_round=1)
        return donor.save_checkpoint(), trainer

    def test_truncated_blob(self, blob_and_trainer):
        blob, trainer = blob_and_trainer
        before = trainer_state(trainer)
        with pytest.raises(CheckpointError, match="unreadable"):
            trainer.load_checkpoint(blob[: len(blob) // 2])
        assert_untouched(trainer, before)

    def test_garbled_blob(self, blob_and_trainer):
        blob, trainer = blob_and_trainer
        before = trainer_state(trainer)
        garbled = bytes(b ^ 0x5A for b in blob[:64]) + blob[64:]
        with pytest.raises(CheckpointError, match="unreadable"):
            trainer.load_checkpoint(garbled)
        assert_untouched(trainer, before)

    def test_short_field_fails_before_any_write(self, blob_and_trainer):
        # The embedding is valid and would be written first; the training
        # field is one row short.  Nothing may be written.
        blob, trainer = blob_and_trainer
        model = trainer.canonical_model()
        rows, dim = model.training.shape
        short = save_checkpoint_blob(
            CheckpointState(
                embedding=model.embedding + 1.0,
                training=model.training[:-1],
                completed_epochs=1,
                fingerprint=trainer._config_fingerprint(),
            )
        )
        before = trainer_state(trainer)
        with pytest.raises(
            CheckpointError,
            match=rf"'training': expected shape \({rows}, {dim}\) dtype float32, "
            rf"got shape \({rows - 1}, {dim}\) dtype float32",
        ):
            trainer.load_checkpoint(short)
        assert_untouched(trainer, before)

    def test_wrong_dtype_names_the_field(self, blob_and_trainer):
        blob, trainer = blob_and_trainer
        model = trainer.canonical_model()
        wide = save_checkpoint_blob(
            CheckpointState(
                embedding=model.embedding.astype(np.float64),
                training=model.training,
                completed_epochs=1,
                fingerprint=trainer._config_fingerprint(),
            )
        )
        before = trainer_state(trainer)
        with pytest.raises(CheckpointError, match="'embedding'.*dtype float64"):
            trainer.load_checkpoint(wide)
        assert_untouched(trainer, before)

    def test_errors_are_value_errors(self, blob_and_trainer):
        blob, trainer = blob_and_trainer
        with pytest.raises(ValueError):
            trainer.load_checkpoint(b"not a checkpoint")
        # The intact blob still loads afterwards.
        assert trainer.load_checkpoint(blob) == 1


def test_bsp_config_fingerprint_is_pinned(corpus):
    """Checkpoints written by the dedicated BSP loop carry this fingerprint;
    both spellings of BSP must keep producing it so they keep loading."""
    expected = (
        "Word2VecParams(dim=16, window=3, negatives=4, architecture='skipgram', "
        "objective='negative', learning_rate=0.025, min_learning_rate_fraction=0.0001, "
        "lr_schedule='linear', epochs=4, subsample_threshold=0.01, min_count=1, "
        "max_sentence_length=10000, batch_pairs=256, shuffle_each_epoch=True)"
        "|hosts=3|S=4|combiner=mc|plan=RepModel-Opt|seed=5|corpus_tokens=6001"
    )
    assert make(corpus)._config_fingerprint() == expected
    assert make(corpus, engine="async", staleness=0)._config_fingerprint() == expected
    assert make(corpus, engine="async", staleness=2)._config_fingerprint() == (
        expected + "|engine=async|s=2|lam=0.0"
    )
