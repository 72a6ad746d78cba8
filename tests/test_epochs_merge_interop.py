"""Cross-feature interop: epochs x merge x snapshots x volume.

Each extension is tested alone elsewhere; these tests exercise the
compositions a deployment would actually run.
"""

import numpy as np

from repro.core.caesar import Caesar
from repro.core.config import CaesarConfig
from repro.core.epochs import EpochalCaesar
from repro.core.merge import merge
from repro.sram.snapshot import load_counters, save_counters
from repro.traffic.lengths import constant_lengths


CFG = dict(cache_entries=64, entry_capacity=16, k=3, bank_size=512, seed=77)


class TestEpochsPlusMerge:
    def test_merging_epoch_instances_recovers_totals(self, tiny_trace):
        """Two epochs measured by separate same-seed instances merge
        into the whole-horizon measurement."""
        half = len(tiny_trace.packets) // 2
        instances = []
        for part in (tiny_trace.packets[:half], tiny_trace.packets[half:]):
            caesar = Caesar(CaesarConfig(**CFG))
            caesar.process(part)
            caesar.finalize()
            instances.append(caesar)
        merged = merge(instances)
        single = Caesar(CaesarConfig(**CFG))
        single.process(tiny_trace.packets)
        single.finalize()
        top = tiny_trace.flows.top(10)
        np.testing.assert_allclose(
            merged.estimate(top.ids),
            single.estimate(top.ids),
            rtol=0.05,
            atol=3.0,
        )


class TestEpochsPlusSnapshots:
    def test_epoch_records_roundtrip_to_disk(self, tiny_trace, tmp_path):
        ec = EpochalCaesar(CaesarConfig(**CFG))
        third = len(tiny_trace.packets) // 3
        paths = []
        for i in range(3):
            ec.process(tiny_trace.packets[i * third : (i + 1) * third])
            record = ec.close_epoch()
            paths.append(
                save_counters(
                    tmp_path / f"epoch{i}.npz",
                    record.counter_values,
                    CFG["entry_capacity"] * 2**16,
                    metadata={"epoch": record.index, "mass": record.recorded_mass},
                )
            )
        for i, path in enumerate(paths):
            values, meta = load_counters(path)
            np.testing.assert_array_equal(values, ec.epoch(i).counter_values)
            assert meta["epoch"] == i
            assert meta["mass"] == ec.epoch(i).recorded_mass


class TestEpochsPlusVolume:
    def test_volume_epochs(self, tiny_trace):
        cfg = CaesarConfig(
            cache_entries=64, entry_capacity=4000, k=3, bank_size=512,
            counter_capacity=2**40, seed=7,
        )
        ec = EpochalCaesar(cfg)
        half = len(tiny_trace.packets) // 2
        for part in (tiny_trace.packets[:half], tiny_trace.packets[half:]):
            ec.process(part, constant_lengths(len(part), 100))
            ec.close_epoch()
        assert ec.epoch(0).recorded_mass == 100 * half
        total = sum(r.recorded_mass for r in ec.history)
        assert total == 100 * tiny_trace.num_packets


class TestOnlinePlusMedian:
    def test_live_then_final_median_ranking(self, small_trace):
        caesar = Caesar(
            CaesarConfig(cache_entries=256, entry_capacity=54, k=5, bank_size=1024, seed=8)
        )
        caesar.process(small_trace.packets)
        live_top = caesar.estimate_online(small_trace.flows.ids)
        caesar.finalize()
        final = caesar.estimate(small_trace.flows.ids, "median", clip_negative=True)
        # Same elephants rank on top before and after finalize.
        live_set = set(np.argsort(live_top)[-10:].tolist())
        final_set = set(np.argsort(final)[-10:].tolist())
        assert len(live_set & final_set) >= 7
