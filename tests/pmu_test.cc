#include "hw/pmu.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/prng.h"
#include "hw/shared_cache.h"

namespace nipo {
namespace {

TEST(HwConfigTest, XeonPreset) {
  const HwConfig cfg = HwConfig::XeonE5_2630v2();
  EXPECT_EQ(cfg.l1.capacity_bytes, 32u * 1024);
  EXPECT_EQ(cfg.l2.capacity_bytes, 256u * 1024);
  EXPECT_EQ(cfg.l3.capacity_bytes, 15u * 1024 * 1024);
  EXPECT_EQ(cfg.predictor.num_states, 6);
  EXPECT_DOUBLE_EQ(cfg.cycle_model.frequency_ghz, 2.6);
}

TEST(HwConfigTest, ScaledXeonDividesCapacities) {
  const HwConfig cfg = HwConfig::ScaledXeon(4);
  EXPECT_EQ(cfg.l1.capacity_bytes, 8u * 1024);
  EXPECT_EQ(cfg.l3.capacity_bytes, 15u * 1024 * 1024 / 4);
  EXPECT_EQ(cfg.l1.line_size, 64u);
}

TEST(HwConfigTest, ScaledXeonFloorsAtOneWayGroup) {
  const HwConfig cfg = HwConfig::ScaledXeon(1'000'000);
  EXPECT_GE(cfg.l1.capacity_bytes,
            static_cast<uint64_t>(cfg.l1.associativity) * cfg.l1.line_size);
  EXPECT_GE(cfg.l1.num_sets(), 1u);
}

TEST(CycleModelTest, LoadCostsOrdered) {
  CycleModel m;
  EXPECT_LT(m.LoadCycles(MemoryLevel::kL1), m.LoadCycles(MemoryLevel::kL2));
  EXPECT_LT(m.LoadCycles(MemoryLevel::kL2), m.LoadCycles(MemoryLevel::kL3));
  EXPECT_LT(m.LoadCycles(MemoryLevel::kL3),
            m.LoadCycles(MemoryLevel::kMemory));
}

TEST(PmuTest, CountsInstructions) {
  Pmu pmu;
  pmu.OnInstructions(10);
  EXPECT_EQ(pmu.Read().instructions, 10u);
  EXPECT_GT(pmu.Read().cycles, 0u);
}

TEST(PmuTest, BranchCountersSplitByDirection) {
  Pmu pmu;
  pmu.EnsureBranchSites(1);
  pmu.OnBranch(0, true);
  pmu.OnBranch(0, true);
  pmu.OnBranch(0, false);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.branches, 3u);
  EXPECT_EQ(c.branches_taken, 2u);
  EXPECT_EQ(c.branches_not_taken, 1u);
  EXPECT_EQ(c.mispredictions,
            c.taken_mispredictions + c.not_taken_mispredictions);
}

TEST(PmuTest, MispredictionChargesPenalty) {
  Pmu pmu;
  pmu.EnsureBranchSites(2);
  // Saturate site 0 toward taken, then surprise it.
  for (int i = 0; i < 10; ++i) pmu.OnBranch(0, true);
  const uint64_t before = pmu.Read().cycles;
  pmu.OnBranch(0, true);  // predicted correctly
  const uint64_t correct_cost = pmu.Read().cycles - before;
  const uint64_t before2 = pmu.Read().cycles;
  pmu.OnBranch(0, false);  // mispredicted
  const uint64_t wrong_cost = pmu.Read().cycles - before2;
  EXPECT_GT(wrong_cost, correct_cost + 10);
}

TEST(PmuTest, LoadsRunThroughCaches) {
  Pmu pmu;
  std::vector<int32_t> data(1024, 0);
  EXPECT_EQ(pmu.OnLoad(data.data(), 4), MemoryLevel::kMemory);
  EXPECT_EQ(pmu.OnLoad(data.data(), 4), MemoryLevel::kL1);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.l1_accesses, 2u);
  EXPECT_EQ(c.l1_misses, 1u);
  EXPECT_GE(c.l3_accesses, 1u);
}

TEST(PmuTest, ResetCountersKeepsMachineState) {
  Pmu pmu;
  std::vector<int32_t> data(16, 0);
  pmu.OnLoad(data.data(), 4);
  pmu.ResetCounters();
  EXPECT_EQ(pmu.Read().l1_accesses, 0u);
  EXPECT_EQ(pmu.Read().cycles, 0u);
  // The line is still cached: the next access hits L1.
  EXPECT_EQ(pmu.OnLoad(data.data(), 4), MemoryLevel::kL1);
  EXPECT_EQ(pmu.Read().l1_misses, 0u);
}

TEST(PmuTest, ResetMachineColdensCaches) {
  Pmu pmu;
  std::vector<int32_t> data(16, 0);
  pmu.OnLoad(data.data(), 4);
  pmu.ResetMachine();
  EXPECT_EQ(pmu.OnLoad(data.data(), 4), MemoryLevel::kMemory);
}

/// A fixed event stream: streaming and gathered loads over `data` that
/// overflow the caches of ScaledXeon(64) (so lines get prefetched and
/// evicted), plus branch runs that train three predictor sites.
void RunFixedStream(Pmu* pmu, const std::vector<int64_t>& data) {
  pmu->EnsureBranchSites(3);
  Prng prng(7);
  std::vector<uint32_t> rows(512);
  for (size_t round = 0; round < 4; ++round) {
    pmu->OnSequentialLoads(data.data(), 8, data.size());
    for (uint32_t& r : rows) {
      r = static_cast<uint32_t>(prng.NextBounded(data.size()));
    }
    pmu->OnGatherLoads(data.data(), 8, rows.data(), rows.size());
    for (size_t site = 0; site < 3; ++site) {
      pmu->OnBranchRun(site, (round + site) % 2 == 0, 5 + site);
      pmu->OnBranch(site, round % 3 == 0);
    }
    pmu->OnInstructions(100);
  }
}

/// Counters plus per-level hits, misses and resident lines must match.
void ExpectSameMachine(const Pmu& actual, const Pmu& expected) {
  EXPECT_EQ(actual.Read(), expected.Read());
  const CacheLevel* a[] = {&actual.caches().l1(), &actual.caches().l2(),
                           &actual.caches().l3()};
  const CacheLevel* e[] = {&expected.caches().l1(), &expected.caches().l2(),
                           &expected.caches().l3()};
  for (size_t level = 0; level < 3; ++level) {
    EXPECT_EQ(a[level]->hits(), e[level]->hits()) << "L" << level + 1;
    EXPECT_EQ(a[level]->misses(), e[level]->misses()) << "L" << level + 1;
    EXPECT_EQ(a[level]->occupied_lines(), e[level]->occupied_lines())
        << "L" << level + 1;
  }
}

TEST(PmuTest, ResetMachineMatchesCloneFresh) {
  const Pmu prototype(HwConfig::ScaledXeon(64));
  std::vector<int64_t> data(40'000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<int64_t>(i);

  Pmu fresh = prototype.CloneFresh();
  RunFixedStream(&fresh, data);

  // Dirtied by the same stream (so any residue would show up as extra
  // hits): prefetched lines, trained predictor sites, spare sites, raw
  // cycles, and an attachment to a shared L3 that ended in a detach.
  Pmu recycled = prototype.CloneFresh();
  {
    SharedCacheDomain domain(prototype.config().l3);
    domain.RegisterOwner("q0");
    recycled.AttachSharedL3(&domain, 0);
    RunFixedStream(&recycled, data);
    recycled.AttachSharedL3(nullptr, 0);
  }
  RunFixedStream(&recycled, data);
  recycled.EnsureBranchSites(8);
  recycled.ChargeCycles(123.0);
  recycled.ResetMachine();
  EXPECT_EQ(recycled.predictor().num_sites(), 0u);
  RunFixedStream(&recycled, data);
  ExpectSameMachine(recycled, fresh);

  // Still attached when its domain dies: the reset detaches without
  // reading the dead domain, like a fresh clone, which is never attached.
  Pmu orphaned = prototype.CloneFresh();
  {
    SharedCacheDomain domain(prototype.config().l3);
    domain.RegisterOwner("q0");
    orphaned.AttachSharedL3(&domain, 0);
    RunFixedStream(&orphaned, data);
  }
  orphaned.ResetMachine();
  EXPECT_FALSE(orphaned.shared_l3_attached());
  RunFixedStream(&orphaned, data);
  ExpectSameMachine(orphaned, fresh);
}

TEST(PmuTest, SnapshotSubtraction) {
  Pmu pmu;
  pmu.EnsureBranchSites(1);
  pmu.OnBranch(0, true);
  const PmuCounters a = pmu.Read();
  pmu.OnBranch(0, true);
  pmu.OnInstructions(5);
  const PmuCounters delta = pmu.Read() - a;
  EXPECT_EQ(delta.branches, 1u);
  EXPECT_EQ(delta.instructions, 6u);  // 5 + the branch instruction
}

TEST(PmuTest, CountersAccumulateWithPlusEquals) {
  PmuCounters a, b;
  a.branches = 3;
  a.cycles = 10;
  b.branches = 4;
  b.cycles = 20;
  a += b;
  EXPECT_EQ(a.branches, 7u);
  EXPECT_EQ(a.cycles, 30u);
}

TEST(PmuTest, ToMillisecondsUsesFrequency) {
  Pmu pmu;  // 2.6 GHz -> 2.6e6 cycles per msec
  PmuCounters c;
  c.cycles = 2'600'000;
  EXPECT_NEAR(pmu.ToMilliseconds(c), 1.0, 1e-9);
}

TEST(PmuTest, ChargeCyclesAddsToClockOnly) {
  Pmu pmu;
  pmu.ChargeCycles(1000.0);
  const PmuCounters c = pmu.Read();
  EXPECT_EQ(c.cycles, 1000u);
  EXPECT_EQ(c.instructions, 0u);
}

TEST(PmuTest, ToStringMentionsKeyCounters) {
  Pmu pmu;
  pmu.OnInstructions(1);
  const std::string s = pmu.Read().ToString();
  EXPECT_NE(s.find("instructions=1"), std::string::npos);
  EXPECT_NE(s.find("L3_accesses"), std::string::npos);
}

}  // namespace
}  // namespace nipo
