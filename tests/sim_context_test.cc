#include "src/cost/sim_context.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>

namespace treebench {
namespace {

TEST(SimContextTest, DiskAndRpcCharges) {
  SimContext sim;
  sim.ChargeDiskRead();
  EXPECT_EQ(sim.metrics().disk_reads, 1u);
  EXPECT_DOUBLE_EQ(sim.elapsed_ns(), sim.model().disk_read_page_ns);
  sim.ChargeRpc(4096);
  EXPECT_EQ(sim.metrics().rpc_count, 1u);
  EXPECT_EQ(sim.metrics().rpc_bytes, 4096u);
}

TEST(SimContextTest, HandleModeChangesCosts) {
  auto get_ns = [](HandleMode mode) {
    SimContext sim(CostModel::Sparc20(), mode);
    EXPECT_EQ(sim.handle_mode(), mode);
    sim.ChargeHandleGet();
    return sim.elapsed_ns();
  };
  double fat = get_ns(HandleMode::kFat);
  double compact = get_ns(HandleMode::kCompact);
  double bulk = get_ns(HandleMode::kBulk);
  EXPECT_GT(fat, compact);
  EXPECT_GT(compact, bulk);
}

TEST(SimContextTest, HandleBytesPerMode) {
  // The default context is the paper's fat-handle O2.
  EXPECT_EQ(SimContext().HandleBytes(), 60u);  // the paper's 60-byte handle
  EXPECT_EQ(SimContext(CostModel::Sparc20(), HandleMode::kFat).HandleBytes(),
            60u);
  EXPECT_LT(
      SimContext(CostModel::Sparc20(), HandleMode::kCompact).HandleBytes(),
      60u);
  EXPECT_LT(SimContext(CostModel::Sparc20(), HandleMode::kBulk).HandleBytes(),
            SimContext(CostModel::Sparc20(), HandleMode::kCompact)
                .HandleBytes());
}

TEST(SimContextTest, ResetClockKeepsMemoryRegistrations) {
  SimContext sim;
  sim.RegisterFixedMemory(1 << 20);
  sim.ChargeDiskRead();
  sim.ResetClock();
  EXPECT_DOUBLE_EQ(sim.elapsed_ns(), 0.0);
  EXPECT_EQ(sim.metrics().disk_reads, 0u);
  EXPECT_EQ(sim.fixed_bytes(), 1u << 20);
}

TEST(SimContextTest, NoSwapWhileTransientFits) {
  SimContext sim;  // 128 MB machine
  sim.AllocTransient(1 << 20);
  for (int i = 0; i < 10000; ++i) sim.TouchTransient();
  EXPECT_EQ(sim.metrics().swap_ios, 0u);
}

TEST(SimContextTest, SwapKicksInUnderPressure) {
  CostModel model;
  model.ram_bytes = 64 << 20;
  model.reserved_bytes = 0;
  SimContext sim(model);
  sim.RegisterFixedMemory(32 << 20);
  // 64 MB transient vs 32 MB free: half of all touches swap.
  sim.AllocTransient(64 << 20);
  EXPECT_TRUE(sim.UnderMemoryPressure());
  for (int i = 0; i < 10000; ++i) sim.TouchTransient();
  EXPECT_NEAR(static_cast<double>(sim.metrics().swap_ios), 5000.0, 10.0);
  // Each swap costs a victim write-back plus a fault: 2 page I/Os.
  EXPECT_NEAR(sim.elapsed_ns(),
              sim.metrics().swap_ios * 2.0 * model.swap_io_ns, 1e6);
}

TEST(SimContextTest, FreeingTransientStopsSwapping) {
  CostModel model;
  model.ram_bytes = 64 << 20;
  model.reserved_bytes = 0;
  SimContext sim(model);
  sim.RegisterFixedMemory(32 << 20);
  sim.AllocTransient(64 << 20);
  sim.FreeTransient(48 << 20);
  EXPECT_FALSE(sim.UnderMemoryPressure());
  uint64_t before = sim.metrics().swap_ios;
  for (int i = 0; i < 1000; ++i) sim.TouchTransient();
  EXPECT_EQ(sim.metrics().swap_ios, before);
}

TEST(SimContextTest, HandleMemoryCountsAgainstFreeRam) {
  CostModel model;
  model.ram_bytes = 64 << 20;
  model.reserved_bytes = 0;
  SimContext sim(model);
  uint64_t base = sim.FreeRamForTransient();
  sim.AddHandleMemory(8 << 20);
  EXPECT_EQ(sim.FreeRamForTransient(), base - (8u << 20));
  sim.AddHandleMemory(-(8 << 20));
  EXPECT_EQ(sim.FreeRamForTransient(), base);
}

TEST(SimContextTest, SortChargesNLogN) {
  SimContext sim;
  sim.ChargeSort(1024);
  EXPECT_EQ(sim.metrics().sorted_elements, 1024u);
  double expect = sim.model().sort_per_element_level_ns * 1024 * 10;  // log2
  EXPECT_NEAR(sim.elapsed_ns(), expect, expect * 0.01);
  sim.ChargeSort(0);  // no-op
  EXPECT_EQ(sim.metrics().sorted_elements, 1024u);
}

TEST(SimContextTest, LoaderCharges) {
  SimContext sim;
  sim.ChargeObjectCreate();
  sim.ChargeCommit();
  sim.ChargeIndexInsertCpu();
  sim.ChargeRelocation();
  sim.ChargeLogBytes(1000);
  const Metrics& m = sim.metrics();
  EXPECT_EQ(m.objects_created, 1u);
  EXPECT_EQ(m.commits, 1u);
  EXPECT_EQ(m.index_inserts, 1u);
  EXPECT_EQ(m.relocations, 1u);
  EXPECT_GT(sim.elapsed_ns(), 0.0);
}

TEST(SimContextTest, MetricsToStringMentionsCounters) {
  SimContext sim;
  sim.ChargeDiskRead();
  std::string s = sim.metrics().ToString();
  EXPECT_NE(s.find("disk_reads=1"), std::string::npos);
  // Every counter prints as its own name=value token.
  std::set<std::string> names;
  std::istringstream in(s);
  for (std::string token; in >> token;) {
    names.insert(token.substr(0, token.find('=')));
  }
  for (const MetricsField& f : MetricsFieldTable()) {
    EXPECT_EQ(names.count(f.name), 1u) << f.name;
  }
}

TEST(CostModelTest, Sparc20Defaults) {
  CostModel m = CostModel::Sparc20();
  EXPECT_DOUBLE_EQ(m.disk_read_page_ns, 10e6);  // paper: 10 ms per page
  EXPECT_EQ(m.ram_bytes, 128ull << 20);         // paper: 128 MB
}

}  // namespace
}  // namespace treebench
