// Byte-identity golden gate for the compile hot path.
//
// The CSR/arena DFG, the bucketed ready lists and the indexed SlotFiller
// are pure data-structure optimizations: they must not change a single
// scheduling decision. This suite pins that contract by fingerprinting
// everything the hot path produces — the DFG structure itself (edge
// lists in adjacency order, free flags, components, kinds, members,
// heights, sync pairs), the output of all four schedulers under two
// machine cases, and the redundant-wait analysis — across the paper
// example, the stencil, every Perfect-suite loop, and 500 generated
// fuzz loops, and comparing against fingerprints recorded from the
// pre-optimization implementation (tests/golden/schedules.txt).
//
// Regenerate (only when an *intentional* scheduling change lands):
//   SBMP_UPDATE_GOLDEN=1 ./golden_test
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sbmp/codegen/codegen.h"
#include "sbmp/dep/dependence.h"
#include "sbmp/dfg/dfg.h"
#include "sbmp/dfg/redundancy.h"
#include "sbmp/frontend/parser.h"
#include "sbmp/perfect/generator.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/sched/schedulers.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/rng.h"
#include "sbmp/sync/sync.h"

namespace sbmp {
namespace {

constexpr const char* kStencil = R"(
doacross I = 1, 100
  U[I] = (U[I-1] + V[I]) * w1 + V[I+1] * w2
  R[I] = V[I-2] * w3 + V[I+2]
  Q[I] = R[I] + V[I] / w4
end
)";

constexpr const char* kPaperExample = R"(
doacross I = 1, 100
  B[I] = A[I-2] + E[I+1]
  G[I-3] = A[I-1] * E[I+2]
  A[I] = B[I] + C[I+3]
end
)";

void hash_schedule(Hasher64& h, const Schedule& sched) {
  h.update_i64(static_cast<std::int64_t>(sched.groups.size()));
  for (const auto& group : sched.groups) {
    h.update_i64(static_cast<std::int64_t>(group.size()));
    for (const int id : group) h.update_i64(id);
  }
}

void hash_dfg(Hasher64& h, const Dfg& dfg) {
  h.update_i64(dfg.size());
  for (int id = 1; id <= dfg.size(); ++id) {
    h.update_i64(dfg.is_free(id) ? 1 : 0);
    h.update_i64(dfg.component_of(id));
    for (const auto& e : dfg.succs(id)) {
      h.update_i64(e.from);
      h.update_i64(e.to);
      h.update_i64(e.latency);
      h.update_i64(static_cast<int>(e.kind));
    }
    // Predecessor adjacency order matters: place_ancestors_asap walks it.
    for (const auto& e : dfg.preds(id)) {
      h.update_i64(e.from);
      h.update_i64(e.latency);
    }
  }
  h.update_i64(dfg.num_components());
  for (int c = 0; c < dfg.num_components(); ++c) {
    h.update_i64(static_cast<int>(dfg.component_kind(c)));
    for (const int id : dfg.component_members(c)) h.update_i64(id);
  }
  for (const auto& pair : dfg.pairs()) {
    h.update_i64(pair.wait_instr);
    h.update_i64(pair.send_instr);
    h.update_i64(pair.signal_stmt);
    h.update_i64(pair.distance);
    for (const int id : dfg.sync_path(pair)) h.update_i64(id);
  }
  const auto heights = dfg.heights();
  for (int id = 1; id <= dfg.size(); ++id)
    h.update_i64(heights[static_cast<std::size_t>(id)]);
}

/// Fingerprint of everything the compile hot path derives from `loop`
/// under one machine case: DFG structure, all four schedulers, two
/// sync-aware ablations, and the redundant-wait analysis.
std::uint64_t loop_fingerprint(const Loop& loop, const MachineDesc& config) {
  const DepAnalysis deps = analyze_dependences(loop);
  if (!deps.is_synchronizable()) return 0;  // pipeline refuses these
  const SyncedLoop synced = insert_synchronization(loop, deps);
  const TacFunction tac = generate_tac(synced);
  const Dfg dfg(tac, config);

  Hasher64 h;
  hash_dfg(h, dfg);
  hash_schedule(h, schedule_inorder(tac, dfg, config));
  hash_schedule(h, schedule_list(tac, dfg, config));
  hash_schedule(h, schedule_sync_barrier(tac, dfg, config));
  hash_schedule(h, schedule_sync_aware(tac, dfg, config, 100));
  SyncAwareOptions no_paths;
  no_paths.contiguous_paths = false;
  hash_schedule(h, schedule_sync_aware(tac, dfg, config, 7, no_paths));
  SyncAwareOptions no_lfd;
  no_lfd.convert_lfd = false;
  hash_schedule(h, schedule_sync_aware(tac, dfg, config, 7, no_lfd));

  for (const int id : find_redundant_wait_instrs(tac, dfg)) h.update_i64(id);
  int removed = 0;
  TacFunction reduced = tac;
  eliminate_redundant_waits_inplace(reduced, config, &removed);
  h.update_i64(removed);
  h.update_i64(reduced.size());
  return h.digest();
}

struct GoldenEntry {
  std::string label;
  std::uint64_t digest = 0;
};

std::vector<GoldenEntry> compute_all() {
  std::vector<GoldenEntry> out;
  const MachineDesc wide = machines::paper(4, 1);
  const MachineDesc narrow = machines::paper(2, 2);
  const auto add = [&](const std::string& label, const Loop& loop) {
    out.push_back({label + "/4x1", loop_fingerprint(loop, wide)});
    out.push_back({label + "/2x2", loop_fingerprint(loop, narrow)});
  };
  add("paper-example", parse_single_loop_or_throw(kPaperExample));
  add("stencil", parse_single_loop_or_throw(kStencil));
  for (const auto& bench : perfect_suite()) {
    for (const auto& loop : bench.program().loops)
      add(bench.name + "/" + loop.name, loop);
  }
  for (int seed = 1; seed <= 500; ++seed) {
    SplitMix64 rng(static_cast<std::uint64_t>(seed) * 0x9e3779b97f4a7c15ull);
    const Loop loop = generate_random_loop(rng, LoopGenConfig{});
    const MachineDesc& config = (seed % 2 == 0) ? narrow : wide;
    std::ostringstream label;
    label << "fuzz-" << seed << (seed % 2 == 0 ? "/2x2" : "/4x1");
    out.push_back({label.str(), loop_fingerprint(loop, config)});
  }
  return out;
}

std::string to_hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(GoldenSchedules, ByteIdenticalToPreOptimizationReference) {
  const std::vector<GoldenEntry> entries = compute_all();
  const char* path = SBMP_GOLDEN_PATH;
  if (std::getenv("SBMP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    for (const auto& e : entries)
      out << e.label << ' ' << to_hex(e.digest) << '\n';
    GTEST_LOG_(INFO) << "updated " << path << " (" << entries.size()
                     << " entries)";
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << "; regenerate with SBMP_UPDATE_GOLDEN=1 ./golden_test";
  std::map<std::string, std::string> golden;
  std::string label, hex;
  while (in >> label >> hex) golden[label] = hex;
  ASSERT_EQ(golden.size(), entries.size())
      << "golden corpus size drifted; regenerate deliberately";
  int mismatches = 0;
  for (const auto& e : entries) {
    const auto it = golden.find(e.label);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << e.label;
    if (it->second != to_hex(e.digest)) {
      ++mismatches;
      ADD_FAILURE() << "schedule drift on " << e.label << ": golden "
                    << it->second << " vs computed " << to_hex(e.digest);
      if (mismatches >= 10) break;  // the first few localize the bug
    }
  }
}

}  // namespace
}  // namespace sbmp
