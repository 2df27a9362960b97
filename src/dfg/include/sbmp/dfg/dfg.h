#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sbmp/codegen/tac.h"
#include "sbmp/machine/machine.h"

namespace sbmp {

/// Classification of a weakly-connected DFG component, following the
/// paper's definitions: a Sig graph contains Send_Signal instructions
/// only, a Wat graph Wait_Signals only, a Sigwat graph both, and a plain
/// component neither.
enum class ComponentKind { kPlain, kSig, kWat, kSigwat };

[[nodiscard]] const char* component_kind_name(ComponentKind k);

/// Why a DFG edge exists.
enum class EdgeKind {
  kData,  ///< register flow (def -> use)
  kMem,   ///< same-iteration memory ordering on one array
  kSync,  ///< synchronization condition: Wat -> Snk or Src -> Sig
};

struct DfgEdge {
  int from = 0;  ///< instruction id
  int to = 0;    ///< instruction id
  int latency = 1;
  EdgeKind kind = EdgeKind::kData;
};

/// An instruction-level synchronization pair: one Wait_Signal and the
/// Send_Signal it consumes (they share `signal_stmt`).
struct SyncPair {
  int wait_instr = 0;
  int send_instr = 0;
  int signal_stmt = 0;
  std::int64_t distance = 1;
};

/// The data-flow graph of one lowered iteration, with the paper's extra
/// synchronization-condition arcs, partitioned into weakly-connected
/// components.
///
/// Storage is CSR (compressed sparse row): successor and predecessor
/// adjacency live in two flat edge arrays indexed by per-node offsets,
/// and node attributes (free flag, component id, critical-path height)
/// are SoA vectors precomputed at construction. Adjacency *order* is
/// part of the contract — it matches the historical per-node insertion
/// order exactly (schedulers walk predecessor lists in that order), and
/// the whole object remains a plain copyable value.
class Dfg {
 public:
  /// Builds the DFG for `tac` with edge latencies from `config`:
  ///  * register flow edges def -> use (latency = producer latency);
  ///  * same-iteration memory-ordering edges between accesses of one
  ///    array when at least one is a store and the subscripts may refer
  ///    to the same element (exact test for equal coefficients);
  ///  * synchronization-condition arcs Wait -> sink access and source
  ///    access -> Send, so no schedule can read stale data.
  Dfg(const TacFunction& tac, const MachineDesc& config);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::span<const DfgEdge> succs(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return {succ_edges_.data() + succ_off_[i],
            static_cast<std::size_t>(succ_off_[i + 1] - succ_off_[i])};
  }
  [[nodiscard]] std::span<const DfgEdge> preds(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return {pred_edges_.data() + pred_off_[i],
            static_cast<std::size_t>(pred_off_[i + 1] - pred_off_[i])};
  }
  /// Every edge once, grouped by source node in ascending id order with
  /// the per-node adjacency order inside each group (i.e. exactly the
  /// `for id { for succs(id) }` iteration, flattened).
  [[nodiscard]] std::span<const DfgEdge> edges() const { return succ_edges_; }
  [[nodiscard]] int indegree(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return pred_off_[i + 1] - pred_off_[i];
  }
  [[nodiscard]] int outdegree(int id) const {
    const auto i = static_cast<std::size_t>(id);
    return succ_off_[i + 1] - succ_off_[i];
  }
  [[nodiscard]] const std::vector<SyncPair>& pairs() const { return pairs_; }

  /// Component index of an instruction, or -1 for "free" nodes: pure
  /// functions of live-in registers (shared address arithmetic), which
  /// belong to no component and are placed on demand by the schedulers.
  [[nodiscard]] int component_of(int id) const {
    return component_[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] bool is_free(int id) const {
    return free_[static_cast<std::size_t>(id)] != 0;
  }
  [[nodiscard]] int num_components() const {
    return static_cast<int>(component_kinds_.size());
  }
  [[nodiscard]] ComponentKind component_kind(int comp) const {
    return component_kinds_[static_cast<std::size_t>(comp)];
  }
  /// Instruction ids of one component, in program order.
  [[nodiscard]] std::span<const int> component_members(int comp) const {
    const auto c = static_cast<std::size_t>(comp);
    return {member_ids_.data() + member_off_[c],
            static_cast<std::size_t>(member_off_[c + 1] - member_off_[c])};
  }

  /// Shortest directed path (by node count) from `pair.wait_instr` to
  /// `pair.send_instr`; empty when the send is not reachable from the
  /// wait (the pair is then convertible to LFD by placement). This is
  /// the paper's synchronization path SP(Wat, Sig).
  [[nodiscard]] std::vector<int> sync_path(const SyncPair& pair) const;

  /// Same query writing into `out` (cleared first). The sync-aware
  /// scheduler resolves every pair of every compiled loop through here;
  /// the out-parameter form lets it reuse one buffer per pair slot, and
  /// the BFS working set is per-thread scratch, so the query allocates
  /// nothing once warm.
  void sync_path(const SyncPair& pair, std::vector<int>& out) const;

  /// Function-unit class of an instruction (FuClass::kNone for none).
  [[nodiscard]] FuClass fu_class(int id) const {
    return static_cast<FuClass>(unit_[static_cast<std::size_t>(id)] &
                                ~kSyncBit);
  }
  /// True for Wait_Signal and Send_Signal.
  [[nodiscard]] bool is_sync(int id) const {
    return (unit_[static_cast<std::size_t>(id)] & kSyncBit) != 0;
  }

  /// Critical-path height of each instruction (max latency-weighted path
  /// length to any leaf), the classic list-scheduling priority.
  /// Precomputed at construction; indexed by instruction id.
  [[nodiscard]] const std::vector<int>& heights() const { return height_; }

  /// All transitive predecessors of `id` (excluding `id`).
  [[nodiscard]] std::vector<int> ancestors(int id) const;

 private:
  void partition_components(const TacFunction& tac);

  int n_ = 0;  ///< number of instructions; ids are 1..n_.
  // CSR adjacency: offsets are n_+2 wide so succs(id)/preds(id) index
  // safely for every id in [0, n_].
  std::vector<std::int32_t> succ_off_;
  std::vector<std::int32_t> pred_off_;
  std::vector<DfgEdge> succ_edges_;
  std::vector<DfgEdge> pred_edges_;
  std::vector<SyncPair> pairs_;
  // SoA node attributes, indexed by instruction id.
  static constexpr std::uint8_t kSyncBit = 0x80;
  /// FuClass, | kSyncBit for sync operations: what the slot fillers ask
  /// on every placement, kept here so they never touch the TAC.
  std::vector<std::uint8_t> unit_;
  std::vector<std::uint8_t> free_;
  std::vector<int> component_;
  std::vector<int> height_;
  std::vector<ComponentKind> component_kinds_;
  // Component membership as one flat id array plus per-component offsets.
  std::vector<std::int32_t> member_off_;
  std::vector<int> member_ids_;
};

}  // namespace sbmp
