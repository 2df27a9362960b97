#include "sbmp/sync/sync.h"

#include <algorithm>
#include <map>
#include <set>

namespace sbmp {

std::string WaitOp::to_string(const std::string& iter_var) const {
  std::string dist = iter_var;
  dist += distance >= 0 ? "-" : "+";
  dist += std::to_string(distance >= 0 ? distance : -distance);
  return "Wait_Signal(S" + std::to_string(signal_stmt) + ", " + dist + ")";
}

std::string SendOp::to_string() const {
  return "Send_Signal(S" + std::to_string(signal_stmt) + ")";
}

const std::vector<WaitOp> SyncedLoop::waits_before(int stmt_id) const {
  std::vector<WaitOp> out;
  for (const auto& w : waits)
    if (w.sink_stmt == stmt_id) out.push_back(w);
  return out;
}

std::string SyncedLoop::to_string() const {
  std::string out = "DOACROSS " + loop.iter_var + " = " +
                    std::to_string(loop.lower) + ", " +
                    std::to_string(loop.upper) + "\n";
  for (const auto& stmt : loop.body) {
    for (const auto& w : waits_before(stmt.id))
      out += "  " + w.to_string(loop.iter_var) + ";\n";
    out += "  " + statement_to_string(stmt, loop.iter_var) + ";\n";
    for (const auto& s : sends) {
      if (s.signal_stmt == stmt.id) out += "  " + s.to_string() + ";\n";
    }
  }
  out += "END_DOACROSS\n";
  return out;
}

SyncedLoop insert_synchronization(const Loop& loop,
                                  const DepAnalysis& analysis,
                                  const SyncOptions& /*options*/) {
  SyncedLoop out;
  out.loop = loop;

  // Collect the synchronizable loop-carried dependences.
  for (const auto& dep : analysis.deps) {
    if (!dep.loop_carried()) continue;
    if (!dep.constant_distance) {
      out.unsynchronizable.push_back(dep);
      continue;
    }
    out.synced.push_back(dep);
  }

  // One wait per distinct (source stmt, sink stmt, distance); keep the
  // guarded access of the first dependence that produced it.
  std::set<std::tuple<int, int, std::int64_t>> wait_keys;
  for (const auto& dep : out.synced) {
    if (wait_keys.insert({dep.src_stmt, dep.snk_stmt, dep.distance}).second) {
      WaitOp wait;
      wait.signal_stmt = dep.src_stmt;
      wait.distance = dep.distance;
      wait.sink_stmt = dep.snk_stmt;
      wait.sink_ref = dep.snk_ref;
      wait.sink_is_write = dep.kind != DepKind::kFlow;
      out.waits.push_back(wait);
    }
  }
  std::sort(out.waits.begin(), out.waits.end(),
            [](const WaitOp& a, const WaitOp& b) {
              if (a.sink_stmt != b.sink_stmt) return a.sink_stmt < b.sink_stmt;
              if (a.distance != b.distance) return a.distance > b.distance;
              return a.signal_stmt < b.signal_stmt;
            });

  // One send per source statement. It follows the statement's write when
  // any dependence is write-sourced (the write executes last, so a send
  // after it covers the reads too); otherwise it follows every distinct
  // anti-source read, since guarding one read would let the send issue
  // before another.
  std::map<int, SendOp> sends;
  for (const auto& dep : out.synced) {
    SendOp& send = sends[dep.src_stmt];
    send.signal_stmt = dep.src_stmt;
    const SyncAccess access{dep.src_ref, dep.kind != DepKind::kAnti};
    if (send.srcs.empty() || (access.is_write && !send.srcs[0].is_write)) {
      send.srcs.assign(1, access);
    } else if (!send.srcs[0].is_write &&
               std::find(send.srcs.begin(), send.srcs.end(), access) ==
                   send.srcs.end()) {
      send.srcs.push_back(access);
    }
  }
  for (auto& [stmt, send] : sends) out.sends.push_back(std::move(send));
  return out;
}

SyncedLoop insert_synchronization(const Loop& loop,
                                  const SyncOptions& options) {
  return insert_synchronization(loop, analyze_dependences(loop), options);
}

}  // namespace sbmp
