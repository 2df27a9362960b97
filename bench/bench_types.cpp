// DOACROSS-type distribution (the taxonomy the paper cites in §4.1 from
// the Perfect-benchmark studies: control, anti/output, induction,
// reduction, simple subscript, other). Classifies every suite loop plus
// a set of pre-form loops that exercise the restructuring passes, and
// reports how the synchronized-DOACROSS types the paper evaluates
// (3, 4, 5 and part of 6) respond to the new scheduling. Loops are
// measured in parallel (`--jobs N`; 0/default = hardware threads) and
// merged in deterministic loop order.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.h"
#include "sbmp/core/pipeline.h"
#include "sbmp/perfect/suite.h"
#include "sbmp/restructure/classify.h"
#include "sbmp/support/strings.h"
#include "sbmp/support/thread_pool.h"
#include "sbmp/support/table.h"

namespace {

const char* kPreSamples = R"(
loop pre_reduction
do I = 1, 100
  s = s + A[I] * B[I]
end

loop pre_prefix
do I = 1, 100
  s = s + A[I]
  B[I] = s * c1
end

loop pre_induction
do I = 1, 100
  init k = 2
  k = k + 3
  C[I] = A[I] * k
end

loop pre_temp
do I = 1, 100
  B[I] = t + A[I] * c1
  t = A[I] - C[I+1]
end
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace sbmp;
  using namespace sbmp::bench;

  // Gather every loop to classify (suite loops pass through restructuring
  // untouched; the pre-form samples actually exercise it).
  std::vector<RestructureResult> items;
  for (const auto& bench : perfect_suite()) {
    for (const auto& loop : bench.program().loops) {
      RestructureResult r;
      r.loop = loop;
      r.ok = true;
      items.push_back(std::move(r));
    }
  }
  DiagEngine diags;
  for (const auto& pre : parse_pre_program(kPreSamples, diags).loops)
    items.push_back(restructure_or_throw(pre));

  struct Measured {
    std::set<DoacrossType> types;
    long long ta = 0;
    long long tb = 0;
    bool doall = false;
  };
  std::vector<Measured> measured(items.size());
  ResultCache cache;
  parallel_for(parse_jobs(argc, argv), 0,
               static_cast<std::int64_t>(items.size()),
               [&](std::int64_t i) {
                 const auto idx = static_cast<std::size_t>(i);
                 const RestructureResult& r = items[idx];
                 const DepAnalysis deps = analyze_dependences(r.loop);
                 Measured& m = measured[idx];
                 m.types = classify_doacross(r, deps);
                 if (m.types.empty()) {
                   m.doall = true;
                   return;
                 }
                 PipelineOptions options;
                 options.machine = machines::paper(4, 1);
                 options.iterations = 100;
                 const SchedulerComparison cmp =
                     compare_schedulers(r.loop, options, &cache);
                 m.ta = cmp.baseline.parallel_time();
                 m.tb = cmp.improved.parallel_time();
               });

  // Deterministic merge in loop order.
  std::map<DoacrossType, int> counts;
  std::map<DoacrossType, std::pair<long long, long long>> times;  // Ta, Tb
  int doall = 0;
  for (const auto& m : measured) {
    if (m.doall) {
      ++doall;
      continue;
    }
    for (const auto t : m.types) {
      ++counts[t];
      times[t].first += m.ta;
      times[t].second += m.tb;
    }
  }

  TextTable table;
  table.set_header({"DOACROSS type", "loops", "Ta (list)", "Tb (new)",
                    "improvement"});
  for (const auto& [type, count] : counts) {
    const auto [ta, tb] = times[type];
    table.add_row({doacross_type_name(type), std::to_string(count),
                   std::to_string(ta), std::to_string(tb),
                   format_percent(ta > 0 ? static_cast<double>(ta - tb) /
                                               static_cast<double>(ta)
                                         : 0.0)});
  }
  table.add_separator();
  table.add_row({"doall (excluded)", std::to_string(doall), "-", "-", "-"});

  std::printf(
      "DOACROSS type distribution (suite + restructured pre-form loops;\n"
      "a loop may belong to several types; 4-issue, #FU=1)\n\n%s\n",
      table.render().c_str());
  return 0;
}
