#include "sbmp/serve/codec.h"

#include <charconv>
#include <limits>
#include <utility>

#include "sbmp/core/parallel.h"
#include "sbmp/support/serialize.h"

namespace sbmp {

namespace {

Status reject(std::string message) {
  return Status::error(StatusCode::kInput, "cache", std::move(message));
}

std::string encode_ints(const std::vector<int>& values) {
  std::string out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(values[i]);
  }
  return out;
}

bool decode_ints(std::string_view text, std::vector<int>* out) {
  out->clear();
  const char* p = text.data();
  const char* end = text.data() + text.size();
  while (p < end) {
    int value = 0;
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc()) return false;
    out->push_back(value);
    p = next;
    if (p < end) {
      if (*p != ' ') return false;
      ++p;
      if (p == end) return false;  // trailing separator
    }
  }
  return true;
}

void add_string_list(RecordWriter& w, const char* name,
                     const std::vector<std::string>& values) {
  w.add_int(std::string(name) + "_count", static_cast<std::int64_t>(values.size()));
  for (const std::string& v : values) w.add_string(name, v);
}

Status read_string_list(RecordReader& r, const char* name,
                        std::vector<std::string>* out) {
  std::int64_t count = 0;
  if (Status s = r.read_int(std::string(name) + "_count", &count); !s.ok())
    return s;
  if (count < 0 || count > 100000)
    return reject("implausible list count for " + std::string(name));
  out->clear();
  out->reserve(static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) {
    std::string v;
    if (Status s = r.read_string(name, &v); !s.ok()) return s;
    out->push_back(std::move(v));
  }
  return Status::okay();
}

}  // namespace

Fingerprint schedule_fingerprint(const Loop& loop,
                                 const PipelineOptions& options) {
  // ResultCache::key already canonicalizes the exact input set of
  // run_pipeline (loop rendering + every semantic option); reusing it
  // here guarantees the in-memory and on-disk caches can never disagree
  // about which runs are "the same".
  return schedule_fingerprint(ResultCache::key(loop, options));
}

Fingerprint schedule_fingerprint(std::string_view key) {
  // The version is appended so a format bump orphans every old entry.
  std::string data(key);
  data += '\x1e';
  data += "sbmp-cache-v";
  data += std::to_string(kScheduleCacheFormatVersion);
  return fingerprint_bytes(data);
}

std::string encode_loop_report(const LoopReport& report,
                               const Fingerprint& fingerprint) {
  RecordWriter w;
  w.add_int("version", kScheduleCacheFormatVersion);
  w.add_string("fingerprint", fingerprint.to_hex());
  w.add_string("name", report.name);
  w.add_string("loop", report.loop.to_string());
  w.add_int("doall", report.doall ? 1 : 0);
  w.add_int("waits_eliminated", report.waits_eliminated);
  w.add_int("used_list_fallback", report.used_list_fallback ? 1 : 0);
  w.add_int("groups", static_cast<std::int64_t>(report.schedule.groups.size()));
  for (const auto& group : report.schedule.groups)
    w.add_string("group", encode_ints(group));
  w.add_string("slots", encode_ints(report.schedule.slot_of));
  w.add_int("sim_parallel_time", report.sim.parallel_time);
  w.add_int("sim_iteration_time", report.sim.iteration_time);
  w.add_int("sim_stall_cycles", report.sim.stall_cycles);
  add_string_list(w, "schedule_violation", report.schedule_violations);
  add_string_list(w, "ordering_violation", report.ordering_violations);
  add_string_list(w, "validation_violation", report.validation_violations);
  w.add_int("status_code", static_cast<std::int64_t>(report.status.code));
  w.add_string("status_stage", report.status.stage);
  w.add_string("status_message", report.status.message);
  return w.finish();
}

Status decode_loop_report(const std::string& payload,
                          const PipelineOptions& options,
                          const Fingerprint& expected, LoopReport* out) {
  RecordReader r;
  if (Status s = RecordReader::open(payload, &r); !s.ok()) return s;

  std::int64_t version = 0;
  if (Status s = r.read_int("version", &version); !s.ok()) return s;
  if (version != kScheduleCacheFormatVersion)
    return reject("entry format version " + std::to_string(version) +
                  " != " + std::to_string(kScheduleCacheFormatVersion));
  std::string fp_hex;
  if (Status s = r.read_string("fingerprint", &fp_hex); !s.ok()) return s;
  Fingerprint stored_fp;
  if (!Fingerprint::from_hex(fp_hex, &stored_fp) || stored_fp != expected)
    return reject("entry fingerprint does not match the requested key");

  LoopReport report;
  std::string loop_source;
  if (Status s = r.read_string("name", &report.name); !s.ok()) return s;
  if (Status s = r.read_string("loop", &loop_source); !s.ok()) return s;
  std::int64_t doall = 0;
  std::int64_t stored_waits = 0;
  std::int64_t fallback = 0;
  if (Status s = r.read_int("doall", &doall); !s.ok()) return s;
  if (Status s = r.read_int("waits_eliminated", &stored_waits); !s.ok())
    return s;
  if (Status s = r.read_int("used_list_fallback", &fallback); !s.ok())
    return s;

  // Rebuild the deterministic front half from the canonical source
  // through the pipeline's own code, with the observability hooks
  // cleared so a decode records no compile phase. Any exception here
  // means the entry does not describe a compilable loop — a miss, never
  // a crash.
  PipelineOptions front = options;
  front.tracer = nullptr;
  front.metrics = nullptr;
  try {
    run_front_half(parse_single_loop_or_throw(loop_source), front, report);
  } catch (const SbmpError& e) {
    return reject(std::string("cached loop no longer compiles: ") + e.what());
  }
  if (report.doall != (doall != 0))
    return reject("cached doall flag disagrees with dependence analysis");
  if (report.name != report.loop.name)
    return reject("cached report name disagrees with the loop it stores");
  if (report.waits_eliminated != static_cast<int>(stored_waits))
    return reject("cached waits_eliminated disagrees with the redundancy "
                  "pass");
  report.used_list_fallback = fallback != 0;

  // Schedule: stored verbatim, then re-verified against the
  // reconstructed TAC/DFG below.
  std::int64_t group_count = 0;
  if (Status s = r.read_int("groups", &group_count); !s.ok()) return s;
  if (group_count < 0 || group_count > 1000000)
    return reject("implausible schedule group count");
  report.schedule.groups.resize(static_cast<std::size_t>(group_count));
  for (auto& group : report.schedule.groups) {
    std::string text;
    if (Status s = r.read_string("group", &text); !s.ok()) return s;
    if (!decode_ints(text, &group))
      return reject("malformed schedule group encoding");
  }
  std::string slots_text;
  if (Status s = r.read_string("slots", &slots_text); !s.ok()) return s;
  if (!decode_ints(slots_text, &report.schedule.slot_of))
    return reject("malformed schedule slot encoding");
  if (report.schedule.slot_of.size() !=
      static_cast<std::size_t>(report.tac.size()) + 1)
    return reject("schedule slot table does not cover the reconstructed "
                  "instruction set");
  for (const auto& group : report.schedule.groups) {
    for (const int id : group) {
      if (id < 1 || id > report.tac.size())
        return reject("schedule references instruction " +
                      std::to_string(id) + " outside the reconstructed TAC");
    }
  }

  if (Status s = r.read_int("sim_parallel_time", &report.sim.parallel_time);
      !s.ok())
    return s;
  if (Status s = r.read_int("sim_iteration_time", &report.sim.iteration_time);
      !s.ok())
    return s;
  if (Status s = r.read_int("sim_stall_cycles", &report.sim.stall_cycles);
      !s.ok())
    return s;

  std::vector<std::string> stored_schedule_viol;
  std::vector<std::string> stored_ordering_viol;
  std::vector<std::string> stored_validation_viol;
  if (Status s =
          read_string_list(r, "schedule_violation", &stored_schedule_viol);
      !s.ok())
    return s;
  if (Status s =
          read_string_list(r, "ordering_violation", &stored_ordering_viol);
      !s.ok())
    return s;
  if (Status s = read_string_list(r, "validation_violation",
                                  &stored_validation_viol);
      !s.ok())
    return s;
  std::int64_t status_code = 0;
  if (Status s = r.read_int("status_code", &status_code); !s.ok()) return s;
  if (Status s = r.read_string("status_stage", &report.status.stage); !s.ok())
    return s;
  if (Status s = r.read_string("status_message", &report.status.message);
      !s.ok())
    return s;

  // Safety gate: the stored schedule must still verify against the
  // reconstructed TAC/DFG, and when validation is on, the cross-layer
  // validator must reproduce the stored verdict exactly. Any
  // disagreement means the entry is stale or tampered with: reject it
  // (the caller recompiles) rather than ship a schedule whose verdict
  // we cannot reproduce.
  report.schedule_violations = verify_schedule(
      report.tac, *report.dfg, options.machine, report.schedule);
  if (report.schedule_violations != stored_schedule_viol)
    return reject("re-verification of the cached schedule disagrees with "
                  "its stored verdict");
  if (!options.check_ordering && !stored_ordering_viol.empty())
    return reject("cached ordering verdict present without check_ordering");
  report.ordering_violations = std::move(stored_ordering_viol);
  if (options.validate) {
    report.validation_violations =
        validate_pipeline(report, options);
    if (report.validation_violations != stored_validation_viol)
      return reject("re-validation of the cached schedule disagrees with "
                    "its stored verdict");
  } else {
    if (!stored_validation_viol.empty())
      return reject("cached validation verdict present without validate");
    report.validation_violations.clear();
  }

  // A cached entry can only be a clean run or a validation failure that
  // run_pipeline returned (thrown failures are never cached); its status
  // must agree with the violation lists.
  report.status.code = static_cast<StatusCode>(status_code);
  const bool valid = report.valid();
  if (report.status.code == StatusCode::kOk) {
    if (!valid || !report.status.stage.empty() ||
        !report.status.message.empty())
      return reject("cached ok status disagrees with stored violations");
  } else if (report.status.code == StatusCode::kValidation) {
    if (valid)
      return reject("cached validation status carries no violations");
  } else {
    return reject("cached status code " + std::to_string(status_code) +
                  " is not a cacheable outcome");
  }

  if (!r.at_end()) return reject("trailing fields in cache entry");
  *out = std::move(report);
  return Status::okay();
}

std::string encode_pipeline_options(const PipelineOptions& options) {
  RecordWriter w;
  w.add_int("version", kScheduleCacheFormatVersion);
  // The whole machine travels as its canonical textual form: one field
  // whose grammar is versioned by docs/machines.md instead of a column
  // per struct member, so adding a machine parameter no longer reshapes
  // the wire record (protocol revision '4').
  w.add_string("machine", options.machine.to_string());
  w.add_int("scheduler", static_cast<int>(options.scheduler));
  w.add_int("contiguous_paths", options.sync_aware.contiguous_paths ? 1 : 0);
  w.add_int("convert_lfd", options.sync_aware.convert_lfd ? 1 : 0);
  w.add_int("iterations", options.iterations);
  w.add_int("processors", options.processors);
  w.add_int("check_ordering", options.check_ordering ? 1 : 0);
  w.add_int("eliminate_redundant_waits",
            options.eliminate_redundant_waits ? 1 : 0);
  w.add_int("never_degrade", options.never_degrade ? 1 : 0);
  w.add_int("validate", options.validate ? 1 : 0);
  return w.finish();
}

Status decode_pipeline_options(const std::string& payload,
                               PipelineOptions* out) {
  RecordReader r;
  if (Status s = RecordReader::open(payload, &r); !s.ok()) return s;
  PipelineOptions options;
  std::int64_t v = 0;
  if (Status s = r.read_int("version", &v); !s.ok()) return s;
  if (v != kScheduleCacheFormatVersion)
    return reject("options encoded by format version " + std::to_string(v));
  const auto read_i = [&](const char* name, std::int64_t* dst) {
    return r.read_int(name, dst);
  };
  std::int64_t i = 0;
  std::string machine_text;
  if (Status s = r.read_string("machine", &machine_text); !s.ok()) return s;
  if (Status s = parse_machine_desc(machine_text, &options.machine); !s.ok())
    return reject("malformed machine desc: " + s.message);
  if (Status s = read_i("scheduler", &i); !s.ok()) return s;
  if (i < 0 || i > static_cast<int>(SchedulerKind::kSyncAware))
    return reject("unknown scheduler kind " + std::to_string(i));
  options.scheduler = static_cast<SchedulerKind>(i);
  if (Status s = read_i("contiguous_paths", &i); !s.ok()) return s;
  options.sync_aware.contiguous_paths = i != 0;
  if (Status s = read_i("convert_lfd", &i); !s.ok()) return s;
  options.sync_aware.convert_lfd = i != 0;
  if (Status s = read_i("iterations", &options.iterations); !s.ok()) return s;
  if (Status s = read_i("processors", &i); !s.ok()) return s;
  if (i < std::numeric_limits<int>::min() ||
      i > std::numeric_limits<int>::max())
    return reject("processors " + std::to_string(i) +
                  " is outside the range of int");
  options.processors = static_cast<int>(i);
  if (Status s = read_i("check_ordering", &i); !s.ok()) return s;
  options.check_ordering = i != 0;
  if (Status s = read_i("eliminate_redundant_waits", &i); !s.ok()) return s;
  options.eliminate_redundant_waits = i != 0;
  if (Status s = read_i("never_degrade", &i); !s.ok()) return s;
  options.never_degrade = i != 0;
  if (Status s = read_i("validate", &i); !s.ok()) return s;
  options.validate = i != 0;
  if (!r.at_end()) return reject("trailing fields in options record");
  *out = std::move(options);
  return Status::okay();
}

}  // namespace sbmp
