#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sbmp/core/pipeline.h"
#include "sbmp/support/hash.h"
#include "sbmp/support/status.h"

namespace sbmp {

/// Serialization of pipeline artifacts for the persistent schedule
/// cache and the sbmpd wire protocol.
///
/// A cached entry does NOT store every LoopReport member. The pipeline
/// is deterministic in (loop, options), so the cheap front half — parse,
/// then run_front_half (dependence analysis, synchronization insertion,
/// codegen, redundant-wait pass, DFG) — is recomputed on load from the
/// canonical loop source, and only the expensive, derived artifacts are
/// stored: the schedule, the simulated cycle counts, and the
/// violation/status verdicts. Recomputing the front half on load is also
/// what makes the safety contract cheap to enforce: the decoder re-runs
/// verify_schedule and (when the options ask for validation)
/// validate_pipeline against the *reconstructed* state, so a stale or
/// tampered entry whose schedule no longer fits the loop is rejected as
/// a miss instead of shipping a mis-synchronized schedule.

/// Version of the cache entry format AND of everything fingerprinted
/// into the cache key. Bump it whenever either changes meaning: the
/// entry layout, the canonical loop rendering, the option set, or any
/// pipeline stage whose output the cache persists (scheduler, simulator,
/// sync insertion). A bump orphans old entries (they miss on the
/// fingerprint), which is exactly the desired invalidation.
inline constexpr std::int64_t kScheduleCacheFormatVersion = 3;

/// Content address of a (loop, options) compile: a 128-bit fingerprint
/// over the canonical LoopLang rendering of `loop`, every
/// PipelineOptions field that can change the report (the same set
/// ResultCache::key pins, and in the same order), and the format
/// version.
[[nodiscard]] Fingerprint schedule_fingerprint(const Loop& loop,
                                               const PipelineOptions& options);
/// The same fingerprint from `key` = ResultCache::key(loop, options), for
/// a caller that has already rendered it.
[[nodiscard]] Fingerprint schedule_fingerprint(std::string_view key);

/// Serializes the cacheable artifacts of `report`. The encoding is
/// deterministic: byte-equal encodings iff the stored fields are equal,
/// which is what the cold-vs-warm byte-identity tests compare.
[[nodiscard]] std::string encode_loop_report(const LoopReport& report,
                                             const Fingerprint& fingerprint);

/// Decodes `payload` into a full LoopReport, recomputing the front half
/// of the pipeline under `options` and re-verifying the stored schedule
/// (see the file comment). Returns a non-ok Status — and leaves `*out`
/// unspecified — when the payload is corrupt, was written by another
/// format version, does not match `expected` (content address mismatch),
/// or fails re-validation; the caller treats every such status as a
/// cache miss.
[[nodiscard]] Status decode_loop_report(const std::string& payload,
                                        const PipelineOptions& options,
                                        const Fingerprint& expected,
                                        LoopReport* out);

/// Serializes every semantically relevant PipelineOptions field for the
/// wire protocol.
[[nodiscard]] std::string encode_pipeline_options(
    const PipelineOptions& options);

[[nodiscard]] Status decode_pipeline_options(const std::string& payload,
                                             PipelineOptions* out);

}  // namespace sbmp
