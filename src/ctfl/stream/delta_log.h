#ifndef CTFL_STREAM_DELTA_LOG_H_
#define CTFL_STREAM_DELTA_LOG_H_

// Streaming per-round contribution delta log: the append-only artifact a
// federated run emits *while training* so contribution scores can be
// folded incrementally (StreamingScorer, scorer.h) instead of recomputed
// from scratch after the final round.
//
// File layout ("CTFLDLTA" container, version 1, little-endian):
//
//   magic "CTFLDLTA" | u32 version
//   record*: { u32 kind | u32 payload_len | payload | u32 crc32(payload) }
//
// Record kinds (unknown kinds are skipped, mirroring the replay
// container's unknown-section tolerance):
//
//   1 header  one per log, first: run identity (config digest, schema +
//             failure-plan fingerprints), the tracer/allocation knobs the
//             fold must reproduce, and the round-0 baseline — schema,
//             initialized model, participant labels + activation uploads,
//             and test forwards — encoded with the bundle's own section
//             codecs (store/bundle.h) so the two containers stay
//             bit-compatible.
//   2 round   one per federated round, consecutive from 1: cohort
//             metadata plus the round's deltas — model parameters as XOR
//             of IEEE-754 bit patterns (new = old ^ x, bit-exact both
//             ways), activation and prediction changes as flip lists. A
//             fully degraded round's record is empty and folds in O(1).
//
// Reader semantics match the replay-file corruption matrix: a partial
// tail (crash mid-append) recovers to the last whole record and reports
// the dropped byte count; a CRC mismatch or a future container version is
// an error; unknown record kinds are tolerated and counted.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ctfl/nn/logical_net.h"
#include "ctfl/store/bundle.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace stream {

/// Run identity + round-0 baseline. Everything a StreamingScorer needs to
/// bootstrap without the originating Federation or test Dataset.
struct DeltaHeader {
  /// CtflConfigDigest of the originating run (semantic knobs only).
  uint64_t config_digest = 0;
  uint64_t schema_fingerprint = 0;
  /// FailurePlan::Fingerprint of the fault schedule (0 = fault-free).
  uint64_t failure_plan_fingerprint = 0;
  uint32_t num_rules = 0;

  // Tracer/allocation knobs the fold replays (execution knobs — kernel,
  // ISA, thread counts — are deliberately absent: they never change
  // results, DESIGN.md §9/§10).
  double tau_w = 0.9;
  bool use_dedup = true;
  double min_rule_weight = 1e-6;
  double dp_epsilon = 0.0;
  uint64_t dp_seed = 0x5eed;
  int macro_delta = 1;

  // Round-0 baseline.
  SchemaPtr schema;
  LogicalNetConfig net_config;
  std::vector<double> params;  ///< initialized (pre-training) parameters
  std::vector<std::string> participant_names;
  /// Per participant: labels + round-0 activation uploads (DP-perturbed
  /// exactly as the tracer would, so the privacy boundary of paper §V is
  /// identical to a bundle snapshot's).
  std::vector<store::ParticipantRecords> participants;
  /// Round-0 test forwards (label, prediction, raw activation).
  std::vector<store::TestRecord> tests;
};

/// One flipped bit in a participant's activation upload.
struct ActivationFlip {
  uint32_t participant = 0;
  uint32_t record = 0;
  uint32_t rule = 0;
};

/// One flipped bit in a test instance's raw activation.
struct TestActivationFlip {
  uint32_t test = 0;
  uint32_t rule = 0;
};

/// One federated round's delta against the previous round's state.
struct RoundDelta {
  uint32_t round = 0;  ///< 1-based, consecutive
  bool degraded = false;
  uint32_t clients_trained = 0;
  uint32_t clients_dropped = 0;
  uint32_t retries = 0;
  /// (parameter index, XOR of IEEE-754 u64 bit patterns).
  std::vector<std::pair<uint32_t, uint64_t>> param_xors;
  std::vector<ActivationFlip> train_flips;
  std::vector<TestActivationFlip> test_activation_flips;
  /// Tests whose predicted class flipped this round.
  std::vector<uint32_t> predicted_flips;

  /// True when the round changed nothing (fully degraded): folds in O(1).
  bool empty() const {
    return param_xors.empty() && train_flips.empty() &&
           test_activation_flips.empty() && predicted_flips.empty();
  }
};

// Record payload codecs (container framing handled by writer/reader).
std::string EncodeHeader(const DeltaHeader& header);
Result<DeltaHeader> DecodeHeader(std::string_view payload);
std::string EncodeRound(const RoundDelta& round);
Result<RoundDelta> DecodeRound(std::string_view payload);

/// Append-only writer. Each Append* call frames, CRCs, writes and flushes
/// one whole record, so a crash between calls leaves a recoverable log
/// (at worst a partial tail that readers drop).
class DeltaLogWriter {
 public:
  /// Creates/truncates `path` and writes the container preamble.
  static Result<DeltaLogWriter> Create(const std::string& path);

  DeltaLogWriter(DeltaLogWriter&&) = default;
  DeltaLogWriter& operator=(DeltaLogWriter&&) = default;

  Status AppendHeader(const DeltaHeader& header);
  Status AppendRound(const RoundDelta& round);
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  DeltaLogWriter() = default;
  Status AppendRecord(uint32_t kind, const std::string& payload);

  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Fully decoded delta log.
struct DeltaLogContents {
  DeltaHeader header;
  std::vector<RoundDelta> rounds;  ///< consecutive, rounds[i].round == i+1
  /// Bytes of the file covered by whole records (preamble included).
  size_t bytes_consumed = 0;
  /// Partial-tail bytes dropped (0 for a cleanly closed log).
  size_t truncated_bytes = 0;
  /// Records with an unknown kind that were skipped.
  uint32_t skipped_records = 0;
};

Result<DeltaLogContents> ReadDeltaLog(const std::string& path);
Result<DeltaLogContents> ParseDeltaLog(std::string_view bytes,
                                       const std::string& origin);

}  // namespace stream
}  // namespace ctfl

#endif  // CTFL_STREAM_DELTA_LOG_H_
